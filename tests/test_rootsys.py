import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsp.errors import InputError
from qsp.rootsys import (
    _RANK_BOUNDS,
    _gauss_jordan,
    beta_sequence,
    build_root_datum,
    diagram_automorphisms,
    longest_element,
    nullspace_frac,
    positive_roots,
    qfact,
    qint,
    restrict_datum,
    rho_check,
    root_datum_from_json,
    tau0,
    weyl_act,
    weyl_dimension,
)

from module_helpers import qbinom

F = Fraction


def test_a1_cartan_data():
    d = build_root_datum([("A", 1)])
    assert d.cartan == ((2,),)
    assert d.d == (1,)
    assert d.d_A == 2


def test_a2_cartan_data():
    d = build_root_datum([("A", 2)])
    assert d.a(1, 2) == -1 and d.a(2, 1) == -1
    assert d.d_A == 3


def test_g2_symmetrizers():
    d = build_root_datum([("G", 2)])
    assert set(d.d) == {1, 3}
    assert d.a(1, 2) * d.d[0] == d.a(2, 1) * d.d[1]


@pytest.mark.parametrize("typ,rank,det", [
    ("A", 3, 4), ("B", 3, 2), ("C", 4, 2), ("D", 4, 4),
    ("E", 6, 3), ("F", 4, 1), ("G", 2, 1),
])
def test_d_A_matches_determinant(typ, rank, det):
    assert build_root_datum([(typ, rank)]).d_A == det


def test_composite_datum_lcm():
    d = build_root_datum([("A", 2), ("A", 1)])
    assert d.d_A == 6
    assert d.rank == 3
    assert d.a(2, 3) == 0


def test_invalid_inputs():
    with pytest.raises(InputError):
        build_root_datum([("H", 2)])
    with pytest.raises(InputError):
        build_root_datum([("E", 9)])
    with pytest.raises(InputError):
        build_root_datum([("D", 2)])


def test_pairing_normalization():
    # short roots have square length 2 in every type
    for typ, rank in [("A", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        d = build_root_datum([(typ, rank)])
        for r in d.vertices:
            a = d.simple_root(r)
            assert a.pairing(a) == 2 * d.d[r - 1]
        short = min(d.simple_root(r).pairing(d.simple_root(r)) for r in d.vertices)
        assert short == 2


def test_pairing_is_always_a_fraction():
    # the zero weight pairs to Fraction 0, not to the int of an empty sum
    d = build_root_datum([("B", 2)])
    for mu, nu in [(d.zero_weight(), d.rho()), (d.rho(), d.zero_weight()),
                   (d.zero_weight(), d.zero_weight()), (d.rho(), d.rho())]:
        assert type(mu.pairing(nu)) is Fraction
    assert d.zero_weight().pairing(d.rho()) == 0


def test_pairing_integrality_on_lattices():
    for typ, rank in [("A", 3), ("B", 3), ("D", 4), ("G", 2)]:
        d = build_root_datum([(typ, rank)])
        roots = [d.simple_root(r) for r in d.vertices]
        for a in roots:
            for b in roots:
                assert a.pairing(b).denominator == 1
        for r in d.vertices:
            for s in d.vertices:
                v = d.fundamental_weight(r).pairing(d.fundamental_weight(s))
                assert (v * d.d_A).denominator == 1


def orbit_positive_roots(datum, subset):
    """Positive roots of the subsystem by orbit closure: reflect the simple
    roots, in alpha coordinates, until nothing new appears, keep the
    nonnegative ones and sort them by (height, fundamental coordinates).
    Shares no code with the chamber walk."""
    sub = tuple(subset)

    def pair(v, s):
        """(v, alpha_s^vee) for v in alpha coordinates on sub."""
        return sum(x * datum.a(s, t) for x, t in zip(v, sub))

    seen = set()
    frontier = {tuple(int(s == r) for s in sub) for r in sub}
    while frontier:
        seen |= frontier
        # s_r(v) = v - (v, alpha_r^vee) alpha_r
        frontier = {v[:i] + (v[i] - pair(v, r),) + v[i + 1:]
                    for v in frontier for i, r in enumerate(sub)} - seen
    return [c for _, c in sorted(
        (sum(v), tuple(F(pair(v, s)) for s in datum.vertices))
        for v in seen if min(v) >= 0)]


def test_positive_roots_a2_closure_oracle():
    d = build_root_datum([("A", 2)])
    a1, a2 = d.simple_root(1), d.simple_root(2)
    got = {w.coords for w in positive_roots(d, (1, 2))}
    assert got == {a1.coords, a2.coords, (a1 + a2).coords}


def test_positive_roots_empty_and_rank_one_subset():
    d = build_root_datum([("A", 3)])
    assert positive_roots(d, ()) == ()
    sub = positive_roots(d, (2,))
    assert len(sub) == 1 and sub[0].coords == d.simple_root(2).coords


def _every_subset(datum):
    return [s for k in range(datum.rank + 1)
            for s in itertools.combinations(datum.vertices, k)]


# |Phi^+| of each simple type to rank 5, and of E6 and E7
@pytest.mark.parametrize("typ,rank,count", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10), ("A", 5, 15),
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16), ("B", 5, 25),
    ("C", 2, 4), ("C", 3, 9), ("C", 4, 16), ("C", 5, 25),
    ("D", 3, 6), ("D", 4, 12), ("D", 5, 20),
    ("E", 6, 36), ("E", 7, 63), ("F", 4, 24), ("G", 2, 6),
])
def test_beta_enumeration_matches_closure(typ, rank, count):
    # the sorted beta sequence of the walk's word against the orbit oracle,
    # on every subset up to rank 5 and on the full set beyond
    d = build_root_datum([(typ, rank)])
    assert len(positive_roots(d, d.vertices)) == count
    for subset in _every_subset(d) if rank <= 5 else [d.vertices]:
        want = orbit_positive_roots(d, subset)
        assert [b.coords for b in positive_roots(d, subset)] == want
        assert len(longest_element(d, subset)) == len(want)


def _reduced_words_of_longest(datum, subset):
    """Every reduced word of w_X, by depth-first search over words: an
    element w is kept as the integer matrix of its action on the simple
    roots of X, and s_t extends a reduced word of w iff w(alpha_t) > 0.
    The words that no letter extends are the reduced words of w_X."""
    sub = tuple(subset)
    k = len(sub)
    out = []

    def grow(word, mat):
        ext = False
        for j, t in enumerate(sub):
            col = [mat[i][j] for i in range(k)]
            if min(col) < 0:
                continue
            ext = True
            # w s_t: column u of w s_t is w(alpha_u - a_{tu} alpha_t)
            grow(word + (t,), [[mat[i][u] - datum.a(t, tu) * col[i]
                                for u, tu in enumerate(sub)]
                               for i in range(k)])
        if not ext:
            out.append(word)

    grow((), [[int(i == j) for j in range(k)] for i in range(k)])
    return out


# Stanley's count of the reduced words of w_0 checks the enumeration
@pytest.mark.parametrize("spec,w0_words", [
    ("A1", 1), ("A2", 2), ("A3", 16), ("A4", 768), ("B2", 2), ("B3", 42),
    ("C3", 42), ("D4", 2316), ("G2", 2),
])
def test_longest_word_is_the_smallest_reduced_word(spec, w0_words):
    d = build_root_datum(spec)
    for subset in _every_subset(d):
        words = _reduced_words_of_longest(d, subset)
        if subset == d.vertices:
            assert len(words) == w0_words
        assert longest_element(d, subset).letters == min(words)


def test_longest_element_lengths():
    d = build_root_datum([("A", 2)])
    assert len(longest_element(d, (1, 2))) == 3
    assert longest_element(d, (1, 2)).letters == (1, 2, 1)
    d1 = build_root_datum([("A", 1)])
    assert longest_element(d1, (1,)).letters == (1,)
    d3 = build_root_datum([("A", 3)])
    assert longest_element(d3, (2,)).letters == (2,)


def test_longest_element_negates_subset_roots():
    d = build_root_datum([("D", 4)])
    for subset in [(1, 2), (2, 3, 4), d.vertices]:
        w = longest_element(d, subset)
        pos = [d.weight(c) for c in orbit_positive_roots(d, subset)]
        neg = {(-b).coords for b in pos}
        assert {weyl_act(d, w, b).coords for b in pos} == neg


def test_reduced_word_inverts_length_many_roots():
    d = build_root_datum([("B", 3)])
    w = longest_element(d, d.vertices)
    pos = [d.weight(c) for c in orbit_positive_roots(d, d.vertices)]
    inverted = [b for b in pos
                if _is_negative(weyl_act(d, w, b), d)]
    assert len(inverted) == len(w)


def _is_negative(wt, d):
    from qsp.rootsys import alpha_coefficients
    coeffs = alpha_coefficients(wt, d.vertices)
    return coeffs is not None and all(c <= 0 for c in coeffs.values())


def test_beta_sequence_distinct_positive():
    d = build_root_datum([("A", 3)])
    w = longest_element(d, d.vertices)
    betas = beta_sequence(d, w)
    assert len({b.coords for b in betas}) == len(w)


def test_weyl_act_basics():
    d = build_root_datum([("A", 1)])
    a = d.simple_root(1)
    assert weyl_act(d, [1], a).coords == (-a).coords
    assert weyl_act(d, [], a).coords == a.coords
    d2 = build_root_datum([("A", 2)])
    w0 = longest_element(d2, d2.vertices)
    img = weyl_act(d2, w0, d2.fundamental_weight(1))
    assert img.coords == (-d2.fundamental_weight(2)).coords


def test_weyl_act_pairing_invariance():
    d = build_root_datum([("C", 3)])
    w = longest_element(d, (1, 2))
    mu = d.weight([1, 2, -1])
    nu = d.weight([0, 1, 3])
    assert weyl_act(d, w, mu).pairing(weyl_act(d, w, nu)) == mu.pairing(nu)


def test_rho_check_values():
    d = build_root_datum([("B", 3)])
    for r in d.vertices:
        rv = rho_check(d, (r,))
        assert d.simple_root(r).pairing(rv) == 1
    assert rho_check(d, ()).is_zero()
    d3 = build_root_datum([("A", 3)])
    rv = rho_check(d3, (1, 3))
    assert d3.simple_root(2).pairing(rv) == -1


def test_rho_subset_pairing_is_one_on_subset():
    d = build_root_datum([("F", 4)])
    rv = rho_check(d, (2, 3))
    for r in (2, 3):
        assert d.simple_root(r).pairing(rv) == 1


def test_qint_values():
    assert qint(1, F(1, 2)) == 1
    assert qint(3, F(1, 2)) == F(21, 4)
    assert float(qint(3, 0.5)) == pytest.approx(5.25)
    assert qint(0, F(1, 2)) == 0


def test_qbinom_classical_limit():
    # at q -> 1 the Gaussian binomial degenerates to the ordinary one
    q = F(1)
    assert qbinom(4, 2, q) == 6


def test_qfact_qbinom_exact_identity():
    q = F(3, 7)
    for m in range(6):
        for n in range(m + 1):
            assert qbinom(m, n, q) * qfact(n, q) * qfact(m - n, q) == qfact(m, q)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6),
       st.fractions(min_value=F(1, 10), max_value=F(9, 10)))
def test_qbinom_property(m_extra, n, q):
    m = n + m_extra
    if q in (0, 1, -1):
        return
    assert qbinom(m, n, q) * qfact(n, q) * qfact(m - n, q) == qfact(m, q)


def test_tau0():
    assert tau0(build_root_datum([("A", 1)])) == {1: 1}
    assert tau0(build_root_datum([("A", 2)])) == {1: 2, 2: 1}
    assert tau0(build_root_datum([("D", 4)])) == {1: 1, 2: 2, 3: 3, 4: 4}
    assert tau0(build_root_datum([("A", 3)])) == {1: 3, 2: 2, 3: 1}
    assert tau0(build_root_datum([("E", 6)])) == {1: 6, 2: 2, 3: 5, 4: 4, 5: 3, 6: 1}


def test_diagram_automorphisms():
    d = build_root_datum([("A", 3)])
    autos = diagram_automorphisms(d)
    assert len(autos) == 2
    d4 = build_root_datum([("D", 4)])
    assert len(diagram_automorphisms(d4)) == 6  # S3 on the outer vertices


def _automorphisms_by_permutation(datum):
    """Every vertex permutation filtered by the Cartan matrix: the search
    diagram_automorphisms replaced, kept as the reference."""
    verts = datum.vertices
    out = []
    for perm in itertools.permutations(verts):
        mapping = dict(zip(verts, perm))
        if all(datum.a(mapping[r], mapping[s]) == datum.a(r, s)
               for r in verts for s in verts):
            out.append(mapping)
    return out


@pytest.mark.parametrize("spec,count", [
    ("D4", 6), ("E6", 2), ("A1xA1xA1", 6), ("A4xA4", 8), ("B3xB3", 2),
    ("E8", 1), ("A5xA5", 8), ("D4xD4xA1", 72)])
def test_diagram_automorphism_counts(spec, count):
    # A5xA5 and D4xD4xA1 have rank above 8, where the permutation loop
    # once stopped after the identity
    assert len(diagram_automorphisms(build_root_datum(spec))) == count


def test_diagram_automorphisms_match_the_permutation_filter():
    for typ, (lo, hi) in _RANK_BOUNDS.items():
        for rank in range(lo, hi + 1):
            datum = build_root_datum([(typ, rank)])
            assert diagram_automorphisms(datum) \
                == _automorphisms_by_permutation(datum), (typ, rank)


def test_weyl_dimension():
    d = build_root_datum([("A", 1)])
    assert weyl_dimension(d, d.weight([1])) == 2
    assert weyl_dimension(d, d.weight([3])) == 4
    d2 = build_root_datum([("A", 2)])
    assert weyl_dimension(d2, d2.weight([1, 1])) == 8
    assert weyl_dimension(d2, d2.weight([1, 0])) == 3


def test_json_roundtrip():
    d = build_root_datum([("B", 2), ("A", 1)])
    d2 = root_datum_from_json(d.to_json())
    assert d2 == d
    # a "d" other than the symmetrizers of the components is refused: the
    # sub-datum C3 {1, 3} keeps the ambient d = (1, 2) on A1 x A1
    sub = restrict_datum(build_root_datum([("C", 3)]), (1, 3))[0]
    with pytest.raises(InputError, match="d must be"):
        root_datum_from_json(sub.to_json())
    mu = d.weight([F(1, 2), 2, -1])
    assert d.weight([F(s) for s in mu.to_json()]).coords == mu.coords


def _leibniz_det(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(n):
            term *= mat[i][perm[i]]
        total += term
    return total


def _int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


_square = st.integers(1, 4).flatmap(lambda n: _int_matrices(n, n))
_rect = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: _int_matrices(*shape))


@settings(deadline=None, max_examples=150)
@given(_square)
def test_gauss_jordan_det_inverse_solve(mat):
    n = len(mat)
    _, _, det = _gauss_jordan(mat)
    assert det == _leibniz_det(mat)
    if det == 0:
        return
    eye = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    red, pivots, _ = _gauss_jordan([row + e for row, e in zip(mat, eye)], n)
    assert pivots == list(range(n))
    inv = [row[n:] for row in red]
    prod = [[sum(mat[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == eye
    want = [Fraction(i + 1, 2) for i in range(n)]
    rhs = [sum(a * x for a, x in zip(row, want)) for row in mat]
    red, _, _ = _gauss_jordan([row + [b] for row, b in zip(mat, rhs)], n)
    assert [row[-1] for row in red] == want


@settings(deadline=None, max_examples=150)
@given(_rect)
def test_nullspace_frac_dimension_and_kernel(mat):
    cols = len(mat[0])
    rank = len(_gauss_jordan(mat)[1])
    basis = nullspace_frac(mat)
    assert len(basis) == cols - rank
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in mat)
    if basis:
        assert len(_gauss_jordan(basis)[1]) == len(basis)
