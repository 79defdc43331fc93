"""Integer weight arithmetic against the Fraction references it replaced.

The invariant form is integer numerators over one Gram denominator,
``alpha_coefficients`` reads a cached inverse sub-Cartan matrix, and the
R-matrix Cartan factor is one integer matrix product.  The references
below are the Fraction double sum over a Fraction Gram matrix and the
per-call Gauss-Jordan solve; every value must agree exactly, and the
Cartan factor byte for byte.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from qsp.rmatrix import _cartan_factor, _pairings
from qsp.rootsys import (
    _RANK_BOUNDS,
    _gauss_jordan,
    alpha_coefficients,
    build_root_datum,
    longest_element,
    positive_roots,
    rho_check,
)
from qsp.uqrep import QParams, WeightModule, build_irrep

ALL_TYPES = [(typ, rank) for typ, (lo, hi) in _RANK_BOUNDS.items()
             for rank in range(lo, hi + 1)]
SMALL_TYPES = [(typ, rank) for typ, rank in ALL_TYPES if rank <= 4]


def fraction_gram(datum):
    """(varpi_r, varpi_s) = D B^{-1} D with B = diag(d) A, as Fractions."""
    n, d = datum.rank, datum.d
    aug = [[Fraction(d[i] * datum.cartan[i][j]) for j in range(n)]
           + [Fraction(i == j) for j in range(n)] for i in range(n)]
    red, _, _ = _gauss_jordan(aug, n)
    return [[d[i] * red[i][n + j] * d[j] for j in range(n)] for i in range(n)]


def reference_pairing(gram, mu, nu):
    """The Fraction double sum over the Gram matrix."""
    n = len(gram)
    return sum(mu.coords[i] * gram[i][j] * nu.coords[j]
               for i in range(n) for j in range(n)
               if mu.coords[i] and nu.coords[j])


def reference_alpha_coefficients(weight, subset):
    """A new Gauss-Jordan solve of the sub-Cartan system per call."""
    datum = weight.datum
    sub = list(subset)
    aug = [[datum.a(s, t) for t in sub] + [weight.coords[s - 1]] for s in sub]
    coeffs = [row[-1] for row in _gauss_jordan(aug, len(sub))[0]]
    for s in datum.vertices:
        if s in subset:
            continue
        if sum(c * datum.a(s, t) for c, t in zip(coeffs, sub)) \
                != weight.coords[s - 1]:
            return None
    return dict(zip(sub, coeffs))


def _sample_weights(datum):
    """Integral and non-integral weights: fundamentals, simple coroots,
    rho, the coroot of the highest root, two rho_check and a weight with
    mixed denominators."""
    verts = datum.vertices
    out = [datum.fundamental_weight(r) for r in verts]
    out += [datum.simple_root(r).coroot() for r in verts]
    out += [datum.rho(), datum.zero_weight(),
            positive_roots(datum, verts)[-1].coroot(),
            rho_check(datum, verts), rho_check(datum, verts[:2]),
            datum.weight([Fraction((-1) ** r, r + 1) for r in verts])]
    return out


@pytest.mark.parametrize("typ,rank", ALL_TYPES)
def test_pairing_matches_the_fraction_double_sum(typ, rank):
    datum = build_root_datum([(typ, rank)])
    gram = fraction_gram(datum)
    assert [[Fraction(x, datum.gram_den) for x in row]
            for row in datum.gram_num] == gram
    weights = _sample_weights(datum)
    assert any(not w.is_integral() for w in weights)
    for mu, nu in itertools.product(weights, repeat=2):
        got = mu.pairing(nu)
        assert type(got) is Fraction
        assert got == reference_pairing(gram, mu, nu)


def test_pairing_on_a_product_datum():
    datum = build_root_datum("B3xG2xA1")
    gram = fraction_gram(datum)
    weights = _sample_weights(datum)
    for mu, nu in itertools.product(weights, repeat=2):
        assert mu.pairing(nu) == reference_pairing(gram, mu, nu)


@pytest.mark.parametrize("typ,rank", SMALL_TYPES)
def test_alpha_coefficients_match_gauss_jordan_on_every_subset(typ, rank):
    datum = build_root_datum([(typ, rank)])
    roots = positive_roots(datum, datum.vertices)
    weights = [*roots, *(-1 * b for b in roots), *_sample_weights(datum)]
    found = {True: 0, False: 0}
    for k in range(rank + 1):
        for subset in itertools.combinations(datum.vertices, k):
            for w in weights:
                want = reference_alpha_coefficients(w, subset)
                got = alpha_coefficients(w, subset)
                assert got == want, (subset, w.coords)
                if got is not None:
                    assert list(got) == list(want)
                    assert all(type(c) is Fraction for c in got.values())
                found[got is None] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("typ,highest", [
    ("G2", ([1, 0], [1, 0])), ("B3", ([1, 0, 0], [0, 0, 1])),
])
def test_cartan_factor_is_the_double_of_each_exact_pairing(typ, highest):
    datum = build_root_datum(typ)
    gram = fraction_gram(datum)
    for q in (0.6, 0.95):
        qp = QParams(q)
        m, n = (build_irrep(datum, datum.weight(h), qp) for h in highest)
        pair = np.array([[float(reference_pairing(gram, wi, wj))
                          for wj in n.weights] for wi in m.weights])
        want = (q ** -pair).reshape(-1)
        assert _cartan_factor(m, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("typ,highest", [
    ("A1", ([1], [2])), ("A2", ([1, 0], [1, 1])), ("B2", ([0, 1], [1, 0])),
    ("C2", ([1, 0], [0, 1])), ("A3", ([1, 0, 0], [0, 1, 0])),
    ("G2", ([1, 0], [0, 1])),
])
def test_k_diag_is_the_double_of_each_exact_pairing(typ, highest):
    datum = build_root_datum(typ)
    gram = fraction_gram(datum)
    omegas = _sample_weights(datum)
    omegas += [-1 * w for w in omegas]
    assert any(c < 0 for w in omegas for c in w.coords)
    for q in (0.6, 0.95):
        qp = QParams(q)
        for h in highest:
            m = build_irrep(datum, datum.weight(h), qp)
            for omega in omegas:
                want = np.array([qp.qpow(reference_pairing(gram, omega, w))
                                 for w in m.weights])
                assert m.k_diag(omega).tobytes() == want.tobytes(), \
                    (h, omega.coords)


def test_pairings_stay_exact_past_double_precision():
    # numerators and denominators far beyond 2^53: each entry is still the
    # correctly rounded double of the exact pairing
    datum = build_root_datum("B2")
    gram = fraction_gram(datum)
    zero = np.zeros((1, 1), dtype=complex)
    weights = [datum.weight([Fraction(2 ** 61 + 1, 3), Fraction(-5, 2 ** 70 + 7)]),
               datum.weight([Fraction(3 ** 40, 2 ** 55 + 1), 2 ** 64 + 3]),
               datum.weight([1, -2])]
    big = WeightModule(datum, QParams(0.7), weights,
                       {1: zero, 2: zero}, {1: zero, 2: zero})
    want = [[float(reference_pairing(gram, mu, nu)) for nu in weights]
            for mu in weights]
    assert _pairings(big, big).tolist() == want


def test_cached_results_are_immutable_and_per_subset():
    datum = build_root_datum("C3")
    assert datum.cache == {}
    fresh = build_root_datum("C3")
    w = datum.simple_root(1) + datum.simple_root(2)
    coeffs = alpha_coefficients(w, (1, 2))
    coeffs[1] = Fraction(99)
    coeffs.clear()
    assert alpha_coefficients(w, (1, 2)) == {1: 1, 2: 1}

    roots = positive_roots(datum, (1, 2))
    assert isinstance(roots, tuple)
    with pytest.raises(TypeError):
        roots[0] = roots[1]
    assert positive_roots(datum, (2, 1)) is roots
    assert [r.coords for r in roots] == [
        r.coords for r in positive_roots(fresh, (1, 2))]

    word = longest_element(datum)
    with pytest.raises(dataclasses.FrozenInstanceError):
        word.letters = ()
    assert longest_element(datum, datum.vertices) is word
    assert longest_element(datum).letters == longest_element(fresh).letters

    # one entry per kind and subset; the cache takes no part in equality
    assert set(datum.cache) == {
        ("sub_cartan_inv", (1, 2)), ("positive_roots", (1, 2)),
        ("longest", (1, 2)), ("longest", (1, 2, 3))}
    assert datum == fresh and hash(datum) == hash(fresh)
    assert "cache" not in repr(datum)
