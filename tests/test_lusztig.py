import numpy as np
import pytest

from qsp.algebra import MAX_TERMS, AlgebraElement
from qsp.diagrams import enumerate_admissible, satake
from qsp.errors import InputError, ResourceError
from qsp.lusztig import (
    BraidContext,
    braid_on_algebra,
    braid_on_module,
    braid_word_on_algebra,
    braid_word_on_module,
    e_d_constants,
    verify_appB,
)
from qsp.rootsys import build_root_datum, restrict_datum
from qsp.uqrep import QParams, build_irrep

from formal_algebra import a_plus, act, adjoint_action, z_elements
from module_helpers import trivial_module

A1 = build_root_datum([("A", 1)])
A2 = build_root_datum([("A", 2)])
A3 = build_root_datum([("A", 3)])
QP = QParams(0.7)


def test_restrict_datum_cached_per_subset():
    C3 = build_root_datum("C3")
    sub, vmap, scale = restrict_datum(C3, (3, 1))
    again, vmap2, _ = restrict_datum(C3, (1, 3, 1))
    assert again is sub and vmap2 == vmap and vmap2 is not vmap
    vmap[1] = 99
    vmap.clear()
    assert restrict_datum(C3, (1, 3)) == (sub, vmap2, scale)
    assert restrict_datum(build_root_datum("C3"), (1, 3))[0] is not sub
    assert restrict_datum(C3, (1, 2))[0] is not sub


def test_restrict_datum_identification():
    sub, vmap, scale = restrict_datum(A3, (1, 3))
    assert sub.components == (("A", 1), ("A", 1))
    assert sorted(vmap.values()) == [1, 3]
    assert scale == 1
    B3 = build_root_datum([("B", 3)])
    sub, vmap, scale = restrict_datum(B3, (1, 2))
    assert sub.components == (("A", 2),)
    assert scale == 2  # long-root A2 inside B3
    # (type, X) -> (components, symmetrizers, scale); C3 {1, 3} and
    # C5 {1, 3, 5} mix a short and a long A1
    cases = {
        ("B3", (1, 2)): ((("A", 2),), (1, 1), 2),
        ("B3", (3,)): ((("A", 1),), (1,), 1),
        ("C3", (3,)): ((("A", 1),), (1,), 2),
        ("C3", (1, 2)): ((("A", 2),), (1, 1), 1),
        ("B2", (1,)): ((("A", 1),), (1,), 2),
        ("C2", (2,)): ((("A", 1),), (1,), 2),
        ("A3", (1, 3)): ((("A", 1), ("A", 1)), (1, 1), 1),
        ("D4", (1, 3, 4)): ((("A", 1),) * 3, (1, 1, 1), 1),
        ("B3", (2, 3)): ((("B", 2),), (2, 1), 1),
        ("C3", (1, 3)): ((("A", 1), ("A", 1)), (1, 2), 1),
        ("C5", (1, 3, 5)): ((("A", 1),) * 3, (1, 1, 2), 1),
    }
    for (typ, X), (comps, d, want_scale) in cases.items():
        datum = build_root_datum(typ)
        sub, vmap, scale = restrict_datum(datum, X)
        assert (sub.components, sub.d, scale) == (comps, d, want_scale)
        assert sorted(vmap.values()) == list(X)
        # the ambient form on the subsystem is scale times the sub form
        for i in sub.vertices:
            for j in sub.vertices:
                ambient = datum.simple_root(vmap[i]).pairing(
                    datum.simple_root(vmap[j]))
                assert ambient == scale * sub.simple_root(i).pairing(
                    sub.simple_root(j)), (typ, X, i, j)


def test_braid_on_algebra_cartan_and_diagonal():
    k = AlgebraElement.k(A2, A2.fundamental_weight(1))
    img = braid_on_algebra(A2, QP, 1, k)
    expect = AlgebraElement.k(A2, A2.fundamental_weight(1).reflect(1))
    assert img.terms == expect.terms

    e1 = AlgebraElement.e(A2, 1)
    img = braid_on_algebra(A2, QP, 1, e1)
    v = build_irrep(A2, A2.weight([1, 0]), QP)
    want = -act(v, AlgebraElement.f(A2, 1) * AlgebraElement.k_alpha(A2, 1))
    np.testing.assert_allclose(act(v, img), want, atol=1e-12)


def test_braid_orthogonal_colors_fixed():
    # A1 x A1 inside A3: T_1(E_3) = E_3
    e3 = AlgebraElement.e(A3, 3)
    img = braid_on_algebra(A3, QP, 1, e3)
    assert img.terms == e3.terms


def test_braid_on_module_trivial():
    t = trivial_module(A2, QP)
    np.testing.assert_allclose(braid_on_module(t, 1), np.eye(1), atol=1e-14)


def test_braid_module_realizes_algebra_automorphism():
    # ||T_r pi(x) T_r^{-1} - pi(T_r x)|| < eps on generators
    for datum, wt in [(A1, [1]), (A1, [2]), (A2, [1, 0]), (A2, [1, 1])]:
        m = build_irrep(datum, datum.weight(wt), QP)
        for r in datum.vertices:
            t = braid_on_module(m, r)
            tinv = np.linalg.inv(t)
            gens = [AlgebraElement.e(datum, s) for s in datum.vertices]
            gens += [AlgebraElement.f(datum, s) for s in datum.vertices]
            gens += [AlgebraElement.k(datum, datum.fundamental_weight(s))
                     for s in datum.vertices]
            for x in gens:
                lhs = t @ act(m, x) @ tinv
                rhs = act(m, braid_on_algebra(datum, QP, r, x))
                assert np.linalg.norm(lhs - rhs) < 1e-9 * max(
                    1.0, np.linalg.norm(rhs))


def test_braid_on_module_su2_antidiagonal():
    v = build_irrep(A1, A1.weight([1]), QP)
    t = braid_on_module(v, 1)
    assert abs(t[0, 0]) < 1e-12 and abs(t[1, 1]) < 1e-12
    assert abs(t[0, 1]) > 0.1 and abs(t[1, 0]) > 0.1


def test_braid_word_reduced_word_independence():
    # two reduced words of w_0 in A2 give the same module operator
    m = build_irrep(A2, A2.weight([1, 1]), QP)
    t121 = braid_word_on_module(m, (1, 2, 1))
    t212 = braid_word_on_module(m, (2, 1, 2))
    assert np.linalg.norm(t121 - t212) < 1e-9

    x = AlgebraElement.e(A2, 1)
    a = braid_word_on_algebra(A2, QP, (1, 2, 1), x)
    b = braid_word_on_algebra(A2, QP, (2, 1, 2), x)
    np.testing.assert_allclose(act(m, a), act(m, b), atol=1e-10)


def _ctx(datum, X, tau=None, qp=QP):
    return BraidContext(satake(datum, X, tau), qp)


def test_z_elements_and_errors():
    ctx = _ctx(A3, (2,), [[1, 3]])
    varpi = A3.weight([0, 1, 0])
    zm, zp = z_elements(ctx, varpi)
    v = build_irrep(A3, varpi, QP)
    assert np.linalg.norm(act(v, zm)) > 0
    with pytest.raises(InputError):
        z_elements(ctx, A3.weight([0, -1, 0]))


def test_e_d_constants_trivial_and_qfact():
    ctx = _ctx(A3, (2,), [[1, 3]])
    e, d = e_d_constants(ctx.word, ctx.qp, A3.weight([0, 0, 0]))
    assert e == 1 and d == 1
    # exponent 2 on a single A1-string: ([2]_q!)^2 = (q + 1/q)^2
    e, _ = e_d_constants(ctx.word, ctx.qp, A3.weight([0, 2, 0]))
    q = QP.q
    assert e == pytest.approx((q + 1 / q) ** 2, rel=1e-12)


def test_e_matches_module_scalar():
    # act Z^+ Z^- on the highest weight vector of the X-subsystem irrep
    ctx = _ctx(A3, (2,), [[1, 3]])
    varpi = A3.weight([0, 2, 0])
    zm, zp = z_elements(ctx, varpi)
    v = build_irrep(A3, varpi, QP)
    xi = np.zeros(v.dim, dtype=complex)
    xi[0] = 1.0
    scal = (act(v, zp) @ (act(v, zm) @ xi))[0]
    e, _ = e_d_constants(ctx.word, ctx.qp, varpi)
    assert scal == pytest.approx(e, rel=1e-9)


def test_a_plus_values_and_symmetry():
    # X empty: empty product
    ctx0 = _ctx(A2, (), [[1, 2]])
    assert a_plus(ctx0, 1) == pytest.approx(1.0)
    # A3, X = {2}: d = ([1]!)^2 = 1
    ctx = _ctx(A3, (2,), [[1, 3]])
    assert a_plus(ctx, 1) == pytest.approx(1.0)
    assert a_plus(ctx, 1) == pytest.approx(a_plus(ctx, 3))
    with pytest.raises(InputError):
        a_plus(ctx, 2)


def test_a_plus_against_definition():
    # T_{w_X}(E_r) = a_r^+ Ad_q(Z_r^+)(E_r) on a faithful module
    ctx = _ctx(A3, (2,), [[1, 3]])
    datum = A3
    r = 1
    lhs_alg = braid_word_on_algebra(datum, QP, ctx.word.letters,
                                    AlgebraElement.e(datum, r))
    w = ctx.diagram
    varpi_dom = _restricted_dominant(ctx, r)
    zplus = _z_plus_for(ctx, varpi_dom)
    rhs_alg = adjoint_action(zplus, AlgebraElement.e(datum, r))
    for wt in ([1, 0, 0], [0, 1, 0]):
        m = build_irrep(datum, datum.weight(wt), QP)
        lhs = act(m, lhs_alg)
        rhs = a_plus(ctx, r) * act(m, rhs_alg)
        assert np.linalg.norm(lhs - rhs) < 1e-8 * max(np.linalg.norm(lhs), 1.0)
    del w


def _restricted_dominant(ctx, r):
    from qsp.rootsys import weyl_act
    return weyl_act(ctx.datum, ctx.word, ctx.datum.simple_root(r))


def _z_plus_for(ctx, varpi):
    _, zp = z_elements(ctx, varpi)
    return zp


def test_verify_appB_su4_cases():
    for X, tau in [((2,), [[1, 3]]), ((1, 3), None)]:
        ctx = _ctx(A3, X, tau)
        sub, _, _ = restrict_datum(A3, X)
        coords = [1] * sub.rank
        res = verify_appB(ctx, coords)
        for key, val in res.items():
            assert val < 1e-9, (X, key, val)
        res2 = verify_appB(ctx, [2] * sub.rank)
        for key, val in res2.items():
            assert val < 1e-9, (X, key, val)


def test_verify_appB_a2_subsystem():
    # a genuinely nonabelian X: A2 inside A3 is not admissible with tau=id,
    # so exercise the identities through a direct sub-context on B3, X={1,2}
    B3 = build_root_datum([("B", 3)])
    diag = satake(B3, (2, 3))  # BI: so(1,6)-type, X = {2,3} of type B2
    ctx = BraidContext(diag, QP)
    sub, _, scale = restrict_datum(B3, (2, 3))
    assert sub.components == (("B", 2),)
    res = verify_appB(ctx, [1, 1])
    for key, val in res.items():
        assert val < 1e-8, (key, val)


# (type, X) whose X-subsystem irreps pass the dimension cap: (type, X) ->
# the levels that raise ResourceError
_APPB_AT_THE_CAP = {("B4", (2, 3, 4)): (1, 2), ("D4", (1, 2, 3)): (2,),
                    ("D4", (1, 2, 4)): (2,), ("D4", (2, 3, 4)): (2,)}


def test_verify_appB_on_every_diagram_to_rank_four():
    # every admissible diagram with nonempty X over A1-A4, B2-B4, C2-C4 and
    # D4, at levels 1 and 2; C3 {1, 3} mixes a short and a long A1
    qp = QParams(0.7)
    seen, capped = 0, set()
    for typ in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                "D4"):
        datum = build_root_datum(typ)
        for diag in enumerate_admissible(datum):
            if not diag.X:
                continue
            seen += 1
            rank = restrict_datum(datum, diag.X)[0].rank
            for level in (1, 2):
                try:
                    res = verify_appB(BraidContext(diag, qp), [level] * rank)
                except ResourceError as exc:
                    assert "exceeds cap" in str(exc), (typ, diag.X, exc)
                    capped.add((typ, diag.X, level))
                    continue
                for key, val in res.items():
                    assert val <= 1e-8, (typ, diag.X, level, key, val)
    assert seen == 19
    assert capped == {(typ, X, level) for (typ, X), levels
                      in _APPB_AT_THE_CAP.items() for level in levels}


def test_algebra_elements_stop_at_the_term_cap():
    datum = build_root_datum([("A", 1)])
    e = AlgebraElement.e(datum, 1)
    # MAX_TERMS distinct one-letter words K_{k omega}
    x = AlgebraElement(datum, {(("K", (k,)),): 1.0
                               for k in range(1, MAX_TERMS + 1)})
    assert len((x * AlgebraElement.one(datum)).terms) == MAX_TERMS
    with pytest.raises(ResourceError):
        x * (e + 1)
    # every word's image is small; their sum passes the cap
    with pytest.raises(ResourceError):
        x.map_symbols(lambda sym: AlgebraElement(datum, {(sym,): 1.0}) + e)
