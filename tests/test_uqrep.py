import numpy as np
import pytest

from qsp.algebra import AlgebraElement
from qsp.errors import InputError, NumericalDegeneracyError, ResourceError
from qsp.rootsys import build_root_datum, parse_type_string, weyl_dimension
from qsp.uqrep import (
    QParams,
    build_irrep,
    casimir_scalar,
    decompose,
    intertwiners,
    kernel,
    kron,
    tensor,
    twist_module,
)

from formal_algebra import act, act_tensor, antipode, coproduct, star
from module_helpers import (reference_grow_embedding, relations_residual,
                            star_residual, trivial_module)

A1 = build_root_datum([("A", 1)])
A2 = build_root_datum([("A", 2)])
QP = QParams(0.7)


def test_qparams_validation():
    with pytest.raises(InputError):
        QParams(1.2)
    with pytest.raises(InputError):
        QParams(-0.3)
    assert abs(np.exp(1j * np.pi * QP.hbar) - 0.7) < 1e-15
    assert QP.hbar.imag > 0


def test_su2_fundamental_golden():
    v = build_irrep(A1, A1.weight([1]), QP)
    q = 0.7
    assert v.dim == 2
    np.testing.assert_allclose(v.k_matrix(A1.simple_root(1)),
                               np.diag([q, 1 / q]), atol=1e-14)
    np.testing.assert_allclose(v.E[1], [[0, q ** 0.5], [0, 0]], atol=1e-14)
    np.testing.assert_allclose(v.F[1], [[0, 0], [q ** -0.5, 0]], atol=1e-14)


def test_trivial_module():
    t = trivial_module(A1, QP)
    assert t.dim == 1
    assert np.all(t.E[1] == 0)


def test_dimensions_match_weyl_formula():
    for datum, coords in [(A1, [1]), (A1, [2]), (A1, [3]), (A1, [5]),
                          (A2, [1, 0]), (A2, [0, 1]), (A2, [1, 1]), (A2, [2, 0])]:
        w = datum.weight(coords)
        m = build_irrep(datum, w, QParams(0.6))
        assert m.dim == weyl_dimension(datum, w)


def test_a2_adjoint_dim8():
    m = build_irrep(A2, A2.weight([1, 1]), QP)
    assert m.dim == 8


def test_relations_and_star_residuals():
    for datum, coords in [(A1, [3]), (A2, [1, 1]), (A2, [2, 0])]:
        m = build_irrep(datum, datum.weight(coords), QP)
        assert star_residual(m) < 1e-9
        for key, val in relations_residual(m).items():
            assert val < 1e-9, (coords, key, val)


def test_b2_module_relations():
    B2 = build_root_datum([("B", 2)])
    m = build_irrep(B2, B2.weight([0, 1]), QParams(0.55))
    assert m.dim == weyl_dimension(B2, B2.weight([0, 1]))
    assert star_residual(m) < 1e-9
    for key, val in relations_residual(m).items():
        assert val < 1e-9, (key, val)


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("typ, coords", [
    ("A2", [2, 2]), ("C2", [2, 1]), ("G2", [1, 1]), ("A3", [1, 0, 1]),
    ("D4", [1, 1, 0, 0])])
def test_gram_path_at_weight_multiplicity_three_to_six(typ, coords, q):
    # weight spaces of multiplicity 3-6: Gram matrices over spanning lists
    # with several F_s E_r e_k per row and radicals inside one weight space
    datum = build_root_datum(parse_type_string(typ))
    w = datum.weight(coords)
    m = build_irrep(datum, w, QParams(q))
    assert m.dim == weyl_dimension(datum, w)
    assert max(relations_residual(m).values()) < 1e-9
    assert star_residual(m) < 1e-9


@pytest.mark.parametrize("typ, coords", [("B2", [3, 3]), ("A2", [5, 5])])
def test_overfull_build_is_a_rank_decision(typ, coords):
    # Weyl dimensions 256 and 216 are under DIM_CAP; at q = 0.7 the radical
    # cut keeps too many vectors, and the build stops once it passes the
    # Weyl dimension, with the norms either side of the cut
    datum = build_root_datum(parse_type_string(typ))
    with pytest.raises(NumericalDegeneracyError,
                       match="passes Weyl dimension") as info:
        build_irrep(datum, datum.weight(coords), QParams(0.7))
    diag = info.value.diagnostics
    assert diag["max_dropped"] <= 1e-6 < diag["min_kept"]


def test_build_missing_the_ef_relation_is_a_degeneracy():
    # at q = 0.2 the 64-dimensional A2 [3, 3] keeps the Weyl dimension but
    # misses [E_r, F_r] = (K_r - K_r^-1)/(q_r - q_r^-1) by ~5e-8 relative;
    # at q = 0.3 it meets the relation within 1e-9
    with pytest.raises(NumericalDegeneracyError,
                       match=r"misses \[E_r, F_r\]") as info:
        build_irrep(A2, A2.weight([3, 3]), QParams(0.2))
    assert info.value.diagnostics["ef_residual"] > 1e-9
    m = build_irrep(A2, A2.weight([3, 3]), QParams(0.3))
    assert m.dim == 64
    assert max(relations_residual(m)[f"EF[{r}]"] for r in (1, 2)) <= 1e-9


def test_identity_twist_is_the_module_itself():
    for datum, coords in ((A1, [2]), (A2, [1, 0])):
        m = build_irrep(datum, datum.weight(coords), QParams(0.65))
        keys = list(m.cache)
        assert twist_module(m, {r: r for r in datum.vertices}) is m
        assert list(m.cache) == keys
    flipped = twist_module(m, {1: 2, 2: 1})
    assert flipped is not m and flipped is twist_module(m, {1: 2, 2: 1})


def test_highest_weight_k_eigenvalue():
    m = build_irrep(A2, A2.weight([1, 0]), QP)
    chi = A2.weight([2, 1])
    k = m.k_matrix(chi)
    assert abs(k[0, 0] - QP.qpow(chi.pairing(m.highest))) < 1e-14


def test_dim_cap():
    with pytest.raises(ResourceError):
        build_irrep(A1, A1.weight([500]), QParams(0.7))


def test_products_past_the_product_cap_are_refused(monkeypatch):
    # V1 ox V1 has dimension 9: under a cap of 8 each product is refused
    # before it is formed
    import qsp.uqrep
    from qsp.rmatrix import rmat
    v1 = build_irrep(A1, A1.weight([2]), QParams(0.45))
    monkeypatch.setattr(qsp.uqrep, "PRODUCT_DIM_CAP", 8)
    for call in (lambda: tensor(v1, v1), lambda: rmat(v1, v1),
                 lambda: intertwiners([(v1.E[1], v1.E[1])], 1e-9)):
        with pytest.raises(ResourceError, match="dimension 9 exceeds cap 8"):
            call()
    assert not {("tensor", v1), ("blocks", v1), ("rmat", v1)} & set(v1.cache)


def test_tensor_with_trivial_is_identity():
    v = build_irrep(A1, A1.weight([1]), QP)
    t = trivial_module(A1, QP)
    vt = tensor(v, t)
    np.testing.assert_allclose(vt.E[1], v.E[1], atol=1e-14)
    np.testing.assert_allclose(vt.F[1], v.F[1], atol=1e-14)


def test_tensor_k_spectrum():
    v = build_irrep(A1, A1.weight([1]), QP)
    vv = tensor(v, v)
    spec = sorted(np.diag(vv.k_matrix(A1.simple_root(1))).real)
    q = 0.7
    assert np.allclose(spec, sorted([q ** 2, 1, 1, q ** -2]))


def test_tensor_weights_add():
    v = build_irrep(A2, A2.weight([1, 0]), QP)
    w = build_irrep(A2, A2.weight([0, 1]), QP)
    vw = tensor(v, w)
    assert vw.weights[0].coords == (v.weights[0] + w.weights[0]).coords


def test_build_irrep_memoised_read_only():
    v = build_irrep(A2, A2.weight([1, 0]), QP)
    assert build_irrep(A2, A2.weight([1, 0]), QParams(0.7)) is v
    assert build_irrep(A2, A2.weight([1, 0]), QParams(0.6)) is not v
    with pytest.raises(ValueError):
        v.E[1][0, 0] = 1.0
    with pytest.raises(ValueError):
        v.F[2][0, 0] = 1.0


def test_decompose_clebsch_gordan():
    # classical Clebsch-Gordan oracle: 1/2 ox 1/2 = 1 + 0
    v = build_irrep(A1, A1.weight([1]), QP)
    vv = tensor(v, v)
    dec = decompose(vv)
    got = sorted((tuple(w.coords), mult) for w, mult, _ in dec)
    assert got == [((0,), 1), ((2,), 1)]


def test_decompose_su2_higher():
    # 1 ox 1/2 = 3/2 + 1/2
    v1 = build_irrep(A1, A1.weight([2]), QP)
    v = build_irrep(A1, A1.weight([1]), QP)
    dec = decompose(tensor(v1, v))
    got = sorted((tuple(w.coords), mult) for w, mult, _ in dec)
    assert got == [((1,), 1), ((3,), 1)]


def test_decompose_a2_fund_antifund():
    # character arithmetic oracle: V_{w1} ox V_{w2} = V_{w1+w2} + V_0
    v = build_irrep(A2, A2.weight([1, 0]), QP)
    w = build_irrep(A2, A2.weight([0, 1]), QP)
    dec = decompose(tensor(v, w))
    got = sorted((tuple(map(int, wt.coords)), mult) for wt, mult, _ in dec)
    assert got == [((0, 0), 1), ((1, 1), 1)]


def test_decompose_trivial_squared():
    t = trivial_module(A1, QP)
    dec = decompose(tensor(t, t))
    assert len(dec) == 1 and dec[0][0].is_zero()


def test_decompose_embeddings_unitary_and_intertwining():
    v = build_irrep(A1, A1.weight([1]), QP)
    vv = tensor(v, v)
    dec = decompose(vv)
    blocks = [emb for _, _, embs in dec for emb in embs]
    u = np.hstack(blocks)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(vv.dim), atol=1e-9)
    # intertwining: F_vv emb = emb F_model
    for w, _, embs in dec:
        model = build_irrep(A1, w, QP)
        for emb in embs:
            assert np.linalg.norm(vv.F[1] @ emb - emb @ model.F[1]) < 1e-9
            assert np.linalg.norm(vv.E[1] @ emb - emb @ model.E[1]) < 1e-9


def test_decompose_with_multiplicity():
    # (1/2 ox 1/2) ox 1/2 = 3/2 + 1/2 + 1/2
    v = build_irrep(A1, A1.weight([1]), QP)
    m = tensor(tensor(v, v), v)
    dec = decompose(m)
    got = sorted((tuple(w.coords), mult) for w, mult, _ in dec)
    assert got == [((1,), 2), ((3,), 1)]
    u = np.hstack([emb for _, _, embs in dec for emb in embs])
    np.testing.assert_allclose(u.conj().T @ u, np.eye(m.dim), atol=1e-8)


def _kron_factors():
    """(a, b) pairs for the Kronecker kernel: real and complex identities,
    the octagon lift's column vector, 1 x 1 factors, negative entries (whose
    products with zeros are signed zeros), non-contiguous transposes and
    vectors."""
    rng = np.random.default_rng(5)
    c = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    neg = -np.abs(rng.normal(size=(2, 3)))
    col = (rng.normal(size=4) - 1j * rng.normal(size=4)).reshape(-1, 1)
    return [(np.eye(3), c), (c, np.eye(2)), (np.eye(2), np.eye(4) * 1j),
            (col, np.eye(3)), (np.ones((1, 1)), c), (c, np.full((1, 1), -2j)),
            (np.array([[-0.0]]), np.array([[1.5]])), (neg, np.eye(2)),
            (np.eye(3), neg), (neg, -np.eye(2) * 1j), (c.T, neg.T),
            (np.eye(4), c.T), (rng.normal(size=5), -rng.normal(size=3)),
            (np.array([-1.0, 0.0]), np.array([0.5, -2.0, 0.0]))]


def test_kron_is_np_kron_bit_for_bit():
    for a, b in _kron_factors():
        got, want = kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _embedding_cases():
    """(module, q) for A1 V1/2 ox V_j, twice-spins 1-8 at q = 0.6 and 0.9,
    the A2 products [1,0] ox [0,1] and [1,1] ox [1,0], and (V1/2)^{ox 3}."""
    for q in (0.6, 0.9):
        qp = QParams(q)
        half = build_irrep(A1, A1.weight([1]), qp)
        for j in range(1, 9):
            yield tensor(half, build_irrep(A1, A1.weight([j]), qp)), qp
    pairs = [((1, 0), (0, 1)), ((1, 1), (1, 0))]
    for a, b in pairs:
        yield tensor(build_irrep(A2, A2.weight(list(a)), QP),
                     build_irrep(A2, A2.weight(list(b)), QP)), QP
    v = build_irrep(A1, A1.weight([1]), QP)
    yield tensor(tensor(v, v), v), QP


def test_embeddings_match_the_per_call_transport_bit_for_bit():
    for module, qp in _embedding_cases():
        for varpi, _, embs in decompose(module):
            for emb in embs:
                want = reference_grow_embedding(module, varpi, emb[:, 0], qp)
                assert emb.tobytes() == want.tobytes(), (module.label, varpi)


def test_transport_maps_are_kept_per_model_irrep(monkeypatch):
    qp = QParams(0.615)
    v, w = (build_irrep(A1, A1.weight([j]), qp) for j in (1, 2))
    decompose(tensor(v, w))
    model = build_irrep(A1, A1.weight([3]), qp)
    maps = model.cache[("transport",)]
    assert all(not pinv.flags.writeable for _, _, pinv in maps)
    calls = []
    real = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    # V1 ox V1/2 holds the same model irreps V3/2 and V1/2
    dec = decompose(tensor(w, v))
    assert [tuple(wt.coords) for wt, _, _ in dec] == [(3,), (1,)]
    assert calls == []
    assert model.cache[("transport",)] is maps


def test_casimir_values():
    from fractions import Fraction
    assert casimir_scalar(A1, A1.weight([1])) == Fraction(3, 2)
    assert casimir_scalar(A1, A1.weight([0])) == 0
    assert casimir_scalar(A1, A1.weight([2])) == 4


def test_act_algebra_element():
    v = build_irrep(A1, A1.weight([1]), QP)
    e = AlgebraElement.e(A1, 1)
    f = AlgebraElement.f(A1, 1)
    k = AlgebraElement.k_alpha(A1, 1)
    comm = e * f - f * e
    q = 0.7
    rhs = (v.k_matrix(A1.simple_root(1)) -
           v.k_matrix(-1 * A1.simple_root(1))) / (q - 1 / q)
    np.testing.assert_allclose(act(v, comm), rhs, atol=1e-12)
    np.testing.assert_allclose(act(v, k * e), q ** 2 * act(v, e * k), atol=1e-12)


def test_act_wrong_datum():
    v = build_irrep(A1, A1.weight([1]), QP)
    with pytest.raises(InputError):
        act(v, AlgebraElement.e(A2, 1))


def test_coproduct_evaluation_matches_tensor():
    v = build_irrep(A1, A1.weight([1]), QP)
    w = build_irrep(A1, A1.weight([2]), QP)
    vw = tensor(v, w)
    for gen in [AlgebraElement.e(A1, 1), AlgebraElement.f(A1, 1),
                AlgebraElement.k_alpha(A1, 1)]:
        lhs = act_tensor(v, w, coproduct(gen))
        rhs = act(vw, gen)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_antipode_and_star_axioms():
    v = build_irrep(A1, A1.weight([1]), QP)
    e = AlgebraElement.e(A1, 1)
    # m (S ox id) Delta = eta eps: on E it gives 0
    total = np.zeros((2, 2), dtype=complex)
    for (w1, w2), c in coproduct(e).terms.items():
        x1 = antipode(AlgebraElement(A1, {w1: c}))
        x2 = AlgebraElement(A1, {w2: 1.0})
        total += act(v, x1 * x2)
    np.testing.assert_allclose(total, 0, atol=1e-12)
    # star on modules: act(x.star) == act(x)^dagger for a *-rep
    x = e * AlgebraElement.f(A1, 1) + 2j * AlgebraElement.k_alpha(A1, 1)
    np.testing.assert_allclose(act(v, star(x)), act(v, x).conj().T, atol=1e-12)


def _complex_normal(rng, rows, cols):
    return rng.standard_normal((rows, cols)) \
        + 1j * rng.standard_normal((rows, cols))


# tall, square, wide, zero and rank-deficient inputs
@pytest.mark.parametrize("rows, cols, rank", [
    (12, 5, 5), (12, 5, 3), (6, 6, 4), (5, 5, 5), (3, 7, 3), (3, 7, 2),
    (8, 4, 0), (4, 6, 0), (1, 1, 0)])
def test_kernel_basis_and_cut(rows, cols, rank):
    rng = np.random.default_rng(100 * rows + 10 * cols + rank)
    mat = _complex_normal(rng, rows, rank) @ _complex_normal(rng, rank, cols)
    basis, s = kernel(mat, 1e-10)
    assert basis.shape == (cols, cols - rank)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(cols - rank),
                               atol=1e-12)
    assert np.linalg.norm(mat @ basis) <= 1e-12 * max(np.linalg.norm(mat), 1.0)
    # the full SVD makes the same cut and spans the same kernel
    _, s_full, vh = np.linalg.svd(mat, full_matrices=True)
    np.testing.assert_allclose(s, s_full, atol=1e-12)
    cut = 1e-10 * max(s_full[0] if len(s_full) else 0.0, 1.0)
    ref = vh.conj().T[:, [i for i in range(cols)
                          if i >= len(s_full) or s_full[i] <= cut]]
    np.testing.assert_allclose(basis @ basis.conj().T, ref @ ref.conj().T,
                               atol=1e-10)


def test_kernel_cut_is_relative_to_one_at_least():
    # a tiny matrix is not rescaled to rank one: the cut is rel * max(s, 1)
    basis, s = kernel(np.array([[1e-12, 0.0], [0.0, 1e-13]]), 1e-9)
    assert basis.shape == (2, 2) and s.tolist() == [1e-12, 1e-13]


def test_intertwiners_generic_pairs():
    rng = np.random.default_rng(7)
    x0 = _complex_normal(rng, 4, 4)
    pairs = []
    for _ in range(2):
        a = _complex_normal(rng, 4, 4)
        pairs.append((a, x0 @ a @ np.linalg.inv(x0)))
    basis = intertwiners(pairs, 1e-10)
    assert len(basis) == 1
    x = basis[0]
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    for a, b in pairs:
        assert np.linalg.norm(x @ a - b @ x) < 1e-10
    # the one solution is x0 up to scale
    scale = np.vdot(x, x0)
    assert np.linalg.norm(x0 - scale * x) < 1e-9 * np.linalg.norm(x0)


@pytest.mark.parametrize("diag, want", [((1.0, 1.0, 2.0), 5),
                                        ((0.0, 0.0, 0.0), 9),
                                        ((1.0, 2.0, 3.0), 3)])
def test_intertwiners_commutant_dimension(diag, want):
    a = np.diag(diag).astype(complex)
    basis = intertwiners([(a, a)], 1e-10)
    assert len(basis) == want
    gram = np.array([[np.vdot(x, y) for y in basis] for x in basis])
    np.testing.assert_allclose(gram, np.eye(want), atol=1e-12)
    for x in basis:
        assert np.linalg.norm(x @ a - a @ x) < 1e-12
