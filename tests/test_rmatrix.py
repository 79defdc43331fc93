import itertools
import tracemalloc

import numpy as np
import pytest

from qsp.algebra import AlgebraElement
from qsp.errors import UnsupportedOracleError
from qsp.lusztig import braid_word_on_algebra
from qsp.blocks import product_blocks
from qsp.rmatrix import (
    _cartan_factor,
    _intertwining_residual,
    _root_vector_mats,
    hexagon_residuals,
    op_on_legs,
    r21,
    ribbon_residual,
    rmat,
    rmat_oracle,
    ybe_residual,
)
from qsp.rootsys import (beta_sequence, build_root_datum, longest_element,
                         qint)
from qsp.uqrep import (QParams, build_irrep, casimir_scalar, coproduct_terms,
                        decompose, kron_sum, ribbon_diag, tensor)

from formal_algebra import act
from module_helpers import trivial_module

A1 = build_root_datum([("A", 1)])
A2 = build_root_datum([("A", 2)])
QP = QParams(0.7)


def V(datum, coords, qp=QP):
    return build_irrep(datum, datum.weight(coords), qp)


def test_su2_golden_matrix():
    v = V(A1, [1])
    q = 0.7
    golden = q ** 0.5 * np.array([
        [1 / q, 0, 0, 0],
        [0, 1, 1 / q - q, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1 / q]])
    r = rmat(v, v)
    assert np.max(np.abs(r.matrix - golden)) < 1e-12
    assert r.convention == "R"


def test_trivial_factor_identity():
    v = V(A1, [1])
    t = trivial_module(A1, QP)
    np.testing.assert_allclose(rmat(v, t).matrix, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rmat(t, v).matrix, np.eye(2), atol=1e-12)


def test_highest_lowest_eigenvalue():
    # R(xi ox eta_lowest) = q^{-(varpi, w0 chi)}: for A1 spin 1/2 both: q^{1/2}
    v = V(A1, [1])
    r = rmat(v, v).matrix
    # e_+ ox e_- is index 1
    col = r[:, 1].copy()
    assert abs(col[1] - 0.7 ** 0.5) < 1e-12


def test_ybe():
    assert ybe_residual(V(A1, [1])) < 1e-10
    assert ybe_residual(V(A2, [1, 0])) < 1e-10


def test_rmat_equals_oracle_desk_cases():
    # A1 spins <= 3/2 and A2 fundamentals
    mods1 = [V(A1, [1]), V(A1, [2]), V(A1, [3])]
    for a in mods1:
        for b in mods1:
            d = np.max(np.abs(rmat(a, b).matrix - rmat_oracle(a, b).matrix))
            assert d < 1e-9
    f, fb = V(A2, [1, 0]), V(A2, [0, 1])
    for a in (f, fb):
        for b in (f, fb):
            d = np.max(np.abs(rmat(a, b).matrix - rmat_oracle(a, b).matrix))
            assert d < 1e-9


def test_oracle_rejects_multiplicity():
    v = V(A1, [1])
    vv = tensor(v, v)
    m = tensor(vv, v)  # contains spin 1/2 twice
    with pytest.raises(UnsupportedOracleError):
        rmat_oracle(m, v)


def test_hexagons():
    v, w = V(A1, [1]), V(A1, [2])
    r1, r2 = hexagon_residuals(v, w, v)
    assert r1 < 1e-10 and r2 < 1e-10
    f, fb = V(A2, [1, 0]), V(A2, [0, 1])
    r1, r2 = hexagon_residuals(f, fb, f)
    assert r1 < 1e-10 and r2 < 1e-10


def test_ribbon():
    # R21 R Delta(v) = v ox v with v_V = q^{3/2} on the fundamental
    v = V(A1, [1])
    assert ribbon_residual(v, v) < 1e-10
    for a in ([2], [3]):
        assert ribbon_residual(V(A1, a), v) < 1e-10
    f, fb = V(A2, [1, 0]), V(A2, [0, 1])
    assert ribbon_residual(f, fb) < 1e-10
    t = trivial_module(A1, QP)
    assert ribbon_residual(t, t) < 1e-14


def naturality_residual(f, m_src, m_dst, n):
    """|| (f ox 1) R_{m_src, n} - R_{m_dst, n} (f ox 1) ||."""
    lhs = np.kron(f, np.eye(n.dim)) @ rmat(m_src, n).matrix
    rhs = rmat(m_dst, n).matrix @ np.kron(f, np.eye(n.dim))
    return np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-30)


def test_naturality():
    v = V(A1, [1])
    vv = tensor(v, v)
    w = V(A1, [2])
    # an intertwiner vv -> vv: projection onto the spin-1 block
    dec = decompose(vv)
    emb = next(e for wt, _, es in dec for e in es if wt.coords == (2,))
    proj = emb @ emb.conj().T
    assert naturality_residual(proj, vv, vv, w) < 1e-9


def test_diagram_automorphism_invariance():
    # applying the A2 diagram flip to both factors leaves the universal
    # R-matrix invariant: evaluating on twisted modules equals evaluating
    # the plain R on the twisted pair
    f, fb = V(A2, [1, 0]), V(A2, [0, 1])
    from qsp.uqrep import twist_module
    tf = twist_module(f, {1: 2, 2: 1})
    tfb = twist_module(fb, {1: 2, 2: 1})
    r_t = rmat(tf, tfb).matrix
    r_fbf = rmat(fb, f).matrix
    assert np.max(np.abs(r_t - r_fbf)) < 1e-9


def test_op_on_legs_consistency():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    dims = [2, 3, 2]
    m01 = op_on_legs(a, dims, (0, 1))
    np.testing.assert_allclose(m01, np.kron(a, np.eye(2)), atol=1e-14)
    b = rng.normal(size=(4, 4))
    m02 = op_on_legs(b, dims, (0, 2))
    v = rng.normal(size=12)
    # check against einsum evaluation
    t = v.reshape(2, 3, 2)
    bt = b.reshape(2, 2, 2, 2)
    want = np.einsum("acbd,bed->aec", bt, t).reshape(-1)
    np.testing.assert_allclose(m02 @ v, want, atol=1e-12)


def _leg_permutation(dims, perm):
    """Dense permutation matrix sending the flat index of a tensor with leg
    dimensions ``dims`` to the flat index with the legs in ``perm`` order."""
    n = int(np.prod(dims))
    new_dims = [dims[q] for q in perm]
    p = np.zeros((n, n))
    for flat, idx in enumerate(itertools.product(*map(range, dims))):
        new_idx = [idx[q] for q in perm]
        p[np.ravel_multi_index(new_idx, new_dims), flat] = 1.0
    return p


def _permutation_op_on_legs(mat, dims, legs):
    """Reference construction: mat ox 1 conjugated by the leg permutation."""
    perm = list(legs) + [i for i in range(len(dims)) if i not in legs]
    rest = int(np.prod([dims[i] for i in perm[len(legs):]], initial=1))
    p = _leg_permutation(dims, perm)
    return p.T @ np.kron(mat, np.eye(rest)) @ p


def test_op_on_legs_matches_permutation_matrix():
    rng = np.random.default_rng(1)
    dims = [3, 4, 5]
    for k in range(1, len(dims) + 1):
        for legs in itertools.permutations(range(len(dims)), k):
            d = int(np.prod([dims[i] for i in legs]))
            mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            got = op_on_legs(mat, dims, legs)
            want = _permutation_op_on_legs(mat, dims, legs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), legs


def _dense_ybe_residual(m):
    """Reference: the three embedded operators multiplied densely."""
    r = rmat(m, m).matrix
    dims = [m.dim] * 3
    r12 = op_on_legs(r, dims, (0, 1))
    r13 = op_on_legs(r, dims, (0, 2))
    r23 = op_on_legs(r, dims, (1, 2))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-30)


def _dense_hexagon_residuals(m, n, p):
    """Reference: the embedded operators multiplied densely."""
    dims = [m.dim, n.dim, p.dim]
    lhs1 = rmat(tensor(m, n), p).matrix
    r13 = op_on_legs(rmat(m, p).matrix, dims, (0, 2))
    r23 = op_on_legs(rmat(n, p).matrix, dims, (1, 2))
    res1 = np.linalg.norm(lhs1 - r13 @ r23) / max(np.linalg.norm(lhs1), 1e-30)
    lhs2 = rmat(m, tensor(n, p)).matrix
    r12 = op_on_legs(rmat(m, n).matrix, dims, (0, 1))
    res2 = np.linalg.norm(lhs2 - r13 @ r12) / max(np.linalg.norm(lhs2), 1e-30)
    return res1, res2


def _dense_ribbon_residual(m, n):
    """Reference: R21 R Delta(v) multiplied densely."""
    scal = m.qp.qpow(casimir_scalar(m.datum, m.highest)
                     + casimir_scalar(n.datum, n.highest))
    lhs = r21(m, n) @ rmat(m, n).matrix @ ribbon_diag(tensor(m, n))
    return np.linalg.norm(lhs - scal * np.eye(m.dim * n.dim)) / abs(scal)


def _dense_quasi_factor(m, n):
    """Reference: the ordered product of the per-root series on the whole
    of m ox n, every term a dense Kronecker product."""
    qp = m.qp
    total = np.eye(m.dim * n.dim, dtype=complex)
    for (beta, e_m, _), (_, _, f_n) in reversed(list(zip(
            _root_vector_mats(m), _root_vector_mats(n)))):
        qb = qp.qpow(beta.pairing(beta) / 2)
        coeff = 1.0
        acc = np.eye(m.dim * n.dim, dtype=complex)
        e_pow = np.eye(m.dim, dtype=complex)
        f_pow = np.eye(n.dim, dtype=complex)
        for k in range(1, m.dim + n.dim + 1):
            e_pow = e_pow @ e_m
            f_pow = f_pow @ f_n
            if np.linalg.norm(e_pow) < 1e-300 or np.linalg.norm(f_pow) < 1e-300:
                break
            coeff *= (1.0 / qb - qb) * qb ** (-(k - 1)) / qint(k, qb)
            acc = acc + coeff * np.kron(e_pow, f_pow)
        total = total @ acc
    return total


@pytest.mark.parametrize("typ, coords", [
    ("A3", [1, 0, 1]), ("A2", [2, 2]),
], ids=["A3-adjoint", "A2-22"])
def test_rmat_blocks_match_dense_quasi_factor(typ, coords):
    # R built per total-weight block against every term on the whole space
    m = V(build_root_datum(typ), coords, QParams(0.6))
    got = rmat(m, m).matrix
    want = _dense_quasi_factor(m, m) * _cartan_factor(m, m)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("q", [0.6, 0.9])
@pytest.mark.parametrize("typ, coords", [
    ("A1", [1]),
    ("A2", [1, 0]),
    ("A2", [1, 1]),
    ("B2", [0, 1]),
    ("B2", [1, 0]),
    ("C2", [1, 0]),
], ids=["A1-half", "A2-fund", "A2-adjoint", "B2-spinor", "B2-vector",
        "C2-c1"])
def test_braid_checks_match_dense_reference(typ, coords, q):
    datum = build_root_datum([(typ[0], int(typ[1]))])
    m = V(datum, coords, QParams(q))
    assert abs(ybe_residual(m) - _dense_ybe_residual(m)) <= 1e-14
    got = hexagon_residuals(m, m, m)
    want = _dense_hexagon_residuals(m, m, m)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-14
    assert abs(ribbon_residual(m, m) - _dense_ribbon_residual(m, m)) <= 1e-14


def test_ybe_memory_is_weight_blocks():
    # on A2 adjoint ox 3 (N = 512) one dense embedded operator is 4 MB, the
    # dense products peaked at 24 MB and column blocks of the identity at
    # 2.5 MB; the 37 weight blocks (15184 entries) need about 2.1 MB
    m = V(A2, [1, 1], QParams(0.6))
    rmat(m, m)
    tracemalloc.start()
    try:
        ybe_residual(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < 2.5


def test_ybe_on_the_a3_adjoint():
    # N = 3375: the triple product has 147 weight blocks, the largest of
    # size 183; the YBE check takes about 0.1 s on them
    m = V(build_root_datum("A3"), [1, 0, 1], QParams(0.6))
    assert ybe_residual(m) < 1e-10


def _dense_intertwining_residual(mat, m, n):
    worst = 0.0
    for r in m.datum.vertices:
        for delta, delta_op in zip(coproduct_terms(m, n, r),
                                   coproduct_terms(n, m, r)):
            lhs = mat @ kron_sum(delta)
            rhs = kron_sum([(a, b) for b, a in delta_op]) @ mat
            scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-30)
            worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return worst


@pytest.mark.parametrize("typ,left,right", [
    ("A1", [1], [2]), ("A2", [1, 1], [1, 0]), ("B2", [0, 1], [1, 0]),
    ("A3", [1, 0, 1], [1, 0, 0]),
])
def test_intertwining_residual_matches_dense_reference(typ, left, right):
    # the check on the weight blocks against dense Kronecker products, on R
    # and on R with one entry moved, which the check must see
    datum = build_root_datum(typ)
    m, n = V(datum, left, QParams(0.6)), V(datum, right, QParams(0.6))
    mat = rmat(m, n).matrix
    index = product_blocks(m, n)
    assert _intertwining_residual(mat, index, m, n) <= 1e-13
    # R is scattered from its blocks: it has no entry between them, so the
    # check needs to look nowhere else
    rows, cols, _ = index.entries
    outside = mat.copy()
    outside[rows, cols] = 0.0
    assert not outside.any()
    # an entry inside the largest block: the block residual sees it
    row, col = index.groups[-1][0, :2]
    bad = mat.copy()
    bad[row, col] += 1e-3
    want = _dense_intertwining_residual(bad, m, n)
    assert want > 1e-6
    got = _intertwining_residual(bad, index, m, n)
    assert abs(got - want) <= 1e-12 * want


def test_intertwining_residual_memory_is_weight_blocks():
    # on A3 adjoint ox adjoint (N = 225) R is 0.8 MB; whole-size sides and
    # their products held about 3.9 MB beyond R and row blocks 1.1 MB; the
    # block pairs, gathered in chunks, hold about 0.7 MB
    m = V(build_root_datum("A3"), [1, 0, 1], QParams(0.6))
    mat = rmat(m, m).matrix
    index = product_blocks(m, m)
    tracemalloc.start()
    try:
        _intertwining_residual(mat, index, m, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 < 1.0


def test_r21_matches_permutation_matrix():
    v, w = V(A2, [1, 0]), V(A2, [1, 1])
    p = _leg_permutation([v.dim, w.dim], [1, 0])   # v ox w -> w ox v
    assert np.array_equal(r21(v, w), p.T @ rmat(w, v).matrix @ p)


def test_rmat_and_decompose_cached_read_only():
    v, w = V(A2, [1, 0]), V(A2, [0, 1])
    r = rmat(v, w)
    assert rmat(v, w) is r
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 0.0
    vw = tensor(v, w)
    assert tensor(v, w) is vw
    dec = decompose(vw)
    assert decompose(vw) is dec
    with pytest.raises(ValueError):
        dec[0][2][0][0, 0] = 0.0


def _writable_arrays(obj, path, seen, out):
    """Append to ``out`` the path of every writable ndarray reachable from
    obj through tuples, lists and dict keys and values; a module met on the
    way (anything with a ``cache`` dict) is walked through its cache once."""
    if isinstance(obj, np.ndarray):
        if obj.flags.writeable:
            out.append(path)
    elif isinstance(obj, dict):
        for n, (key, val) in enumerate(obj.items()):
            _writable_arrays(key, f"{path}/key{n}", seen, out)
            _writable_arrays(val, f"{path}/{n}", seen, out)
    elif isinstance(obj, (tuple, list)):
        for n, val in enumerate(obj):
            _writable_arrays(val, f"{path}/{n}", seen, out)
    cache = getattr(obj, "cache", None)
    if isinstance(cache, dict) and id(obj) not in seen:
        seen.add(id(obj))
        label = getattr(obj, "label", type(obj).__name__)
        _writable_arrays(cache, f"{label}.cache", seen, out)


def test_every_cached_array_is_read_only():
    from qsp.coideal import CoidealParams, counit_module, kmatrix_solve
    from qsp.diagrams import satake
    from qsp.kzmono import leg_coeff, split_tensors
    from qsp.rootsys import positive_roots, restrict_datum
    from qsp.vogan10 import braid_blocks, build_Mr

    v, w = V(A2, [1, 0]), V(A2, [0, 1])
    rmat(v, w)
    decompose(tensor(v, w))
    diag, params = satake(A1, ()), CoidealParams({1: 0.7 ** -2}, {1: 0.3j})
    u = V(A1, [1])
    kmatrix_solve(diag, params, QP, counit_module(diag, params, QP), u)
    ladder = build_Mr(0.25, QP, 10)
    braid_blocks(ladder, u, QP)
    datum = build_root_datum("B3")
    restrict_datum(datum, (2, 3))
    positive_roots(datum, (1, 2))
    tensors = split_tensors()
    leg_coeff(tensors, 0.7, 2)
    tensors.t_full(1, 2)
    tensors.sigma_matrix(2)
    seen, out = set(), []
    for owner in (v, w, u, ladder, datum, tensors):
        _writable_arrays(owner, "owner", seen, out)
    assert out == []
    assert datum.cache and tensors.cache
    # v ox w and the model irrep of its third component at least are reached
    # too (and whatever earlier calls left in the caches)
    assert len(seen) >= 8


@pytest.mark.parametrize("typ, coords", [
    ("A2", [1, 1]),
    ("B2", [0, 1]),
    ("B2", [1, 0]),
    ("C2", [1, 0]),
    ("C2", [0, 1]),
], ids=["A2-adjoint", "B2-spinor", "B2-vector", "C2-vector", "C2-second"])
def test_root_vectors_match_formal_braid_images(typ, coords):
    # the formal braid-group images T_{r_1} ... T_{r_{k-1}}(E_r), evaluated
    # on the module, are the reference for E_beta = T E_r T^{-1}
    datum = build_root_datum([(typ[0], int(typ[1]))])
    m = V(datum, coords)
    word = longest_element(datum, datum.vertices)
    roots = _root_vector_mats(m)
    assert [beta for beta, _, _ in roots] == beta_sequence(datum, word)
    for k, r in enumerate(word.letters):
        prefix = word.letters[:k]
        _, e_beta, f_beta = roots[k]
        for mat, gen in ((e_beta, AlgebraElement.e), (f_beta, AlgebraElement.f)):
            want = act(m, braid_word_on_algebra(datum, m.qp, prefix,
                                               gen(datum, r)))
            assert np.max(np.abs(mat - want)) < 1e-12


@pytest.mark.parametrize("typ, rank, coords", [
    ("G", 2, [1, 0]),
    ("B", 3, [1, 0, 0]),
    ("B", 3, [0, 0, 1]),
    ("C", 3, [1, 0, 0]),
], ids=["G2-seven", "B3-vector", "B3-spinor", "C3-vector"])
def test_braid_identities_high_rank(typ, rank, coords):
    m = V(build_root_datum([(typ, rank)]), coords)
    assert ybe_residual(m) < 1e-10
    assert abs(ybe_residual(m) - _dense_ybe_residual(m)) <= 1e-14
    hexagons = hexagon_residuals(m, m, m)
    assert max(hexagons) < 1e-10
    assert np.max(np.abs(np.subtract(
        hexagons, _dense_hexagon_residuals(m, m, m)))) <= 1e-14
    assert ribbon_residual(m, m) < 1e-10
    assert abs(ribbon_residual(m, m) - _dense_ribbon_residual(m, m)) \
        <= 1e-12 * ribbon_residual(m, m)
