import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from module_helpers import ladder_relations_residual, weight_blocks
from qsp.blocks import leg_blocks, product_blocks, series_blocks
from qsp.errors import ConsistencyError, InputError, ResourceError
from qsp.harness import run_axioms, run_rank_one
from qsp.rootsys import build_root_datum, qfact, qint
from qsp.uqrep import (QParams, WeightModule, build_irrep, kernel, ribbon_diag,
                       tensor)
from qsp.vogan10 import (
    _h_vector,
    _require_spin_half,
    _spin_half_blocks,
    _total_h,
    _weight_key,
    braid_blocks,
    build_Mr,
    coaction_tensor,
    e_matrix,
    e_matrix_component_scalars,
    fusion_check,
    interior_indices,
    nu_module,
    plain_block_eigenvalues,
    spin_half_block,
    spin_half_transfer,
)

A1 = build_root_datum([("A", 1)])
QP = QParams(0.7)
Q = 0.7


def _block_symbolic(q, u, w, phi_next):
    """a_fac cart b_fac cart q^{-3/2}: the braid on the block
    {e_m ox e_+, e_{m+1} ox e_-}, with w = q^m and phi_next = phi_{m+1}."""
    import sympy as sp

    cart = sp.diag(sp.sqrt(u) / w, q * w / sp.sqrt(u))
    c1 = 1 / q - q
    kfs = u ** -1 * q ** 2 * w ** 2 * phi_next
    b_fac = sp.Matrix([[1, 0], [-c1 * kfs / sp.sqrt(q), 1]])
    a_fac = sp.Matrix([[1, c1 * phi_next * sp.sqrt(q)], [0, 1]])
    return sp.expand(a_fac * cart * b_fac * cart * q ** sp.Rational(-3, 2))


def e_matrix_block_symbolic(level):
    """Symbolic verification of the component scalars at a sample level.

    Over symbols q, u = q^r, builds the 2x2 braid block on
    {e_n ox e_+, e_{n+1} ox e_-} and the chain vectors of the two fused
    components, and returns the simplified defects of

        E s'_n = q^{-3/2} u^{-1} s_n        (submodule scalar),
        quotient scalar = u sqrt(q)          (via the annihilator of s_n),

    both of which must be zero."""
    import sympy as sp

    q = sp.symbols("q", positive=True)
    u = sp.symbols("u", positive=True)  # u = q^r
    n = int(level)

    def phi(k):
        rad = (1 - q ** (2 * k)) * (1 + u ** 2 * q ** (2 - 2 * k))
        return q ** (-k) * sp.sqrt(rad) / (sp.sqrt(q) * (1 / q - q))

    def transfer(m, sign):
        # alpha(F^*) block m-1 -> m in the (u1, u2) coordinates
        return sp.Matrix([[phi(m) / q if m >= 1 else 0, sign / sp.sqrt(q)],
                          [0, q * phi(m + 1)]])

    # chains from e_0 ox e_- (submodule) and e_0 ox e_+ (quotient classes)
    s_vec = sp.Matrix([1 / sp.sqrt(q), q * phi(1)])
    s_tw = sp.Matrix([-1 / sp.sqrt(q), q * phi(1)])
    q_vec = sp.Matrix([1, 0])
    q_tw = sp.Matrix([1, 0])
    for m in range(1, n + 1):
        s_vec = transfer(m, 1) * s_vec
        s_tw = transfer(m, -1) * s_tw
        q_vec = transfer(m, 1) * q_vec
        q_tw = transfer(m, -1) * q_tw

    blk = _block_symbolic(q, u, q ** n, phi(n + 1))
    mu = q ** sp.Rational(-3, 2) / u
    sub_defect = sp.simplify(sp.expand(blk * s_tw - mu * s_vec))
    vperp = sp.Matrix([[-s_vec[1], s_vec[0]]])
    lam = u * sp.sqrt(q)
    quot_defect = sp.simplify(sp.expand(
        (vperp * blk * q_tw)[0] - lam * (vperp * q_vec)[0]))
    return sub_defect, quot_defect


@pytest.fixture(scope="module")
def v():
    return build_irrep(A1, A1.weight([1]), QP)


def test_build_mr_basics():
    m = build_Mr(0.25, QP, 10)
    assert m.dim == 10
    # K e_1 = q^{-r+2} e_1 and F e_0 = 0
    assert m.k_diag[1] == pytest.approx(Q ** (-0.25 + 2))
    assert np.linalg.norm(m.f_mat[:, 0]) == 0
    with pytest.raises(InputError):
        build_Mr(0.25, QP, 1)


def test_relations_interior():
    for r in (0.25, 1.0, 3.0):
        m = build_Mr(r, QP, 14)
        res = ladder_relations_residual(m)
        assert max(res.values()) < 1e-12, (r, res)


def test_boundary_rows_fail_without_mask():
    # the same relation evaluated on the full truncation must fail, which
    # is what makes the interior mask meaningful
    m = build_Mr(0.5, QP, 8)
    q = Q
    fs = m.f_mat.conj().T
    lhs = fs @ m.f_mat - q ** 2 * m.f_mat @ fs
    rhs = (np.eye(m.dim) + np.diag(m.k_diag ** -2)) / (q - 1 / q)
    assert np.linalg.norm(lhs - rhs) > 1.0


def test_e_matrix_bottom_eigenvector(v):
    m = build_Mr(0.25, QP, 10)
    braid = e_matrix(m, v, QP)
    vec = np.zeros(m.dim * 2)
    vec[1] = 1.0  # e_0 ox e_-
    out = braid @ vec
    assert abs(out[1] - Q ** (-0.25 - 1.5)) < 1e-12
    assert np.linalg.norm(out - out[1] * vec) < 1e-12


@pytest.mark.parametrize("r", [0.25, 1.0, 3.0])
def test_component_scalars(r, v):
    m = build_Mr(r, QP, 12)
    scal, defect = e_matrix_component_scalars(m, v, QP)
    assert defect < 1e-10
    for h, (mu, lam) in scal.items():
        assert abs(mu - Q ** (-r - 1.5)) < 1e-10, h
        if lam is not None:
            assert abs(lam - Q ** (r + 0.5)) < 1e-10, h


@pytest.mark.parametrize("r", [0.25, 1.0, 3.0])
def test_plain_block_moduli(r, v):
    m = build_Mr(r, QP, 12)
    blocks = plain_block_eigenvalues(m, v, QP)
    want = sorted([Q ** (-r - 1.5), Q ** (r + 0.5)])
    interior = [h for h in sorted(blocks) if len(blocks[h]) == 2][:7]
    for h in interior:
        got = sorted(abs(x) for x in blocks[h])
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_closed_form_block_at_symbolic_level():
    # spin_half_block against a_fac cart b_fac cart q^{-3/2} at a symbolic
    # level m: w = q^m, and phi_{m+1}^2 replaced by its radicand
    import sympy as sp

    q, u, w, phi = sp.symbols("q u w phi", positive=True)
    w2 = q ** 2 * w ** 2
    phi_sq = (1 - w2) * (1 + u ** 2 / w ** 2) / (w2 * q * (1 / q - q) ** 2)
    want = _block_symbolic(q, u, w, phi).xreplace({phi ** 2: phi_sq})
    b00, b01, b11 = spin_half_block(q, u, w2, 1 - w2, phi * w2)
    # the code writes v^{-1} = q^{-3/2} with a float exponent
    got = sp.nsimplify(sp.Matrix([[b00, b01], [-b01, b11]]), rational=True)
    assert (want - got).applyfunc(sp.cancel) == sp.zeros(2, 2)


# the dense product loses digits as q^{-2 level} grows (relative 2e-12 at
# q = 0.3 and 5 levels): few levels at small q, and 1e-10 relative
@pytest.mark.parametrize("q,levels", [(0.3, 5), (0.7, 8), (0.95, 12),
                                      (0.999, 12)])
def test_plain_block_eigenvalues_match_dense_braid(q, levels):
    qp = QParams(q)
    vh = build_irrep(A1, A1.weight([1]), qp)
    for r in (0.1, 1.3):
        m = build_Mr(r, qp, levels)
        plain = twist_to_plain(e_matrix(m, vh, qp), vh)
        got = plain_block_eigenvalues(m, vh, qp)
        blocks = weight_blocks(m, vh)
        assert list(got) == sorted(blocks)
        for h, idx in blocks.items():
            want = sorted(np.linalg.eigvals(plain[np.ix_(idx, idx)]),
                          key=lambda z: -abs(z))
            np.testing.assert_allclose(got[h], want,
                                       rtol=1e-10, atol=1e-12)


def _component_scalars_dense_ref(module, v, qp):
    """The dense-chain routine the block chains replaced, kept as the
    reference: the chains under alpha(F^*) on module ox V, unnormalised, and
    the braid applied as a (levels * dim V)^2 matrix."""
    braid = e_matrix(module, v, qp)
    fs = coaction_tensor(module, v).f_mat.conj().T
    fs_tw = coaction_tensor(module, nu_module(v)).f_mat.conj().T
    dim = module.dim * v.dim
    bottom = np.zeros(dim, dtype=complex)
    bottom[v.dim - 1] = 1.0
    top = np.zeros(dim, dtype=complex)
    top[0] = 1.0
    blocks = weight_blocks(module, v)
    n_interior = len(interior_indices(module, v.dim, 3))
    sub_chain, sub_chain_tw = bottom.copy(), bottom.copy()
    quot_chain, quot_chain_tw = top.copy(), top.copy()
    out = {}
    defect = 0.0
    first = True
    for hval in sorted(blocks):
        idx = blocks[hval]
        if idx[-1] >= n_interior:
            continue
        img = braid @ sub_chain_tw
        nrm2 = (sub_chain.conj() @ sub_chain).real
        mu = (sub_chain.conj() @ img) / nrm2
        defect = max(defect, np.linalg.norm(img - mu * sub_chain)
                     / np.sqrt(nrm2))
        lam = None
        if not first:
            vperp = np.zeros(dim, dtype=complex)
            i1, i2 = idx[0], idx[1]
            vperp[i1] = -np.conj(sub_chain[i2])
            vperp[i2] = np.conj(sub_chain[i1])
            lam = (vperp.conj() @ (braid @ quot_chain_tw)) \
                / (vperp.conj() @ quot_chain)
            quot_chain = fs @ quot_chain
            quot_chain_tw = fs_tw @ quot_chain_tw
        out[hval] = (mu, lam)
        sub_chain = fs @ sub_chain
        sub_chain_tw = fs_tw @ sub_chain_tw
        first = False
    return out, defect


# the dense reference itself drifts from the closed form by 2.2e-12 at
# q = 0.7 and 16 levels (6.9e-6 at 40 levels), so its range stops below
@pytest.mark.parametrize("q,levels", [(0.7, 4), (0.7, 5), (0.7, 10),
                                      (0.7, 14), (0.95, 5), (0.95, 20),
                                      (0.95, 40)])
def test_component_scalars_match_dense_chains(q, levels):
    qp = QParams(q)
    vh = build_irrep(A1, A1.weight([1]), qp)
    for r in (0.1, 0.25, 1.3):
        m = build_Mr(r, qp, levels)
        got, defect = e_matrix_component_scalars(m, vh, qp)
        want, defect_ref = _component_scalars_dense_ref(m, vh, qp)
        assert list(got) == list(want)
        for h, (mu, lam) in want.items():
            assert abs(got[h][0] - mu) < 1e-12, h
            assert (got[h][1] is None) == (lam is None), h
            if lam is not None:
                assert abs(got[h][1] - lam) < 1e-12, h
        assert abs(defect - defect_ref) < 1e-12


def _stacked_transfers(module, q, sign):
    """``spin_half_transfer`` for m = 0 .. cap-2, stacked as an array of
    shape (cap-1, 2, 2).  Block -1 is e_0 ox e_- (phi_0 = 0)."""
    phi = np.concatenate(([0.0], module.f_mat.diagonal(1).real))
    t00, t01, t11 = spin_half_transfer(q, phi[:-1], phi[1:], sign)
    out = np.zeros((module.dim - 1, 2, 2))
    out[:, 0, 0] = t00
    out[:, 0, 1] = t01
    out[:, 1, 1] = t11
    return out


def _component_scalars_block_ref(module, v, qp):
    """The numpy block chains the float chains replaced, kept as the
    reference: stacked (cap-1, 2, 2) blocks and transfers, one matrix-vector
    product per chain and level, both chains of a pair scaled by their
    largest entry."""
    q = qp.q
    _require_spin_half(v, q)
    if module.dim < 4:
        return {}, 0.0
    h = _total_h(module, v).reshape(-1, 2)
    b00, b01, b11 = _spin_half_blocks(module, q)
    blocks = np.stack([np.stack([b00, b01], -1),
                       np.stack([-b01, b11], -1)], -2)
    plain = _stacked_transfers(module, q, 1)
    twisted = _stacked_transfers(module, q, -1)

    def normalised(a, b):
        scale = np.abs(np.concatenate((a, b))).max()
        return a / scale, b / scale

    out = {_weight_key(h[0, 1]): (complex(q ** (-module.r - 1.5)), None)}
    sub = sub_tw = np.array([0.0, 1.0])
    quot = quot_tw = np.array([1.0, 0.0])
    defect = 0.0
    for m in range(module.dim - 4):
        sub, sub_tw = normalised(plain[m] @ sub, twisted[m] @ sub_tw)
        if m:
            quot, quot_tw = normalised(plain[m] @ quot, twisted[m] @ quot_tw)
        img = blocks[m] @ sub_tw
        nrm2 = sub @ sub
        mu = (sub @ img) / nrm2
        defect = max(defect, np.linalg.norm(img - mu * sub) / math.sqrt(nrm2))
        vperp = np.array([-sub[1], sub[0]])
        lam = (vperp @ (blocks[m] @ quot_tw)) / (vperp @ quot)
        out[_weight_key(h[m, 0])] = (complex(mu), complex(lam))
    return out, defect


def _fusion_block_ref(module, v):
    """The per-block route the stacked kernels replaced, kept as the
    reference: for each interior weight block, F's entries gathered on the
    rows of weight h - 2 (by the exact levels) and one ``kernel`` taken."""
    kv_inv = 1 / v.k_diag(v.datum.simple_root(1))
    groups = weight_blocks(module, v)
    level = np.add.outer(module.levels,
                         [int(w.coords[0]) for w in v.weights]).reshape(-1)
    n_interior = len(interior_indices(module, v.dim, 2))
    out = {}
    for hval, idx in groups.items():
        if idx[-1] >= n_interior:
            continue
        x_col, a_col = np.divmod(np.array(idx), v.dim)
        rows = np.flatnonzero(level == level[idx[0]] - 2)
        x_row, a_row = np.divmod(rows[:, None], v.dim)
        f_blk = module.f_mat[x_row, x_col] \
            * ((a_row == a_col) * kv_inv[a_col]) \
            + (x_row == x_col) * v.F[1][a_row, a_col]
        dim_ker = kernel(f_blk, 1e-9)[0].shape[1]
        if dim_ker:
            out[hval] = dim_ker
    return out


# every point build_Mr accepts, and the stretch size; the scalars agree
# relative to the larger of the reference and its closed form (a wall
# scalar can be far off, even 0), the defect relative to the sub-line
# scalar it is measured against
@pytest.mark.parametrize("q,r,levels", [
    *((q, r, lv) for q in (0.05, 0.3, 0.7, 0.95, 0.999)
      for r in (0.1, 1.3, 5.0) for lv in (5, 60, 360)),
    (0.95, 0.1, 2000)])
def test_float_chains_and_stacked_kernels_match_block_routes(q, r, levels):
    qp = QParams(q)
    vh = build_irrep(A1, A1.weight([1]), qp)
    try:
        m = build_Mr(r, qp, levels)
    except ResourceError:
        pytest.skip("beyond double precision: build_Mr refuses")
    got, defect = e_matrix_component_scalars(m, vh, qp)
    want, defect_ref = _component_scalars_block_ref(m, vh, qp)
    assert list(got) == list(want)
    closed = (q ** (-r - 1.5), q ** (r + 0.5))
    for h, pair in want.items():
        for x, y, c in zip(got[h], pair, closed):
            assert (x is None) == (y is None), h
            if y is not None:
                assert abs(x - y) <= 1e-13 * max(abs(y), c), h
    assert abs(defect - defect_ref) <= 1e-13 * closed[0]
    assert fusion_check(m, vh, qp) == _fusion_block_ref(m, vh)


@pytest.mark.parametrize("q,levels", [
    *((q, lv) for q in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999)
      for lv in (5, 20, 60, 360)),
    (0.95, 2000), (0.9, 1000)])
def test_component_scalars_sweep(q, levels):
    qp = QParams(q)
    vh = build_irrep(A1, A1.weight([1]), qp)
    for r in (0.1, 0.25, 1.3):
        if q <= 0.3 and levels == 360:
            with pytest.raises(ResourceError):
                build_Mr(r, qp, levels)
            continue
        m = build_Mr(r, qp, levels)
        scal, defect = e_matrix_component_scalars(m, vh, qp)
        assert len(scal) == levels - 3
        for h, (mu, lam) in scal.items():
            assert np.isfinite(mu) and abs(mu - q ** (-r - 1.5)) < 1e-10, h
            if lam is not None:
                assert np.isfinite(lam)
                assert abs(lam - q ** (r + 0.5)) < 1e-10, h
        assert defect < 1e-10


@pytest.mark.parametrize("level", [1, 3, 5])
def test_a_zero_coefficient_gives_nonfinite_scalars_not_an_error(v, level):
    # a hand-made ladder with F e_level = 0 makes the chains divide by 0:
    # the scalars come out inf or nan where the numpy block chains give
    # them, and no ZeroDivisionError escapes
    m = build_Mr(0.25, QP, 10)
    f_mat = m.f_mat.copy()
    f_mat[level - 1, level] = 0.0
    bad = dataclasses.replace(m, f_mat=f_mat, cache={})
    got, _ = e_matrix_component_scalars(bad, v, QP)
    with np.errstate(all="ignore"):
        want, _ = _component_scalars_block_ref(bad, v, QP)

    def finite(scal):
        return [np.isfinite(x) for pair in scal.values() for x in pair
                if x is not None]

    assert finite(got) == finite(want)
    assert not all(finite(got))


def test_block_data_need_spin_half(v):
    m = build_Mr(0.25, QP, 10)
    for other in (build_irrep(A1, A1.weight([2]), QP), nu_module(v),
                  tensor(v, v), build_irrep(A1, A1.weight([1]), QParams(0.5))):
        with pytest.raises(InputError):
            e_matrix_component_scalars(m, other, QP)
        with pytest.raises(InputError):
            plain_block_eigenvalues(m, other, QP)


def test_ladder_is_finite_or_resource_error():
    # near the level where F overflows, a coefficient may be finite in its
    # radicand and infinite as a product: it must raise, not come out inf
    qp = QParams(0.05)
    for levels in range(118, 126):
        try:
            m = build_Mr(5.0, qp, levels)
        except ResourceError:
            continue
        assert np.isfinite(m.f_mat).all(), levels


def test_top_singleton_overflow_is_resource_error():
    # 119 levels pass build_Mr at q = 0.05, r = 0.1; the braid on
    # e_118 ox e_+ is q^{r + 1/2 - 238}, beyond double precision
    qp = QParams(0.05)
    vh = build_irrep(A1, A1.weight([1]), qp)
    m = build_Mr(0.1, qp, 119)
    with pytest.raises(ResourceError):
        plain_block_eigenvalues(m, vh, qp)
    scal, _ = e_matrix_component_scalars(m, vh, qp)
    assert all(np.isfinite(x) for pair in scal.values() for x in pair
               if x is not None)


def test_overflowing_braid_blocks_are_a_resource_error():
    # 6 levels pass build_Mr at q = 1e-20, r = 15.4, but u = q^r underflows
    # and the blocks of spin_half_block overflow: both readers refuse them
    # before any eigenvalue or float chain sees an infinity
    qp = QParams(1e-20)
    vh = build_irrep(A1, A1.weight([1]), qp)
    m = build_Mr(15.4, qp, 6)
    for reader in (plain_block_eigenvalues, e_matrix_component_scalars):
        with pytest.raises(ResourceError, match="braid blocks overflow"):
            reader(m, vh, qp)


def test_symbolic_closed_form():
    # base case of the induction: the component scalars on block 0
    sub_defect, quot_defect = e_matrix_block_symbolic(0)
    assert all(x == 0 for x in sub_defect)
    assert quot_defect == 0


def test_symbolic_induction_step():
    # the braid intertwines the two coactions of F^* from block m-1 to
    # block m: B_m T^tw_m = T^plain_m B_{m-1} at a symbolic level m >= 1,
    # with w = q^m and phi_m^2, phi_{m+1}^2 replaced by their radicands.
    # So E s'_m = mu s_m follows from level m-1, and the quotient scalar
    # with it; with the base case at level 0 this holds at every level.
    import sympy as sp

    q, u, w, phi_m, phi_n = sp.symbols("q u w phi_m phi_n", positive=True)

    def block(w2, phi):
        b00, b01, b11 = spin_half_block(q, u, w2, 1 - w2, phi * w2)
        return sp.Matrix([[b00, b01], [-b01, b11]])

    def transfer(sign):
        t00, t01, t11 = spin_half_transfer(q, phi_m, phi_n, sign)
        return sp.Matrix([[t00, t01], [0, t11]])

    scale = q * (1 / q - q) ** 2
    squares = {
        phi_m ** 2: (1 - w ** 2) * (1 + u ** 2 * q ** 2 / w ** 2)
        / (w ** 2 * scale),
        phi_n ** 2: (1 - q ** 2 * w ** 2) * (1 + u ** 2 / w ** 2)
        / (q ** 2 * w ** 2 * scale),
    }
    step = block(q ** 2 * w ** 2, phi_n) * transfer(-1) \
        - transfer(1) * block(w ** 2, phi_m)
    # the code writes q^{-3/2} and q^{-1/2} with float exponents
    step = sp.expand(sp.nsimplify(step, rational=True))
    assert step.xreplace(squares).applyfunc(sp.cancel) == sp.zeros(2, 2)


def test_truncation_independence(v):
    m10 = build_Mr(0.25, QP, 10)
    m20 = build_Mr(0.25, QP, 20)
    b10 = e_matrix(m10, v, QP)
    b20 = e_matrix(m20, v, QP)
    keep = 9 * 2  # levels <= 8
    assert np.max(np.abs(b10[:keep, :keep] - b20[:keep, :keep])) < 1e-13


# Residuals of the braid against the coaction on the truncation interior,
# dense: the twisted intertwining and the plain module map it converts to.

def _masked_commutator(braid, pairs, idx):
    """Worst ||braid @ right - left @ braid|| on the index set idx, relative
    to ||left||, over the (left, right) pairs."""
    worst = 0.0
    for left, right in pairs:
        diff = braid @ right - left @ braid
        worst = max(worst, np.linalg.norm(diff[np.ix_(idx, idx)])
                    / max(np.linalg.norm(left), 1e-30))
    return worst


def nu_twist_residual(module, v, qp):
    """|| E (id ox nu) alpha(x) - alpha(x) E || on the truncation interior,
    for the generators x in {K, F, F^*}."""
    prod = coaction_tensor(module, v)
    prod_tw = coaction_tensor(module, nu_module(v))
    pairs = [(np.diag(prod.k_diag), np.diag(prod_tw.k_diag)),
             (prod.f_mat, prod_tw.f_mat),
             (prod.f_mat.conj().T, prod_tw.f_mat.conj().T)]
    return _masked_commutator(e_matrix(module, v, qp), pairs,
                              interior_indices(module, v.dim, 3))


def twist_to_plain(braid, v):
    """Compose with 1 ox K_chi^{-1}, K_chi acting by i^H: converts the
    nu-twisted braid into a plain module map."""
    kchi_inv = (1j ** _h_vector(v)) ** -1
    return braid * np.tile(kchi_inv, braid.shape[0] // v.dim)


def plain_commutation_residual(module, v, qp):
    """The plain braid commutes with the untwisted coaction on the
    interior."""
    plain = twist_to_plain(e_matrix(module, v, qp), v)
    prod = coaction_tensor(module, v)
    mats = (np.diag(prod.k_diag), prod.f_mat, prod.f_mat.conj().T)
    return _masked_commutator(plain, [(mat, mat) for mat in mats],
                              interior_indices(module, v.dim, 3))


def test_twist_intertwining(v):
    m = build_Mr(0.5, QP, 12)
    assert nu_twist_residual(m, v, QP) < 1e-10
    assert plain_commutation_residual(m, v, QP) < 1e-10


def test_plain_braid_phase(v):
    # on the bottom vector the plain braid eigenvalue is i q^{-r-3/2}
    m = build_Mr(0.25, QP, 10)
    plain = twist_to_plain(e_matrix(m, v, QP), v)
    vec = np.zeros(m.dim * 2)
    vec[1] = 1.0
    out = plain @ vec
    assert abs(out[1] - 1j * Q ** (-0.25 - 1.5)) < 1e-12


def test_singular_values_match_moduli(v):
    # the plain braid is block-normal: per-block singular values equal
    # the moduli of the eigenvalues
    m = build_Mr(1.0, QP, 12)
    plain = twist_to_plain(e_matrix(m, v, QP), v)
    blocks = weight_blocks(m, v)
    interior = [h for h in sorted(blocks) if len(blocks[h]) == 2][:6]
    for h in interior:
        idx = blocks[h]
        sub = plain[np.ix_(idx, idx)]
        sv = sorted(np.linalg.svd(sub, compute_uv=False))
        ev = sorted(abs(x) for x in np.linalg.eigvals(sub))
        np.testing.assert_allclose(sv, ev, atol=1e-10)


def test_fusion(v):
    for r in (0.25, 1.0, 3.0):
        m = build_Mr(r, QP, 12)
        got = fusion_check(m, v, QP)
        assert got == {round(-r - 1, 9): 1, round(-r + 1, 9): 1}
    with pytest.raises(InputError):
        fusion_check(build_Mr(0.25, QP, 2), v, QP)


def _fusion_dense_ref(module, v):
    """The dense route fusion_check replaced: the coaction F on module ox V
    as one (levels dim V)^2 matrix, its kernel taken on all rows of the
    columns of each interior weight block."""
    kv_inv = 1 / v.k_diag(v.datum.simple_root(1))
    f_mat = np.kron(module.f_mat, np.diag(kv_inv)) \
        + np.kron(np.eye(module.dim), v.F[1])
    n_interior = len(interior_indices(module, v.dim, 2))
    out = {}
    for hval, idx in weight_blocks(module, v).items():
        if idx[-1] >= n_interior:
            continue
        dim_ker = kernel(f_mat[:, idx], 1e-9)[0].shape[1]
        if dim_ker:
            out[hval] = dim_ker
    return out


@pytest.mark.parametrize("levels", [60, 360, 1000])
def test_fusion_matches_dense_route(levels):
    qp = QParams(0.95)
    vh = build_irrep(A1, A1.weight([1]), qp)
    for r in (0.1, 1.3):
        m = build_Mr(r, qp, levels)
        got = fusion_check(m, vh, qp)
        assert got == _fusion_dense_ref(m, vh)
        assert got == {round(-r - 1, 9): 1, round(-r + 1, 9): 1}


def test_fusion_forms_no_coaction_matrix():
    # the dense coaction F alone is 64 MB at 1000 levels; the stacked
    # kernels and the float chains peak near 0.27 MB there, and per-block
    # Python lists or one unchunked gather near 0.55 MB
    qp = QParams(0.95)
    vh = build_irrep(A1, A1.weight([1]), qp)
    m = build_Mr(0.1, qp, 1000)
    for routine in (fusion_check, e_matrix_component_scalars):
        tracemalloc.start()
        try:
            routine(m, vh, qp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * 2 ** 20, routine.__name__


def test_fusion_rejects_a_stray_weight_shift(v):
    m = build_Mr(0.25, QP, 10)
    f_bad = m.f_mat.copy()
    f_bad[0, 3] = 1e-3   # moves a weight by -6: its row would be dropped
    bad = dataclasses.replace(m, f_mat=f_bad, cache={})
    with pytest.raises(ConsistencyError, match=r"by \[-6\.0\], not only"):
        fusion_check(bad, v, QP)
    # one stray entry in F on V, keeping its weight (a zero shift)
    f_v = v.F[1].copy()
    f_v[0, 0] = 1e-3
    bad_v = dataclasses.replace(v, F={**v.F, 1: f_v}, cache={})
    with pytest.raises(ConsistencyError, match=r"by \[0\.0\], not only"):
        fusion_check(m, bad_v, QP)


def test_braid_is_built_once_and_read_only(v):
    m = build_Mr(0.25, QP, 10)
    blocks = braid_blocks(m, v, QP)
    assert braid_blocks(m, v, QP) is blocks
    prod = coaction_tensor(m, v)
    assert coaction_tensor(m, v) is prod
    for arr in (*blocks.layout.groups, *blocks.stacks, prod.k_diag, prod.f_mat,
                prod.h_diag):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        blocks.stacks[-1][0, 0, 0] = 1.0
    # the dense braid is a fresh copy of the blocks
    dense = e_matrix(m, v, QP)
    dense[0, 0] = 7.0
    assert e_matrix(m, v, QP)[0, 0] != 7.0


def test_leg_blocks_report_entries_between_blocks(v):
    m = build_Mr(0.25, QP, 6)
    index = product_blocks(m, v, v)
    # E on the last leg alone raises the total weight: nothing of it lies
    # in a block, and the largest dropped entry is reported
    raised = leg_blocks(index, (2,), v.E[1])
    assert raised.off_block == pytest.approx(Q ** 0.5)
    assert all(not blk.any() for blk in raised.stacks)


def test_weight_blocks_need_the_same_blocks(v):
    m = build_Mr(0.25, QP, 6)
    v1 = build_irrep(A1, A1.weight([2]), QP)
    index = product_blocks(m, v, v)
    on_vv = leg_blocks(index)
    index = product_blocks(m, v, v1)
    on_vv1 = leg_blocks(index)
    with pytest.raises(ConsistencyError):
        on_vv @ on_vv1
    with pytest.raises(ConsistencyError):
        on_vv - on_vv1


# r at which -r + 2n + wt lands on a 9-digit rounding boundary: keys of H
# rounded to 9 digits would split a weight block in two there
BOUNDARY_R = [5e-10, 2.5e-9, 0.1234567895, 3.0000000005, 7.4999999995]


@pytest.mark.parametrize("r", BOUNDARY_R)
def test_ladder_blocks_are_keyed_by_exact_levels(r):
    qp = QParams(0.9)
    vh = build_irrep(A1, A1.weight([1]), qp)
    m = build_Mr(r, qp, 20)
    index = product_blocks(m, vh, vh)
    # levels 0, 2, ..., 38 plus -2, 0 or 2 from the V legs: one block for
    # each even number from -2 to 40
    assert index.block_keys.dtype.kind == "i"
    assert sorted(index.block_keys[:, 0].tolist()) == list(range(-2, 41, 2))
    assert fusion_check(m, vh, qp) == _fusion_block_ref(m, vh)


@pytest.mark.parametrize("r", BOUNDARY_R)
def test_vogan_suites_pass_on_a_rounding_boundary(r):
    assert run_axioms("vogan", 0.9, r=r, levels=20).passed
    rep = run_rank_one(0.9, r, 20)
    assert rep.passed
    assert rep.info["fusion"] == {str(round(-r - 1, 9)): 1,
                                  str(round(-r + 1, 9)): 1}


def test_fusion_weights_are_omega_r_pm_1(v):
    # the lowest weights carry K-eigenvalue q^{-(r+1)} resp. q^{-(r-1)}
    r = 0.25
    m = build_Mr(r, QP, 12)
    prod = coaction_tensor(m, v)
    for h in fusion_check(m, v, QP):
        idx = [i for i, hv in enumerate(prod.h_diag) if abs(hv - h) < 1e-9]
        for i in idx:
            assert prod.k_diag[i] == pytest.approx(Q ** h)
        assert h in (pytest.approx(-r - 1), pytest.approx(-r + 1))


# Dense references: every diagonal operator as a full matrix, every factor
# applied by a matrix product.  The module code keeps diagonals as vectors
# and must agree entry for entry.

def _h_ref(v):
    return np.array([float(w.coords[0]) for w in v.weights])


def _coaction_ref(k_m, f_m, h_m, v):
    """(k_diag, F, h_diag) on M ox V through the coaction."""
    kv = v.k_diag(v.datum.simple_root(1))
    k = np.kron(np.diag(k_m), np.diag(kv))
    f = np.kron(f_m, np.diag(1 / kv)) + np.kron(np.eye(len(k_m)), v.F[1])
    h = (h_m[:, None] + _h_ref(v)[None, :]).reshape(-1)
    return np.diag(k).copy(), f, h


def _coaction_fstar_ref(fs_m, v):
    """The coaction of F^* on M ox V, F^*_M ox K^{-1} + 1 ox K^{-1} E, from
    F^*_M on M."""
    kv_inv = np.diag(1 / v.k_diag(v.datum.simple_root(1)))
    return np.kron(fs_m, kv_inv) \
        + np.kron(np.eye(fs_m.shape[0]), kv_inv @ v.E[1])


def _e_matrix_ref(k_m, f_m, h_m, v, q):
    """The dense factors a_series, cartan, b_series, cartan, 1 ox v^{-1},
    each checked to be exactly zero between the total-weight blocks, and
    their product taken block by block in the braid's order,
    ((a cartan) b cartan) (1 ox v^{-1}): the dense product with each sum
    over the terms of one block in one fixed order (a dense BLAS product
    orders its sums by where an entry falls in its own blocking)."""
    dv, dm = v.dim, len(k_m)
    kfs = np.diag(k_m) @ f_m.conj().T
    cartan = np.exp(np.log(q) * (-np.outer(h_m, _h_ref(v)) / 2)).reshape(-1)
    cartan = np.diag(cartan.astype(complex))
    a_series = np.eye(dm * dv, dtype=complex)
    b_series = np.eye(dm * dv, dtype=complex)
    f_pow = np.eye(dm, dtype=complex)
    e_pow = np.eye(dv, dtype=complex)
    kfs_pow = np.eye(dm, dtype=complex)
    fv_pow = np.eye(dv, dtype=complex)
    c = 1.0
    for n in range(1, dv):
        f_pow = f_pow @ f_m
        e_pow = e_pow @ v.E[1]
        kfs_pow = kfs_pow @ kfs
        fv_pow = fv_pow @ v.F[1]
        c *= (1 / q - q) * q ** -(n - 1) / qint(n, q)
        a_series += c * np.kron(f_pow, e_pow)
        b_series += c * (-1) ** n * np.kron(kfs_pow, fv_pow)
    v_inv = np.kron(np.eye(dm), np.linalg.inv(ribbon_diag(v)))
    groups = {}
    for i, hval in enumerate((h_m[:, None] + _h_ref(v)[None, :]).flat):
        groups.setdefault(round(float(hval), 9), []).append(i)
    out = np.zeros_like(a_series)
    on_blocks = np.zeros(out.shape, dtype=bool)
    for g in map(np.array, groups.values()):
        blk = np.ix_(g, g)
        on_blocks[blk] = True
        c = cartan[blk].diagonal()
        out[blk] = ((a_series[blk] * c) @ b_series[blk] * c) @ v_inv[blk]
    for factor in (a_series, cartan, b_series, v_inv):
        assert np.all(factor[~on_blocks] == 0)
    return out


def _twist_to_plain_ref(braid, v):
    kchi_inv = np.diag((1j ** _h_ref(v)) ** -1)
    return braid @ np.kron(np.eye(braid.shape[0] // v.dim), kchi_inv)


@pytest.mark.parametrize("levels", [12, 80])
@pytest.mark.parametrize("q", [0.3, 0.7, 0.95])
def test_vector_diagonals_match_dense_reference(q, levels):
    qp = QParams(q)
    vh = build_irrep(A1, A1.weight([1]), qp)
    v1 = build_irrep(A1, A1.weight([2]), qp)
    m = build_Mr(0.25, qp, levels)
    m_ref = (m.k_diag, m.f_mat, m.h_diag)
    for v in (vh, v1, tensor(vh, vh)):
        prod = coaction_tensor(m, v)
        prod_ref = _coaction_ref(*m_ref, v)
        for got, want in zip((prod.k_diag, prod.f_mat, prod.h_diag),
                             prod_ref):
            np.testing.assert_array_equal(got, want)
        braid = e_matrix(m, v, qp)
        np.testing.assert_array_equal(braid, _e_matrix_ref(*m_ref, v, q))
        np.testing.assert_array_equal(twist_to_plain(braid, v),
                                      _twist_to_plain_ref(braid, v))
    # the braid on a coaction product uses the product's F^dagger
    np.testing.assert_array_equal(
        e_matrix(coaction_tensor(m, vh), vh, qp),
        _e_matrix_ref(*_coaction_ref(*m_ref, vh), vh, q))


def _closed_form_coeff(n, q):
    """c_n = (q^{-1} - q)^n q^{-n(n-1)/2} / [n]_q!, the closed form of the
    running coefficient of ``series_blocks``."""
    return (1 / q - q) ** n * q ** (-n * (n - 1) / 2) / qfact(n, q)


def _spin_module(j2, qp):
    """V_j of U_q(sl2) on the ladder v_0, ..., v_{j2} of weights j2 - 2k,
    E v_k = sqrt([k] [j2 - k + 1]) v_{k-1} and F = E^T: closed form, so that
    it exists at every q (``build_irrep`` stops at small q)."""
    e = np.diag(np.sqrt([qint(k, qp.q) * qint(j2 - k + 1, qp.q)
                         for k in range(1, j2 + 1)]), 1).astype(complex)
    return WeightModule(A1, qp, [A1.weight([j2 - 2 * k])
                                 for k in range(j2 + 1)],
                        {1: e}, {1: e.T.copy()}, label=f"V{j2}")


@pytest.mark.parametrize("q", [0.05, 0.3, 0.6, 0.9, 0.99])
def test_series_blocks_match_the_closed_form_sum(q):
    # sum_n c_n E^n ox F^n on V_j ox V_j, n up to 8 at twice-spin 8
    qp = QParams(q)
    for j2 in range(9):
        v = _spin_module(j2, qp)
        got = series_blocks(product_blocks(v, v), v.E[1], v.F[1], q).dense()
        want = np.eye(v.dim ** 2, dtype=complex)
        e_pow, f_pow = np.eye(v.dim), np.eye(v.dim)
        for n in range(1, v.dim):
            e_pow, f_pow = e_pow @ v.E[1], f_pow @ v.F[1]
            want += _closed_form_coeff(n, q) * np.kron(e_pow, f_pow)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want), \
            (j2, np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("q", [0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
def test_coaction_fstar_is_adjoint_of_f(q):
    # the coaction is a *-homomorphism: its formula for F^* on M ox V is the
    # adjoint of the product's F, which is all a product stores
    qp = QParams(q)
    vh = build_irrep(A1, A1.weight([1]), qp)
    for v in (vh, build_irrep(A1, A1.weight([2]), qp), tensor(vh, vh),
              nu_module(vh)):
        for r in (0.1, 0.25, 1.3):
            m = build_Mr(r, qp, 12)
            got = coaction_tensor(m, v).f_mat.conj().T
            want = _coaction_fstar_ref(m.f_mat.conj().T, v)
            assert np.linalg.norm(got - want) \
                <= 1e-15 * np.linalg.norm(want), (q, r, v.label)


def test_build_mr_stores_f_once():
    # F at 1000 levels is 16 MB; a second dense matrix (F^*) doubles that
    qp = QParams(0.95)
    tracemalloc.start()
    try:
        build_Mr(0.1, qp, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 16 * 1000 ** 2


@pytest.mark.parametrize("levels,dv,margin",
                         [(10, 1, 2), (10, 2, 3), (12, 4, 4), (3, 2, 3),
                          (2, 2, 5)])
def test_interior_indices_keep_levels_below_margin(levels, dv, margin):
    m = build_Mr(0.25, QP, levels)
    want = [i for n in range(m.dim) if n < m.dim - margin
            for i in range(n * dv, (n + 1) * dv)]
    assert interior_indices(m, dv, margin).tolist() == want
