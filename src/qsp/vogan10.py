"""Rank-one lowest-weight *-representations of the Vogan-side twisted
double, and the explicit twist braid.

The module M_r is spanned by an orthonormal ladder e_0, e_1, ... with

    K e_n = q^{-r+2n} e_n,
    q^{1/2} (q^{-1} - q) F e_n = q^{-n} ((1-q^{2n})(1+q^{2r+2-2n}))^{1/2} e_{n-1},

truncated at a level cap N; the top boundary rows of F^* are invalid and
excluded from residual checks.  The coaction is a *-homomorphism, so F^* is
F^dagger on M_r and on every coaction product; it is formed where used.

The braid is

    E = R21_tilde (id ox nu_q)(R_tilde) (1 ox v^{-1}),

with both R-factors given by the rank-one series
sum_n c_n X^n ox Y^n q^{-H ox H / 2}, c_n = (q^{-1}-q)^n q^{-n(n-1)/2}/[n]_q!,
where (X, Y) = (F, E) for the flipped factor and (K F^*, F), with the sign
twist from nu_q(F) = -F, for the twisted one.  Every factor preserves
total weight, so the braid on any module ox V is block-diagonal in it.
``braid_blocks`` builds it block by block (``WeightBlocks``: the blocks of
one size stacked, every product one batched matmul) and keeps it in the
module's cache; ``e_matrix`` scatters these blocks into a dense matrix.
``leg_blocks`` gathers the blocks of an operator acting on some legs of a
product from its small factors (the axiom checks in ``qsp.harness`` are
products of such operators on M ox U ox V, blocks of size at most 4), and
``fusion_check`` takes the kernel of F per block.  On M_r ox V_{1/2} the
blocks are 2x2, and the spectral data are read from their closed form,
``spin_half_block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, InputError, ResourceError
from .rootsys import qfact
from .uqrep import WeightModule, kernel, read_only, ribbon_diag

# the most levels build_Mr truncates to: F is a dense cap x cap complex
# matrix, 16 cap^2 bytes (67 MB at 2048)
MAX_LEVELS = 2048


def _phi(n, r, q):
    """F-ladder coefficient: F e_n = phi_n e_{n-1}; OverflowError when it
    exceeds double precision."""
    rad = (1 - q ** (2 * n)) * (1 + q ** (2 * r + 2 - 2 * n))
    if rad < 0:
        raise InputError(f"negative radicand at level {n}")
    phi = q ** (-n) * math.sqrt(rad) / (q ** 0.5 * (1 / q - q))
    if math.isinf(phi):
        raise OverflowError
    return phi


@dataclass
class TruncatedModule:
    """Level-capped lowest-weight module, M_r or a coaction product over
    it: K and H diagonal, F lowering; F^* is ``f_mat.conj().T`` (invalid on
    the top boundary).  ``cache`` keeps the coaction products and twist
    braids built from it."""

    r: float
    qp: object
    k_diag: np.ndarray
    f_mat: np.ndarray
    h_diag: np.ndarray
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dim(self):
        return len(self.k_diag)


def interior_indices(module, dv, margin):
    """Indices of module ox V (dim V = dv) on levels at least ``margin``
    below the cap."""
    return np.arange((module.dim - margin) * dv)


def build_Mr(r, qp, cap):
    """Truncation of M_r to levels 0..cap-1, 2 <= cap <= MAX_LEVELS."""
    if cap < 2:
        raise InputError("truncation needs at least two levels")
    if cap > MAX_LEVELS:
        raise ResourceError(f"{cap} levels exceed the cap of {MAX_LEVELS}")
    if abs(np.imag(r)) > 1e-14:
        raise InputError("the lowest-weight parameter r must be real")
    r = float(np.real(r))
    if not math.isfinite(r):
        raise InputError("the lowest-weight parameter r must be finite")
    q = qp.q
    k = np.array([q ** (-r + 2 * n) for n in range(cap)], dtype=complex)
    h = np.array([-r + 2.0 * n for n in range(cap)])
    f = np.zeros((cap, cap), dtype=complex)
    for n in range(1, cap):
        try:
            f[n - 1, n] = _phi(n, r, q)
        except OverflowError:
            raise ResourceError(
                f"ladder coefficient at level {n} overflows double "
                f"precision (q = {q}, {cap} levels)") from None
    return TruncatedModule(r, qp, k, f, h)


def relations_residual(module):
    """Residuals of the three defining relations on the interior."""
    q = module.qp.q
    k = np.diag(module.k_diag)
    f = module.f_mat
    fs = f.conj().T
    idx = interior_indices(module, 1, 2)
    out = {}

    def cut(m):
        return m[np.ix_(idx, idx)]

    lhs = k @ f - q ** -2 * f @ k
    out["KF"] = np.linalg.norm(cut(lhs))
    lhs = k @ fs - q ** 2 * fs @ k
    out["KF*"] = np.linalg.norm(cut(lhs))
    lhs = fs @ f - q ** 2 * f @ fs
    rhs = (np.eye(module.dim) + np.diag(module.k_diag ** -2)) / (q - 1 / q)
    out["F*F"] = np.linalg.norm(cut(lhs - rhs)) / np.linalg.norm(cut(rhs))
    return out


def _h_vector(v):
    """H-eigenvalues of the basis of V."""
    return np.array([float(w.coords[0]) for w in v.weights])


def _product_h(*legs_h):
    """H-eigenvalues of the product basis (first leg major) of legs whose
    bases have the H-eigenvalues legs_h."""
    out = legs_h[0]
    for h in legs_h[1:]:
        out = (out[:, None] + h[None, :]).reshape(-1)
    return out


def _total_h(module, v):
    """H-eigenvalues of the basis of module ox V."""
    return _product_h(module.h_diag, _h_vector(v))


def coaction_tensor(module, v):
    """K, F and H on M ox V through the coaction, as a TruncatedModule
    over the product space; built once per V and kept read-only in
    ``module.cache``."""
    key = ("coaction", v)
    if key not in module.cache:
        kv = v.k_diag(v.datum.simple_root(1))
        f = np.kron(module.f_mat, np.diag(1 / kv)) \
            + np.kron(np.eye(module.dim), v.F[1])
        module.cache[key] = TruncatedModule(module.r, module.qp, *(
            read_only(arr) for arr in (np.kron(module.k_diag, kv), f,
                                       _total_h(module, v))))
    return module.cache[key]


# ---------------------------------------------------------------------------
# operators by total-weight blocks
# ---------------------------------------------------------------------------

def _weight_key(hval):
    return round(float(hval), 9)


def _weight_groups(h):
    """Indices of a basis with H-eigenvalues h, grouped by weight (keyed by
    ``_weight_key``, in order of first appearance)."""
    groups = {}
    for i, hval in enumerate(h.tolist()):
        groups.setdefault(_weight_key(hval), []).append(i)
    return groups


@dataclass(frozen=True, eq=False)
class WeightBlocks:
    """An operator on a tensor product that preserves total weight, kept as
    its weight blocks: ``index[k]`` is an integer array of shape
    (count, size) whose rows are the indices of the blocks of one size, and
    ``stacks[k]`` holds these blocks, shape (count, size, size).
    ``off_block`` is the largest entry, outside the blocks, of the dense
    factors the operator was gathered from: 0.0 when nothing was dropped.
    Products and differences need both operands on the same blocks."""

    index: tuple
    stacks: tuple
    off_block: float = 0.0

    def _blockwise(self, op, other):
        if len(self.index) != len(other.index) or not all(
                np.array_equal(a, b) for a, b in zip(self.index, other.index)):
            raise ConsistencyError("operators on different weight blocks")
        stacks = tuple(op(a, b) for a, b in zip(self.stacks, other.stacks))
        return WeightBlocks(self.index, stacks,
                            max(self.off_block, other.off_block))

    def __matmul__(self, other):
        return self._blockwise(np.matmul, other)

    def __sub__(self, other):
        return self._blockwise(np.subtract, other)

    def masked_norm(self, n_interior):
        """Frobenius norm of the entries whose row and column indices are
        both below n_interior."""
        total = 0.0
        for idx, blk in zip(self.index, self.stacks):
            inside = idx < n_interior
            entries = blk[inside[:, :, None] & inside[:, None, :]]
            total += np.sum(np.abs(entries) ** 2)
        return math.sqrt(total)

    def dense(self):
        """The operator as a dense matrix: the blocks scattered, zero
        elsewhere."""
        dim = sum(idx.size for idx in self.index)
        out = np.zeros((dim, dim), dtype=complex)
        for idx, blk in zip(self.index, self.stacks):
            out[idx[:, :, None], idx[:, None, :]] = blk
        return out


def product_blocks(module, *vs):
    """The legs of module ox vs[0] ox vs[1] ..., as the H-eigenvalues of each
    leg's basis, and the total-weight blocks of the product, stacked by
    size (increasing): one read-only integer array of shape (count, size)
    per block size, each row the indices of one block."""
    legs_h = [module.h_diag] + [_h_vector(v) for v in vs]
    by_size = {}
    for idx in _weight_groups(_product_h(*legs_h)).values():
        by_size.setdefault(len(idx), []).append(idx)
    return legs_h, tuple(read_only(np.array(by_size[size]))
                         for size in sorted(by_size))


def _shift_maxima(mat, h):
    """{weight shift: largest |entry|} over the nonzero entries of mat, an
    operator on a basis with H-eigenvalues h."""
    rows, cols = np.nonzero(mat)
    shifts = np.round(h[rows] - h[cols], 9)
    vals = np.abs(mat[rows, cols])
    return {s: float(vals[shifts == s].max())
            for s in sorted(set(shifts.tolist()))}


def leg_blocks(index, legs_h, factors):
    """Weight blocks of the operator that acts by ``mat`` on the legs of
    each (legs, mat) in ``factors`` (legs in order, as in ``op_on_legs``)
    and as the identity on every other leg of the product whose legs have
    the H-eigenvalues legs_h; ``index`` comes from ``product_blocks``.

    No operator on the product is formed: the blocks are gathered from the
    factors, and ``off_block`` is the largest entry of the product outside
    the blocks (every combination of factor entries whose weight shifts do
    not sum to 0), read from the nonzero entries of each factor."""
    dims = [len(h) for h in legs_h]
    acted = {leg for legs, _ in factors for leg in legs}
    stacks = []
    for idx in index:
        digits = np.unravel_index(idx, dims)
        blk = np.ones(idx.shape + idx.shape[-1:], dtype=complex)
        for legs, mat in factors:
            sub = np.ravel_multi_index([digits[leg] for leg in legs],
                                       [dims[leg] for leg in legs])
            blk = blk * mat[sub[:, :, None], sub[:, None, :]]
        for leg in set(range(len(dims))) - acted:
            blk = blk * (digits[leg][:, :, None] == digits[leg][:, None, :])
        stacks.append(blk)
    reach = {0.0: 1.0}   # total weight shift -> largest entry
    for legs, mat in factors:
        maxima = _shift_maxima(mat, _product_h(*[legs_h[i] for i in legs]))
        nxt = {}
        for s0, v0 in reach.items():
            for s1, v1 in maxima.items():
                key = _weight_key(s0 + s1)
                nxt[key] = max(nxt.get(key, 0.0), v0 * v1)
        reach = nxt
    off = max((val for shift, val in reach.items() if shift != 0), default=0.0)
    return WeightBlocks(index, tuple(stacks), off)


def su2_series_coeff(n, q):
    """c_n = (q^{-1}-q)^n q^{-n(n-1)/2} / [n]_q!."""
    return (1 / q - q) ** n * q ** (-n * (n - 1) / 2) / qfact(n, q)


def braid_blocks(module, v, qp):
    """The twist braid on module ox V as ``WeightBlocks``, built once per
    (V, qp) and kept read-only in ``module.cache``."""
    key = ("braid", v, qp)
    if key not in module.cache:
        module.cache[key] = _braid_blocks(module, v, qp)
    return module.cache[key]


def _braid_blocks(module, v, qp):
    """R21_tilde = (sum c_n F^n ox E^n) q^{-H ox H/2} and
    (id ox nu)(R_tilde) = (sum c_n (-1)^n (K F^*)^n ox F^n) q^{-H ox H/2};
    both series terminate by nilpotency on V.  The last factor is the
    inverse ribbon scalar on V (blockwise for reducible V).  Every term
    F^n ox E^n and (K F^*)^n ox F^n preserves total weight and is gathered
    per block; the products run on the stacked blocks."""
    q = qp.q
    legs_h, index = product_blocks(module, v)
    kfs = module.k_diag[:, None] * module.f_mat.conj().T
    cartan = np.exp(np.log(q) * (-np.outer(*legs_h) / 2))
    cartan = cartan.reshape(-1).astype(complex)

    a_series = [np.tile(np.eye(idx.shape[1], dtype=complex), (len(idx), 1, 1))
                for idx in index]
    b_series = [blk.copy() for blk in a_series]
    f_pow, e_pow, kfs_pow, fv_pow = module.f_mat, v.E[1], kfs, v.F[1]
    off = 0.0
    for n in range(1, v.dim):
        if n > 1:
            f_pow = f_pow @ module.f_mat
            e_pow = e_pow @ v.E[1]
            kfs_pow = kfs_pow @ kfs
            fv_pow = fv_pow @ v.F[1]
        c = su2_series_coeff(n, q)
        term_a = leg_blocks(index, legs_h, [((0,), f_pow), ((1,), e_pow)])
        term_b = leg_blocks(index, legs_h, [((0,), kfs_pow), ((1,), fv_pow)])
        for a, b, ta, tb in zip(a_series, b_series, term_a.stacks,
                                term_b.stacks):
            a += c * ta
            b += c * (-1) ** n * tb
        off = max(off, term_a.off_block, term_b.off_block)

    v_inv = leg_blocks(index, legs_h,
                       [((1,), np.linalg.inv(ribbon_diag(v)))])
    stacks = []
    for idx, a, b, vi in zip(index, a_series, b_series, v_inv.stacks):
        cart = cartan[idx][:, None, :]
        stacks.append(read_only(np.matmul(np.matmul(a * cart, b) * cart, vi)))
    return WeightBlocks(index, tuple(stacks), max(off, v_inv.off_block))


def e_matrix(module, v, qp):
    """The twist braid on module ox V as a dense matrix: the blocks of
    ``braid_blocks`` scattered, zero between blocks."""
    return braid_blocks(module, v, qp).dense()


def nu_module(v):
    """The Vogan involution on su2 modules: E -> -E, F -> -F, K -> K; built
    once per module and kept in ``v.cache``, so the R-matrices against it
    are kept too."""
    key = ("nu",)
    if key not in v.cache:
        v.cache[key] = WeightModule(
            v.datum, v.qp, list(v.weights), {1: read_only(-v.E[1])},
            {1: read_only(-v.F[1])}, highest=v.highest,
            label=v.label + "^nu")
    return v.cache[key]


def weight_blocks(module, v):
    """Total-weight spaces of module ox V as index lists, keyed by the
    H-eigenvalue."""
    return _weight_groups(_total_h(module, v))


def _require_spin_half(v, q):
    """InputError unless V is the spin-1/2 irrep of U_q(sl2) in its basis
    (e_+, e_-), E e_- = q^{1/2} e_+ and F e_+ = q^{-1/2} e_-: the only V
    for which the closed-form blocks hold."""
    e_want = np.array([[0.0, q ** 0.5], [0.0, 0.0]])
    f_want = np.array([[0.0, 0.0], [q ** -0.5, 0.0]])
    if not (v.datum.components == (("A", 1),) and v.dim == 2
            and _h_vector(v).tolist() == [1.0, -1.0]
            and np.allclose(v.E[1], e_want, rtol=1e-12, atol=0)
            and np.allclose(v.F[1], f_want, rtol=1e-12, atol=0)):
        raise InputError("the Vogan block data need V to be the spin-1/2 "
                         "irrep of U_q(sl2)")


def spin_half_block(q, u, w2, g, phi_w2):
    """The twist braid on the weight block {e_m ox e_+, e_{m+1} ox e_-} of
    M_r ox V_{1/2}, as (B00, B01, B11) with B10 = -B01, from u = q^r,
    w2 = q^{2m+2}, g = 1 - w2 and phi_w2 = phi_{m+1} w2.

    This is the product R21_tilde (id ox nu)(R_tilde) (1 ox v^{-1}) on the
    block with phi_{m+1}^2 replaced by its radicand, which cancels the
    u q^{-2m} of the Cartan factor against the cross term: every entry is
    of size 1 at every level.  Only arithmetic, so that it evaluates on
    arrays and on symbols alike; g comes apart from w2 so that it keeps
    its digits when w2 is close to 1."""
    v_inv = q ** -1.5
    return (v_inv * (u * q * q - g / u), (1 / q - q) * phi_w2 / (u * q),
            v_inv * w2 / u)


def _spin_half_blocks(module, q):
    """The twist braid on the 2x2 weight blocks m = 0 .. cap-2 of
    module ox V_{1/2}, stacked as an array of shape (cap-1, 2, 2)."""
    n = np.arange(1, module.dim)   # m + 1
    qn = q ** n.astype(float)
    phi = module.f_mat.diagonal(1).real
    b00, b01, b11 = spin_half_block(q, q ** module.r, qn * qn,
                                    -np.expm1(2 * n * math.log(q)),
                                    phi * qn * qn)
    return np.stack([np.stack([b00, b01], -1), np.stack([-b01, b11], -1)], -2)


def plain_block_eigenvalues(module, v, qp):
    """Eigenvalues of the plain (un-twisted) braid on each total-weight
    block, sorted descending by modulus and keyed by block weight.  The
    moduli are the invariant spectral data.  ``v`` must be V_{1/2}: the
    blocks are the closed form of ``spin_half_block``, and only the
    singletons e_0 ox e_- and e_{cap-1} ox e_+ have their own entry."""
    q = qp.q
    _require_spin_half(v, q)
    try:
        top = q ** (module.r + 0.5 - 2 * module.dim)   # on e_{cap-1} ox e_+
    except OverflowError:
        raise ResourceError(
            f"the braid on the top level overflows double precision "
            f"(q = {q}, {module.dim} levels)") from None
    h = _total_h(module, v).reshape(-1, 2)
    # twist_to_plain on a block: K_chi^{-1} is (-i, i) on (e_+, e_-)
    evals = np.linalg.eigvals(_spin_half_blocks(module, q)
                              * np.array([-1j, 1j]))
    out = {_weight_key(h[0, 1]): [1j * q ** (-module.r - 1.5)]}
    for m, pair in enumerate(evals):
        out[_weight_key(h[m, 0])] = sorted(pair, key=lambda z: -abs(z))
    out[_weight_key(h[-1, 0])] = [-1j * top]
    return out


def spin_half_transfer(q, phi_m, phi_next, sign):
    """alpha(F^*) from the weight block m-1 of M_r ox V_{1/2} to block m,
    in the block coordinates (e_m ox e_+, e_{m+1} ox e_-), as
    (T00, T01, T11) with T10 = 0, from phi_m and phi_next = phi_{m+1}: the
    plain coaction for sign +1, the nu-twisted one for sign -1.  Only
    arithmetic, like ``spin_half_block``."""
    return phi_m / q, sign * q ** -0.5, q * phi_next


def _transfers(module, q, sign):
    """``spin_half_transfer`` for m = 0 .. cap-2, stacked as an array of
    shape (cap-1, 2, 2).  Block -1 is e_0 ox e_- (phi_0 = 0)."""
    phi = np.concatenate(([0.0], module.f_mat.diagonal(1).real))
    t00, t01, t11 = spin_half_transfer(q, phi[:-1], phi[1:], sign)
    out = np.zeros((module.dim - 1, 2, 2))
    out[:, 0, 0] = t00
    out[:, 0, 1] = t01
    out[:, 1, 1] = t11
    return out


def _normalised(a, b):
    """a and b divided by one common factor, the largest entry of either,
    so that their ratio is kept and no squared norm can overflow."""
    scale = np.abs(np.concatenate((a, b))).max()
    return a / scale, b / scale


def e_matrix_component_scalars(module, v, qp):
    """The braid's scalars on the two fused components, per total-weight
    block of the interior.

    The braid maps the ladder generated from the bottom vector under the
    nu-twisted coaction onto the ladder generated under the plain coaction;
    the scalar mu on these sub-lines and the scalar lam induced on the
    quotient are canonical.  Returns {weight: (mu, lam)} together with the
    worst parallelism defect, as ({...}, defect).

    ``v`` must be V_{1/2}.  The chains run through the closed-form 2x2
    blocks of ``spin_half_block``, both chains of a pair normalised by one
    common factor at every step: O(levels), and finite at every level."""
    q = qp.q
    _require_spin_half(v, q)
    if module.dim < 4:
        return {}, 0.0   # no level lies 3 below the cap
    h = _total_h(module, v).reshape(-1, 2)
    blocks = _spin_half_blocks(module, q)
    plain, twisted = _transfers(module, q, 1), _transfers(module, q, -1)
    # e_0 ox e_-, lowest for both actions, is its own block (block -1)
    out = {_weight_key(h[0, 1]): (complex(q ** (-module.r - 1.5)), None)}
    sub = sub_tw = np.array([0.0, 1.0])
    # e_0 ox e_+ generates the quotient classes
    quot = quot_tw = np.array([1.0, 0.0])
    defect = 0.0
    for m in range(module.dim - 4):   # blocks with no level in the top 3
        sub, sub_tw = _normalised(plain[m] @ sub, twisted[m] @ sub_tw)
        if m:
            quot, quot_tw = _normalised(plain[m] @ quot, twisted[m] @ quot_tw)
        img = blocks[m] @ sub_tw
        nrm2 = sub @ sub
        mu = (sub @ img) / nrm2
        defect = max(defect, np.linalg.norm(img - mu * sub) / math.sqrt(nrm2))
        # annihilator of the sub-line, against canonical quotient reps
        vperp = np.array([-sub[1], sub[0]])
        lam = (vperp @ (blocks[m] @ quot_tw)) / (vperp @ quot)
        out[_weight_key(h[m, 0])] = (complex(mu), complex(lam))
    return out, defect


def fusion_check(module, v, qp):
    """Lowest-weight vectors of module ox V inside the truncation: kernel
    of F within each interior weight block.  Returns
    {weight: multiplicity}.

    F = F_M ox K^{-1} + 1 ox F lowers the weight by 2, so on the columns of
    weight h only the rows of weight h - 2 can be nonzero: each kernel is
    taken on that block of at most dim V rows, and no coaction matrix on
    module ox V is formed.  ConsistencyError if F_M or F on V moves a
    weight by anything but -2."""
    if module.dim < 3:
        raise InputError("truncation too small for a fusion check")
    f_v = v.F[1]
    for mat, h in ((module.f_mat, module.h_diag), (f_v, _h_vector(v))):
        stray = sorted(s for s in _shift_maxima(mat, h) if s != -2.0)
        if stray:
            raise ConsistencyError(f"F moves weights by {stray}, not only -2")
    kv_inv = 1 / v.k_diag(v.datum.simple_root(1))
    groups = weight_blocks(module, v)
    n_interior = len(interior_indices(module, v.dim, 2))
    out = {}
    for hval, idx in groups.items():
        if idx[-1] >= n_interior:
            continue
        x_col, a_col = np.divmod(np.array(idx), v.dim)
        rows = np.array(groups.get(_weight_key(hval - 2), []), dtype=int)
        x_row, a_row = np.divmod(rows[:, None], v.dim)
        # the entries of kron(F_M, diag(K^{-1})) + kron(1, F) there
        f_blk = module.f_mat[x_row, x_col] \
            * ((a_row == a_col) * kv_inv[a_col]) \
            + (x_row == x_col) * f_v[a_row, a_col]
        dim_ker = kernel(f_blk, 1e-9)[0].shape[1]
        if dim_ker:
            out[hval] = dim_ker
    return out
