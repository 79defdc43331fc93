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

with both R-factors the rank-one series sum_n c_n X^n ox Y^n q^{-H ox H/2}
of ``blocks.series_blocks`` (c_n by its running product), where
(X, Y) = (F, E) for the flipped factor and (K F^*, -F) for the twisted one,
from nu_q(F) = -F.  Every factor preserves total weight, so the braid on
any module ox V is block-diagonal in it.
``braid_blocks`` builds it block by block (``qsp.blocks.WeightBlocks``,
keyed by the integer levels of the ladder), raises ResourceError
when a block overflows, and is ``rootsys.kept`` in the module's cache, as
are ``coaction_tensor`` and ``nu_module``; ``e_matrix`` scatters these
blocks into a dense matrix.  ``qsp.harness.vogan_axioms``
multiplies such operators on M ox U ox V, each factor gathered once by
``qsp.blocks.leg_blocks`` on one product index (blocks of size at most 4),
and ``fusion_check`` takes the kernel of F between neighbouring blocks.
On M_r ox V_{1/2} the blocks are 2x2; the spectral data and the component
scalars are read from their closed form, ``spin_half_block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (WeightBlocks, leg_blocks, leg_entries, moves_only_by,
                     product_blocks, series_blocks, shape_runs, shift_maxima,
                     stack)
from .errors import ConsistencyError, InputError, ResourceError
from .rootsys import kept, read_only
from .uqrep import WeightModule, kron, null_mask, ribbon_diag

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
    the top boundary).  ``levels`` are the weights plus r, exact integers.
    ``cache`` keeps the coaction products and twist braids built from it."""

    r: float
    qp: object
    k_diag: np.ndarray
    f_mat: np.ndarray
    h_diag: np.ndarray
    levels: np.ndarray
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def dim(self):
        return len(self.k_diag)

    def numerators(self):
        """The levels as integer rows over 1, like ``WeightModule``'s."""
        return self.levels[:, None], 1


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
    return TruncatedModule(r, qp, k, f, h, 2 * np.arange(cap))


def _h_vector(v):
    """H-eigenvalues of the basis of V."""
    return np.array([float(w.coords[0]) for w in v.weights])


def _total_h(module, v):
    """H-eigenvalues of the basis of module ox V (first leg major)."""
    return (module.h_diag[:, None] + _h_vector(v)[None, :]).reshape(-1)


@kept(lambda module, v: ("coaction", v))
def coaction_tensor(module, v):
    """K, F, H and the levels on M ox V through the coaction, as a
    TruncatedModule over the product space; built once per V and kept
    read-only in ``module.cache``."""
    kv = v.k_diag(v.datum.simple_root(1))
    f = kron(module.f_mat, np.diag(1 / kv)) + kron(np.eye(module.dim), v.F[1])
    wts = np.array([w.coords[0] for w in v.weights], dtype=np.int64)
    return TruncatedModule(module.r, module.qp, *read_only(
        [kron(module.k_diag, kv), f, _total_h(module, v),
         (module.levels[:, None] + wts).reshape(-1)]))


# ---------------------------------------------------------------------------
# operators by total-weight blocks
# ---------------------------------------------------------------------------

def _weight_key(hval):
    return round(float(hval), 9)


@kept(lambda module, v, qp: ("braid", v, qp))
@np.errstate(all="ignore")
def braid_blocks(module, v, qp):
    """The twist braid on module ox V as ``WeightBlocks``, built once per
    (V, qp) and kept read-only in ``module.cache``:

    R21_tilde = (sum c_n F^n ox E^n) q^{-H ox H/2} and
    (id ox nu)(R_tilde) = (sum c_n (K F^*)^n ox (-F)^n) q^{-H ox H/2},
    both ``blocks.series_blocks``; they terminate by nilpotency on V.  The
    last factor is the inverse ribbon scalar on V (blockwise for reducible
    V).  The products run on the stacked blocks."""
    q = qp.q
    index = product_blocks(module, v)
    kfs = module.k_diag[:, None] * module.f_mat.conj().T
    cart = np.exp(np.log(q) * (-np.outer(module.h_diag, _h_vector(v)) / 2)) \
        .reshape(-1).astype(complex)[index.entries[1]]
    a_series = series_blocks(index, module.f_mat, v.E[1], q)
    b_series = series_blocks(index, kfs, -v.F[1], q)
    v_inv = leg_blocks(index, (1,), np.linalg.inv(ribbon_diag(v)))
    # the Cartan factor scales the columns of each block
    ab = WeightBlocks(index, a_series.data * cart) @ b_series
    out = WeightBlocks(index, ab.data * cart) @ v_inv
    # the ladder powers overflow at small q and many levels
    if not np.isfinite(out.data).all():
        raise ResourceError("the braid blocks overflow double precision")
    return WeightBlocks(index, read_only(out.data), out.off_block)


def e_matrix(module, v, qp):
    """The twist braid on module ox V as a dense matrix: the blocks of
    ``braid_blocks`` scattered, zero between blocks."""
    return braid_blocks(module, v, qp).dense()


@kept(lambda v: ("nu",))
def nu_module(v):
    """The Vogan involution on su2 modules: E -> -E, F -> -F, K -> K; built
    once per module and kept in ``v.cache``, so the R-matrices against it
    are kept too."""
    return WeightModule(v.datum, v.qp, list(v.weights),
                        {1: read_only(-v.E[1])}, {1: read_only(-v.F[1])},
                        highest=v.highest, label=v.label + "^nu")


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


@np.errstate(all="ignore")
def _spin_half_blocks(module, q):
    """``spin_half_block`` on the weight blocks m = 0 .. cap-2 of
    module ox V_{1/2}, as arrays (B00, B01, B11) over m, or ResourceError
    if one overflows: one evaluation for both readers, as numpy's pow and
    expm1 differ from math's in the last bit at some levels, and at the
    q = 0.05 wall of the chains one bit moves a scalar by its own size."""
    n = np.arange(1, module.dim)   # m + 1
    qn = q ** n.astype(float)
    phi = module.f_mat.diagonal(1).real
    blocks = spin_half_block(q, q ** module.r, qn * qn,
                             -np.expm1(2 * n * math.log(q)), phi * qn * qn)
    if not np.isfinite(blocks).all():
        raise ResourceError("the braid blocks overflow double precision")
    return blocks


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
    b00, b01, b11 = _spin_half_blocks(module, q)
    blocks = np.moveaxis(np.array([[b00, b01], [-b01, b11]]), -1, 0)
    # twist_to_plain on a block: K_chi^{-1} is (-i, i) on (e_+, e_-)
    evals = np.linalg.eigvals(blocks * np.array([-1j, 1j]))
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


def _normalised(a, b, c, d):
    """The vectors (a, b) and (c, d) divided by their largest entry, so that
    their ratio is kept and no squared norm can overflow (0/0 gives nan)."""
    scale = max(abs(a), abs(b), abs(c), abs(d)) or math.nan
    return a / scale, b / scale, c / scale, d / scale


def _div(a, b):
    """a / b as an array division: inf or nan where b is 0, where a float
    division raises."""
    return a / b if b else (a * math.inf if a else math.nan)


def e_matrix_component_scalars(module, v, qp):
    """The braid's scalars on the two fused components, per total-weight
    block of the interior.

    The braid maps the ladder generated from the bottom vector under the
    nu-twisted coaction onto the ladder generated under the plain coaction;
    the scalar mu on these sub-lines and the scalar lam induced on the
    quotient are canonical.  Returns {weight: (mu, lam)} together with the
    worst parallelism defect, as ({...}, defect).

    ``v`` must be V_{1/2}.  The chains run in float arithmetic, one level per
    step, through ``spin_half_transfer`` and the blocks of
    ``spin_half_block``, both chains of a pair normalised by one common
    factor at every step: O(levels), and finite at every level."""
    q = qp.q
    _require_spin_half(v, q)
    if module.dim < 4:
        return {}, 0.0   # no level lies 3 below the cap
    h = module.h_diag.tolist()
    phi = [0.0, *module.f_mat.diagonal(1).real.tolist()]   # phi_0 = 0
    b00, b01, b11 = (arr.tolist() for arr in _spin_half_blocks(module, q))
    # e_0 ox e_-, lowest for both actions, is its own block (block -1)
    out = {_weight_key(h[0] - 1.0): (complex(q ** (-module.r - 1.5)), None)}
    s0, s1, w0, w1 = 0.0, 1.0, 0.0, 1.0   # the sub-lines, plain and twisted
    defect = 0.0
    for m in range(module.dim - 4):   # blocks with no level in the top 3
        t00, t01, t11 = spin_half_transfer(q, phi[m], phi[m + 1], 1)
        # the nu-twisted transfer differs in the sign of T01 alone
        s0, s1, w0, w1 = _normalised(t00 * s0 + t01 * s1, t11 * s1,
                                     t00 * w0 - t01 * w1, t11 * w1)
        c00, c01, c11 = b00[m], b01[m], b11[m]   # B10 = -B01
        img0, img1 = c00 * w0 + c01 * w1, c11 * w1 - c01 * w0
        nrm2 = s0 * s0 + s1 * s1
        mu = _div(s0 * img0 + s1 * img1, nrm2)
        defect = max(defect, _div(math.hypot(img0 - mu * s0, img1 - mu * s1),
                                  math.sqrt(nrm2)))
        # (-s1, s0) annihilates the sub-line; e_0 ox e_+ generates the
        # quotient classes, and T is upper triangular, so the plain and
        # twisted quotient representatives stay (1, 0) at every level
        lam = _div(-(s0 * c01) - s1 * c00, -s1)
        out[_weight_key(h[m] + 1.0)] = (complex(mu), complex(lam))
    return out, defect


def fusion_check(module, v, qp):
    """Lowest-weight vectors of module ox V inside the truncation: kernel
    of F within each interior weight block.  Returns
    {weight: multiplicity}.

    F = F_M ox K^{-1} + 1 ox F lowers the weight by 2, so on the columns of
    weight h only the rows of weight h - 2 can be nonzero: F's entries are
    gathered on the block pairs of ``BlockIndex.shifted(-2)``, 16 pairs at a
    time (larger gathers raise the process's peak memory by up to 0.5 MB),
    and their kernels taken by one SVD per pair shape; a block with none
    below is all kernel.  No coaction matrix on module ox V is formed.
    ConsistencyError if F_M or F on V moves a weight by anything but -2."""
    if module.dim < 3:
        raise InputError("truncation too small for a fusion check")
    f_v = v.F[1]
    index = product_blocks(module, v)   # keys: M by levels, V by weights
    for mat, keys in zip((module.f_mat, f_v), index.keys):
        stray = [] if moves_only_by(mat, keys, -2) else sorted(
            float(s) for s, in shift_maxima(mat, keys) if s != -2)
        if stray:
            raise ConsistencyError(f"F moves weights by {stray}, not only -2")
    kv_inv = 1 / v.k_diag(v.datum.simple_root(1))
    first = index.members[index.starts]
    last = index.members[index.starts + index.sizes - 1]
    dims = np.where(last < len(interior_indices(module, v.dim, 2)),
                    index.sizes, 0)
    tgt, src = index.shifted(-2)
    tgt, src = tgt[dims[src] > 0], src[dims[src] > 0]
    at = np.concatenate(([0], np.cumsum(index.sizes[tgt] * index.sizes[src])))
    f_blk = np.empty(at[-1], dtype=complex)
    for c in range(0, len(src), 16):
        rows, cols = index.pair_entries(tgt[c:c + 16], src[c:c + 16])[:2]
        # the entries of kron(F_M, diag(K^{-1})) + kron(1, F) there
        f_blk[at[c]:at[c] + len(rows)] = leg_entries(
            index.dims, rows, cols,
            [((0,), module.f_mat), ((1,), np.diag(kv_inv))], [((1,), f_v)])
    for p, count, a, b in shape_runs(index.sizes[tgt], index.sizes[src]):
        sv = np.linalg.svd(stack(f_blk, at[p], count, a, b), compute_uv=False)
        dims[src[p:p + count]] = null_mask(sv, b, 1e-9).sum(-1)
    h = _total_h(module, v)
    return {_weight_key(h[first[b]]): int(dims[b]) for b in
            sorted(np.flatnonzero(dims).tolist(), key=first.__getitem__)}
