"""Rank-one lowest-weight *-representations of the Vogan-side twisted
double, and the explicit twist braid.

The module M_r is spanned by an orthonormal ladder e_0, e_1, ... with

    K e_n = q^{-r+2n} e_n,
    q^{1/2} (q^{-1} - q) F e_n = q^{-n} ((1-q^{2n})(1+q^{2r+2-2n}))^{1/2} e_{n-1},

truncated at a level cap N; the top boundary rows of F^* are invalid and
excluded from residual checks.

The braid is

    E = R21_tilde (id ox nu_q)(R_tilde) (1 ox v^{-1}),

with both R-factors given by the rank-one series
sum_n c_n X^n ox Y^n q^{-H ox H / 2}, c_n = (q^{-1}-q)^n q^{-n(n-1)/2}/[n]_q!,
where (X, Y) = (F, E) for the flipped factor and (K F^*, F), with the sign
twist from nu_q(F) = -F, for the twisted one.  ``e_matrix`` forms it as a
dense matrix on any module ox V; on M_r ox V_{1/2} it is block-diagonal in
total weight, and the spectral data are read from the closed-form 2x2
blocks of ``spin_half_block``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceError
from .rootsys import qfact
from .uqrep import WeightModule, kernel, ribbon_diag


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
    """Level-capped lowest-weight module: K diagonal, F lowering, F^* the
    adjoint of F on M_r and the coaction of F^* on a product (invalid on
    the top boundary either way)."""

    r: float
    qp: object
    cap: int
    k_diag: np.ndarray
    f_mat: np.ndarray
    fstar: np.ndarray
    h_diag: np.ndarray
    label: str = ""

    @property
    def dim(self):
        return len(self.k_diag)


def interior_indices(module, dv, margin):
    """Indices of module ox V (dim V = dv) on levels at least ``margin``
    below the cap."""
    return np.arange((module.dim - margin) * dv)


def build_Mr(r, qp, cap):
    """Truncation of M_r to levels 0..cap-1."""
    if cap < 2:
        raise InputError("truncation needs at least two levels")
    if abs(np.imag(r)) > 1e-14:
        raise InputError("the lowest-weight parameter r must be real")
    r = float(np.real(r))
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
    return TruncatedModule(r, qp, cap, k, f, f.conj().T, h, label=f"M[{r}]")


def relations_residual(module):
    """Residuals of the three defining relations on the interior."""
    q = module.qp.q
    k = np.diag(module.k_diag)
    f = module.f_mat
    fs = module.fstar
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


def _total_h(module, v):
    """H-eigenvalues of the basis of module ox V."""
    return (module.h_diag[:, None] + _h_vector(v)[None, :]).reshape(-1)


def coaction_tensor(module, v):
    """Action matrices on M ox V through the coaction, as a
    TruncatedModule over the product space."""
    kv = v.k_diag(v.datum.simple_root(1))
    kv_inv = 1 / kv
    eye_m = np.eye(module.dim)
    f = np.kron(module.f_mat, np.diag(kv_inv)) + np.kron(eye_m, v.F[1])
    # F^* viewed abstractly: F*_M ox K^{-1} + 1 ox K^{-1} E
    fstar = np.kron(module.fstar, np.diag(kv_inv)) \
        + np.kron(eye_m, kv_inv[:, None] * v.E[1])
    return TruncatedModule(module.r, module.qp, module.cap,
                           np.kron(module.k_diag, kv), f, fstar,
                           _total_h(module, v), label=f"{module.label}(.)V")


def su2_series_coeff(n, q):
    """c_n = (q^{-1}-q)^n q^{-n(n-1)/2} / [n]_q!."""
    return (1 / q - q) ** n * q ** (-n * (n - 1) / 2) / qfact(n, q)


def e_matrix(module, v, qp):
    """The twist braid on module ox V.

    R21_tilde = (sum c_n F^n ox E^n) q^{-H ox H/2} and
    (id ox nu)(R_tilde) = (sum c_n (-1)^n (K F^*)^n ox F^n) q^{-H ox H/2};
    both series terminate by nilpotency on V.  The last factor is the
    inverse ribbon scalar on V (blockwise for reducible V)."""
    q = qp.q
    dv = v.dim
    dm = module.dim
    kfs = module.k_diag[:, None] * module.fstar
    ev = v.E[1]
    fv = v.F[1]
    cartan = np.exp(np.log(q) * (-np.outer(module.h_diag, _h_vector(v)) / 2))
    cartan = cartan.reshape(-1).astype(complex)

    a_series = np.eye(dm * dv, dtype=complex)
    b_series = np.eye(dm * dv, dtype=complex)
    f_pow = np.eye(dm, dtype=complex)
    e_pow = np.eye(dv, dtype=complex)
    kfs_pow = np.eye(dm, dtype=complex)
    fv_pow = np.eye(dv, dtype=complex)
    for n in range(1, dv):
        f_pow = f_pow @ module.f_mat
        e_pow = e_pow @ ev
        kfs_pow = kfs_pow @ kfs
        fv_pow = fv_pow @ fv
        c = su2_series_coeff(n, q)
        a_series += c * np.kron(f_pow, e_pow)
        b_series += c * (-1) ** n * np.kron(kfs_pow, fv_pow)

    v_inv = np.linalg.inv(ribbon_diag(v))
    out = ((a_series * cartan) @ b_series) * cartan
    # 1 ox v^{-1}: v^{-1} on the V leg of every column index
    return (out.reshape(-1, dv) @ v_inv).reshape(dm * dv, dm * dv)


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
             (prod.f_mat, prod_tw.f_mat), (prod.fstar, prod_tw.fstar)]
    return _masked_commutator(e_matrix(module, v, qp), pairs,
                              interior_indices(module, v.dim, 3))


def nu_module(v):
    """The Vogan involution on su2 modules: E -> -E, F -> -F, K -> K."""
    return WeightModule(v.datum, v.qp, list(v.weights),
                        {1: -v.E[1]}, {1: -v.F[1]},
                        highest=v.highest, label=v.label + "^nu")


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
    mats = (np.diag(prod.k_diag), prod.f_mat, prod.fstar)
    return _masked_commutator(plain, [(mat, mat) for mat in mats],
                              interior_indices(module, v.dim, 3))


def _weight_key(hval):
    return round(float(hval), 9)


def weight_blocks(module, v):
    """Total-weight spaces of module ox V as index lists, keyed by the
    H-eigenvalue."""
    blocks = {}
    for i, hval in enumerate(_total_h(module, v)):
        blocks.setdefault(_weight_key(hval), []).append(i)
    return blocks


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
    n = np.arange(1, module.cap)   # m + 1
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
        top = q ** (module.r + 0.5 - 2 * module.cap)   # on e_{cap-1} ox e_+
    except OverflowError:
        raise ResourceError(
            f"the braid on the top level overflows double precision "
            f"(q = {q}, {module.cap} levels)") from None
    h = _total_h(module, v).reshape(-1, 2)
    # twist_to_plain on a block: K_chi^{-1} is (-i, i) on (e_+, e_-)
    evals = np.linalg.eigvals(_spin_half_blocks(module, q)
                              * np.array([-1j, 1j]))
    out = {_weight_key(h[0, 1]): [1j * q ** (-module.r - 1.5)]}
    for m, pair in enumerate(evals):
        out[_weight_key(h[m, 0])] = sorted(pair, key=lambda z: -abs(z))
    out[_weight_key(h[-1, 0])] = [-1j * top]
    return out


def _transfers(module, q, sign):
    """alpha(F^*) from block m-1 to block m, for m = 0 .. cap-2, in the
    block coordinates (e_m ox e_+, e_{m+1} ox e_-): the plain coaction for
    sign +1, the nu-twisted one for sign -1.  Block -1 is e_0 ox e_-."""
    phi = np.concatenate(([0.0], module.f_mat.diagonal(1).real))
    out = np.zeros((module.cap - 1, 2, 2))
    out[:, 0, 0] = phi[:-1] / q
    out[:, 0, 1] = sign * q ** -0.5
    out[:, 1, 1] = q * phi[1:]
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
    if module.cap < 4:
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
    for m in range(module.cap - 4):   # blocks with no level in the top 3
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
    {weight: multiplicity}."""
    if module.cap < 3:
        raise InputError("truncation too small for a fusion check")
    f_mat = coaction_tensor(module, v).f_mat
    n_interior = len(interior_indices(module, v.dim, 2))
    out = {}
    for hval, idx in weight_blocks(module, v).items():
        if idx[-1] >= n_interior:
            continue
        dim_ker = kernel(f_mat[:, idx], 1e-9)[0].shape[1]
        if dim_ker:
            out[hval] = dim_ker
    return out
