"""Numerical monodromy of the modified two-pole-plus-origin first-order
system

    H'(w) = ( b_- / (w+1) + a / w + b_+ / (w-1) ) H(w)

on (0, 1): Frobenius expansions H_0 ~ w^a at 0 and H_1 ~ (1-w)^{b_+} at 1,
both convergent on all of (0, 1), and the connection matrix
Psi = H_1(w)^{-1} H_0(w), checked to be independent of the match point w.
The series of one ``psi`` or ``psi_pair`` advance together, one stacked
product per order, and are summed at the match points as they run.  Under
w -> -w, swapping b_+ and b_- turns the series at 0 into c_m -> (-1)^m c_m,
bit for bit, so ``psi_pair`` sums one series at 0 at +-x for both.

The coefficient matrices for a symmetric pair are

    a = hbar (2 t^k_01 + C^k_1),  b_+ = hbar t_12,  b_- = hbar (t^k - t^m)_12

acting on X0 ox V1 ox V2, with the splitting t = t^k + t^m induced by the
involution ``SIGMA`` (e -> -f, f -> -e, h -> -h), to which every
involution of su2 is conjugate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import pattern_blocks
from .errors import AccuracyError, InputError, ResonanceError, ResourceError
from .rmatrix import op_on_legs
from .rootsys import kept, read_only
from .uqrep import intertwiners, kron, relative

_EPS = np.finfo(float).eps

# the standard involution of sl2, as columns of images over (e, f, h)
SIGMA = np.array([[0, -1, 0], [-1, 0, 0], [0, 0, -1]], dtype=complex)
SIGMA.setflags(write=False)
# Psi at MATCH_POINTS[0], the spread at the others; each series grows until
# its tail bound at its farthest match point is below TAIL_TARGET
MATCH_POINTS = (0.5, 0.4, 0.6)
TAIL_TARGET = 1e-12
# the start point and tolerances of mkz_consistency
DELTA = 0.1
RTOL = 1e-10
ATOL = 1e-12

# [13/13] Pade coefficients b_0, ..., b_13 of exp, and theta_13: the largest
# eta of the scaled matrix at which that approximant meets double precision
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _hermitian(mat, sign=1):
    """True when mat equals sign times its conjugate transpose to roundoff
    (sign -1: skew-Hermitian); a large mat is scaled by a power of two first
    (exact), so that no norm overflows."""
    scale = np.abs(mat).max(initial=0.0)
    if scale > 1:
        mat = mat * 2.0 ** -math.frexp(scale)[1]
    tol = mat.shape[0] * _EPS * np.linalg.norm(mat)
    adj = mat.conj().T
    return np.linalg.norm(mat - adj if sign > 0 else mat + adj) <= tol


def _expm(a):
    """e^a by [13/13] Pade scaling and squaring (Al-Mohy and Higham, SIAM
    J. Matrix Anal. Appl. 31(3), 2009): 2^{-s} a with s from
    eta = max(|a^6|_1^{1/6}, |a^8|_1^{1/8}) against theta_13.  eta is at
    most |a|_1 and squares less often; each squaring adds rounding error.  A
    diagonal a is exponentiated entrywise; the result for a Hermitian a is
    made exactly Hermitian."""
    a = np.asarray(a)
    diag = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return np.diag(np.exp(diag))
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eta = max(np.linalg.norm(a6, 1) ** (1 / 6),
              np.linalg.norm(a4 @ a4, 1) ** (1 / 8))
    if not math.isfinite(eta):
        raise ResourceError("a matrix exponent overflows double precision")
    s = max(0, math.ceil(math.log2(eta / _THETA13))) if eta else 0
    if s:
        a, a2, a4, a6 = (a / 2 ** s, a2 / 4 ** s, a4 / 16 ** s,
                         a6 / 64 ** s)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    if _hermitian(a):
        out = (out + out.conj().T) / 2
    return out


def spin_matrices(j2):
    """Classical spin-j matrices (j2 = 2j), basis m = j, j-1, ..., -j:
    [h,e] = 2e, [e,f] = h, e^* = f."""
    if j2 < 0 or int(j2) != j2:
        raise InputError("spin label must be a nonnegative integer (2j)")
    dim = j2 + 1
    e = np.zeros((dim, dim))
    f = np.zeros((dim, dim))
    h = np.zeros((dim, dim))
    for idx in range(dim):
        m2 = j2 - 2 * idx  # 2m
        h[idx, idx] = m2
        if idx > 0:
            # e |j,m> = sqrt((j-m)(j+m+1)) |j,m+1>
            j, m = j2 / 2, m2 / 2
            e[idx - 1, idx] = math.sqrt((j - m) * (j + m + 1))
        if idx < dim - 1:
            j, m = j2 / 2, m2 / 2
            f[idx + 1, idx] = math.sqrt((j + m) * (j - m + 1))
    return e, f, h


def _star_coeffs(vec):
    """*-structure on sl2 coefficient vectors over (e, f, h):
    e* = f, f* = e, h* = h, antilinear."""
    e, f, h = vec
    return np.array([np.conj(f), np.conj(e), np.conj(h)])


def _herm_form(x, y):
    """<x, y> = (x, y^*) with (e,f) = 1, (h,h) = 2."""
    ys = _star_coeffs(y)
    return x[0] * ys[1] + x[1] * ys[0] + 2 * x[2] * ys[2]


@dataclass
class SymPairTensors:
    """Split invariant tensors of sl2 for the involution ``SIGMA``.

    ``plus_basis`` / ``minus_basis`` are orthonormal bases of the +-1 / -1
    eigenspaces as coefficient vectors over (e, f, h); ``cache`` keeps the
    matrices derived from them per spin.
    """

    plus_basis: list
    minus_basis: list
    cache: dict = field(default_factory=dict)

    @kept(lambda ts, j2: ("rep", j2))
    def rep(self, j2):
        """The spin matrices composed with the *-automorphism e -> (e+f)/2 +
        ih/2, f -> (e+f)/2 - ih/2, h -> i(e-f) (exact in floating point): it
        takes f - e, which spans k, to -ih, so this is the k-weight basis."""
        e, f, h = spin_matrices(j2)
        half = (e + f) / 2
        return np.array([half + 0.5j * h, half - 0.5j * h, 1j * (e - f)])

    def vec_matrix(self, vec, j2):
        e, f, h = self.rep(j2)
        return vec[0] * e + vec[1] * f + vec[2] * h

    @kept(lambda ts, j2: ("sigma_matrix", j2))
    def sigma_matrix(self, j2):
        """Unitary implementing sigma on spin j, normalized to square to 1."""
        pairs = [(self.vec_matrix(vec, j2),
                  self.vec_matrix(SIGMA @ vec, j2))
                 for vec in np.eye(3)]
        basis = intertwiners(pairs, 1e-9)
        if len(basis) != 1:
            raise InputError("sigma does not integrate uniquely on this spin")
        s = basis[0]
        return s / np.sqrt(np.trace(s @ s) / (j2 + 1))

    def pair_tensor(self, basis, j2a, j2b):
        """sum_i X_i^* ox X_i over a basis, on spin j2a ox spin j2b."""
        da, db = j2a + 1, j2b + 1
        out = np.zeros((da * db, da * db), dtype=complex)
        for vec in basis:
            xs = self.vec_matrix(_star_coeffs(vec), j2a)
            x = self.vec_matrix(vec, j2b)
            out += kron(xs, x)
        return out

    @kept(lambda ts, j2a, j2b: ("t_full", j2a, j2b))
    def t_full(self, j2a, j2b):
        return self.pair_tensor(self.plus_basis + self.minus_basis, j2a, j2b)

    @kept(lambda ts, j2a, j2b: ("t_k", j2a, j2b))
    def t_k(self, j2a, j2b):
        return self.pair_tensor(self.plus_basis, j2a, j2b)

    @kept(lambda ts, j2a, j2b: ("t_m", j2a, j2b))
    def t_m(self, j2a, j2b):
        return self.pair_tensor(self.minus_basis, j2a, j2b)

    @kept(lambda ts, j2: ("casimir_k", j2))
    def casimir_k(self, j2):
        dim = j2 + 1
        out = np.zeros((dim, dim), dtype=complex)
        for vec in self.plus_basis:
            out += self.vec_matrix(_star_coeffs(vec), j2) \
                @ self.vec_matrix(vec, j2)
        return out

    def character_values(self, lam):
        """chi_lam on the +-eigenspace basis, fixed by chi(f - e) = i lam:
        the fixed subalgebra of ``SIGMA`` is spanned by f - e."""
        # normalize against (f - e)/sqrt(2)
        ref = np.array([-1.0, 1.0, 0.0]) / math.sqrt(2)
        return [1j * lam / math.sqrt(2) * _herm_form(self.plus_basis[0], ref)]


def split_tensors():
    """SymPairTensors of ``SIGMA`` from its eigenvectors f - e (+1), e + f
    and h (-1), written out and orthonormalized: in the k-weight basis a of
    ``kz_coeffs`` is exactly diagonal, and b_+, b_- are exactly 0.0 between
    different total k-weights."""
    plus, e_f, h = np.array([[-1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    return SymPairTensors(_orthonormalize([plus]), _orthonormalize([e_f, h]))


def _orthonormalize(vecs):
    out = []
    for v in vecs:
        for u in out:
            v = v - _herm_form(v, u) * u
        nrm = _herm_form(v, v)
        if abs(nrm) < 1e-12:
            continue
        out.append(v / math.sqrt(nrm.real))
    return out


# ---------------------------------------------------------------------------
# coefficient assembly
# ---------------------------------------------------------------------------

@kept(lambda tensors, lam, j2: ("leg_coeff", lam, j2))
def leg_coeff(tensors, lam, j2):
    """2 t^k_0 + C^k on chi_lam ox V_j2, as a matrix on V_j2."""
    chi = tensors.character_values(lam)
    tk0 = np.zeros((j2 + 1, j2 + 1), dtype=complex)
    for val, vec in zip(chi, tensors.plus_basis):
        # t^k_0 = sum_i chi(X_i^*) pi(X_i); express X_i^* in the basis
        c = _herm_form(_star_coeffs(vec), tensors.plus_basis[0])
        tk0 += (c * val) * tensors.vec_matrix(vec, j2)
    return 2 * tk0 + tensors.casimir_k(j2)


def kz_coeffs(tensors, lam, j2a, j2b, hbar):
    """(a, b_+, b_-) on chi_lam ox V_a ox V_b."""
    if abs(np.real(hbar)) > 1e-14:
        raise InputError("hbar must be purely imaginary")
    a = hbar * kron(leg_coeff(tensors, lam, j2a), np.eye(j2b + 1))
    b_plus = hbar * tensors.t_full(j2a, j2b)
    b_minus = hbar * (tensors.t_k(j2a, j2b) - tensors.t_m(j2a, j2b))
    return a, b_plus, b_minus


def a02_coeff(tensors, lam, j2a, j2b, hbar):
    """hbar (2 t^k_02 + C^k_2) on chi ox V_a ox V_b."""
    return hbar * kron(np.eye(j2a + 1), leg_coeff(tensors, lam, j2b))


def d_coeff(tensors, lam, j2a, j2b, hbar):
    """hbar (2 t^k_01 + 2 t^k_02 + 2 t^k_12 + C^k_1 + C^k_2)."""
    a = kz_coeffs(tensors, lam, j2a, j2b, hbar)[0]
    a02 = a02_coeff(tensors, lam, j2a, j2b, hbar)
    tk12 = hbar * tensors.t_k(j2a, j2b)
    return a + a02 + 2 * tk12


# ---------------------------------------------------------------------------
# the monodromy engine
# ---------------------------------------------------------------------------

@dataclass
class MonodromyProblem:
    """``series_order`` is the ceiling on each Frobenius series, which grows
    until its tail bound at its farthest match point is below
    ``TAIL_TARGET``."""

    a: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    series_order: int = 200

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.b_plus = np.asarray(self.b_plus, dtype=complex)
        self.b_minus = np.asarray(self.b_minus, dtype=complex)
        if not (self.a.shape == self.b_plus.shape == self.b_minus.shape):
            raise InputError("coefficient matrices must share a dimension")
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise InputError("coefficient matrices must be square")
        if not all(np.isfinite(m).all()
                   for m in (self.a, self.b_plus, self.b_minus)):
            raise InputError("coefficient matrices must be finite")


@dataclass
class MonodromyResult:
    psi: np.ndarray
    spread: float
    tail_bound: float
    eig_condition: float
    orders: tuple  # the stop orders of the series at 0 and at 1


def resonance_check(mat):
    """Eigenvalue pairs (i, j, nearest) whose difference lies within 1e-6
    of a nonzero integer, in row-major order."""
    return _resonant_pairs(np.linalg.eigvals(mat))


def _resonant_pairs(evals):
    diff = evals[:, None] - evals[None, :]
    nearest = np.round(diff.real)
    hits = np.argwhere((nearest != 0) & (np.abs(diff - nearest) < 1e-6))
    return [(int(i), int(j), int(nearest[i, j])) for i, j in hits]


_RESIDUE_MEMO = {}


def _decompose(res):
    """(T, Z, ``resonance_check``, eigenvector condition) of a residue, with
    res = Z T Z^H its complex Schur form, T and Z read-only; memoised for the
    life of the process on the residue's bytes.  A residue that is Hermitian
    or skew-Hermitian to roundoff is normal: one stacked ``eigh`` per block
    size over the ``pattern_blocks`` of its own nonzero pattern gives T
    diagonal and Z unitary, with the resonance pairs read off T and the
    largest condition of Z's blocks, one stacked ``cond`` per size.  Every
    KZ residue is hbar times a Hermitian matrix with hbar imaginary
    (``kz_coeffs``), which keeps scipy.linalg out of every KZ computation;
    only a non-normal residue, given directly to ``MonodromyProblem``, needs
    a general Schur form, which numpy lacks, and imports scipy for it (an
    optional install: without it, ResourceError)."""
    key = (res.shape, res.tobytes())
    if key in _RESIDUE_MEMO:
        return _RESIDUE_MEMO[key]
    skew = not _hermitian(res)
    if not skew or _hermitian(res, -1):
        herm = -1j * res if skew else res
        vals, z, cond = np.empty(len(res)), np.zeros_like(herm), 1.0
        for group in pattern_blocks(res != 0).groups:
            rows, cols = group[:, :, None], group[:, None, :]
            vals[group], zb = np.linalg.eigh(herm[rows, cols])
            z[rows, cols] = zb
            cond = max(cond, np.linalg.cond(zb).max())
        vals = 1j * vals if skew else vals.astype(complex)
        t, found = np.diag(vals), (_resonant_pairs(vals), cond)
    else:
        try:
            from scipy.linalg import schur
        except ImportError:
            raise ResourceError("a non-normal residue needs scipy for its "
                                "Schur form; install scipy") from None
        t, z = schur(res, output="complex")
        found = (resonance_check(res), np.linalg.cond(np.linalg.eig(res)[1]))
    _RESIDUE_MEMO[key] = dec = (read_only(t), read_only(z), *found)
    return dec


@np.errstate(over="ignore", invalid="ignore")
def _sylvester_series(jobs, order):
    """Frobenius series c_0 = 1, c_1, ... of a batch of jobs (T, Z, terms,
    points) of one dimension, each solving

        m c_m - [res, c_m] = sum over (s, M, r) in terms of s M A_m,
        A_m = sum_{k<m} r^{m-1-k} c_k,

    in the Schur basis res = Z T Z^H, summed at its points x as it runs:
    S(x) = sum c_m x^m.  Each term keeps A_{m+1} = r A_m + c_m; one stacked
    product per order serves every term of every series, on the padded
    first-fit ``packed`` slots of the ``pattern_blocks`` of the nonzero
    pattern shared by every T and Z^H M Z.  With T = D + N, each order
    divides by m + d_j - d_i and adds the finite Neumann series of
    X -> (N X - X N) / (m + d_j - d_i); N below roundoff is dropped.  A
    series stops once |c_m|_F x^m / (1 - x) at its farthest |x| is below
    ``TAIL_TARGET`` at two consecutive orders.  It fails with ResourceError
    at the first order whose tail bound is not finite, with AccuracyError at
    ``order``, or with ResonanceError at the first m >= 1 with |m + gap| <
    1e-9 (m = rint(-Re gap)), and then leaves the batch.  Returns, per job,
    its error or (its sums, stop order, tail bound)."""
    n = jobs[0][0].shape[0]
    mats = [[s * (z.conj().T @ m @ z) for s, m, _ in terms]
            for _, z, terms, _ in jobs]
    index = pattern_blocks(np.any([job[0] != 0 for job in jobs] + [
        m != 0 for terms in mats for m in terms], 0))
    rates = np.array([[[[[r]]] for _, _, r in job[2]] for job in jobs])
    gaps, nils, resonant = [], [], []
    for t, *_ in jobs:
        gap = np.diag(t)[None, :] - np.diag(t)[:, None]
        near = np.rint(-gap.real)
        hit = (near >= 1) & (np.abs(near + gap) < 1e-9)
        resonant.append(int(near[hit].min()) if hit.any() else None)
        nil = np.triu(t, 1)
        normal = np.linalg.norm(nil) <= n * _EPS * np.linalg.norm(t)
        nils.append(None if normal else index.gather(nil))
        gaps.append(gap)
    mats, gaps = index.gather(np.array(mats)), index.gather(np.array(gaps))
    owner = np.repeat(np.arange(len(jobs)), [len(job[3]) for job in jobs])
    fars = [max(abs(x) for x in job[3]) for job in jobs]
    xs = np.array([x for job in jobs for x in job[3]])
    sums, pw = np.zeros_like(mats), np.ones_like(xs)
    c = np.tile(index.gather(np.eye(n, dtype=complex)), (len(jobs), 1, 1, 1))
    vals = np.zeros((len(xs), *c.shape[1:]), dtype=complex)
    # buffers filled in place (at large n, fresh arrays cost more than the
    # arithmetic); real views scale by real factors
    prods, denom, part = (np.empty_like(x) for x in (sums, c, vals))
    live = list(range(len(jobs)))  # the job at each batch position
    out, below = [None] * len(jobs), [False] * len(jobs)
    for m in range(order + 1):
        if m:
            np.multiply(sums.view(float), rates, out=sums.view(float))
            sums += c[:, None]
            np.matmul(mats, sums, out=prods)
            np.add(gaps, m, out=denom)
            prods.sum(axis=1, out=c)
            c /= denom
            for pos, j in enumerate(live):
                if nils[j] is None:
                    continue
                corr = cj = c[pos]
                for _ in range(2 * n - 2):
                    corr = (nils[j] @ corr - corr @ nils[j]) / denom[pos]
                    cj = cj + corr
                    if np.linalg.norm(corr) <= _EPS * np.linalg.norm(cj):
                        break
                c[pos] = cj
        np.take(c, owner, axis=0, out=part, mode="clip")  # unbuffered copy
        np.multiply(part.view(float).T, pw, out=part.view(float).T)
        vals += part
        pw *= xs
        for pos, j in enumerate(live):
            norm = math.sqrt(np.vdot(c[pos], c[pos]).real)
            tail = norm * fars[j] ** m / (1 - fars[j])
            if not math.isfinite(tail):
                out[j] = ResourceError(
                    f"series overflows double precision at order {m}")
            elif below[j] and tail < TAIL_TARGET:
                out[j] = (list(index.scatter(vals[owner == pos])), m, tail)
            elif m == order:
                out[j] = AccuracyError(
                    f"series tail bound not reached at {fars[j]} by order "
                    f"{order}; raise series_order")
            elif resonant[j] == m + 1:
                out[j] = ResonanceError(
                    f"Sylvester denominator ~0 at order {m + 1} (resonance)")
            below[j] = tail < TAIL_TARGET
        keep = [out[j] is None for j in live]
        if not all(keep):
            kept = np.array(keep)[owner]
            owner = (np.cumsum(keep) - 1)[owner[kept]]
            live = [j for j, k in zip(live, keep) if k]
            if not live:
                break
            mats, rates, gaps, sums, c, prods, denom = (
                x[keep] for x in (mats, rates, gaps, sums, c, prods, denom))
            xs, pw, vals, part = (x[kept] for x in (xs, pw, vals, part))
    return out


def _job_at_zero(problem, points):
    """H_0 = Z (sum c_m w^m) w^T Z^H at ``points``, with the right-hand side
    sum_{k<m} ((-1)^{m-1-k} b_- - b_+) c_k; at -x, the mirror's H_0 at x."""
    return (*_decompose(problem.a)[:2], [(1.0, problem.b_minus, -1.0),
                                         (-1.0, problem.b_plus, 1.0)], points)


def _job_at_one(problem):
    """H_1 = Z (sum c_m (1-w)^m) (1-w)^T Z^H at the match points: the
    right-hand side is -sum_{k<m} (a + 2^{-(m-k)} b_-) c_k."""
    return (*_decompose(problem.b_plus)[:2], [(-1.0, problem.a, 1.0),
            (-0.5, problem.b_minus, 0.5)], [1 - p for p in MATCH_POINTS])


def _solutions(job, found):
    """Z S(x) |x|^T Z^H at each point x of a job, with the stop order and
    tail bound, from its ``_sylvester_series`` result; raises its error, or
    ResourceError if x^T overflows, as e^a from the Pade branch does."""
    if isinstance(found, Exception):
        raise found
    (t, z, _, points), (sums, order, tail) = job, found
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        powers = {d: _expm(math.log(d) * t) for d in {abs(x) for x in points}}
    if not all(np.isfinite(p).all() for p in powers.values()):
        raise ResourceError("a matrix exponent overflows double precision")
    return ([z @ s @ powers[abs(x)] @ z.conj().T
             for x, s in zip(points, sums)], order, tail)


def _rhs_ode(problem):
    n = problem.a.shape[0]
    stacked = np.stack([problem.b_minus, problem.a,
                        problem.b_plus]).reshape(3, n * n)

    def fn(w, y):
        coeff = (np.array([1 / (w + 1), 1 / w, 1 / (w - 1)]) @ stacked)
        return (coeff.reshape(n, n) @ y.reshape(n, n)).reshape(-1)

    return fn


_PSI_MEMO = {}


def _psi_key(problem):
    """Bytes of the coefficient matrices and the series ceiling."""
    mats = (problem.a, problem.b_plus, problem.b_minus)
    return (*((m.shape, m.tobytes()) for m in mats), problem.series_order)


def psi(problem):
    """Connection matrix Psi = H_1(p)^{-1} H_0(p) at the first match point p,
    with the largest distance to Psi at the others as the spread; raises on
    resonance or accuracy failure.  Memoised for the life of the process on
    ``_psi_key``; the cached Psi is read-only."""
    return _connect([problem])[0]


def psi_pair(a, b_plus, b_minus):
    """``psi`` of (a, b_+, b_-) and of its mirror (a, b_-, b_+), from one
    series at zero, summed at +-x, and one series at one for each."""
    problem = MonodromyProblem(a, b_plus, b_minus)
    return _connect([problem, MonodromyProblem(
        problem.a, problem.b_minus, problem.b_plus, problem.series_order)])


def _connect(problems):
    """``psi`` of each problem, from the memo or computed in one batch; a
    second problem is the mirror of the first.  Errors are raised, and the
    orientations before them memoised, in problem order."""
    keys = [_psi_key(p) for p in problems]
    todo = [i for i, key in enumerate(keys)
            if key not in _PSI_MEMO and key not in keys[:i]]
    if not todo:
        return [_PSI_MEMO[key] for key in keys]
    res_a, cond_a = _decompose(problems[0].a)[2:]
    decs = [_decompose(problems[i].b_plus) for i in todo]
    ready = next((k for k, dec in enumerate(decs) if res_a or dec[2]),
                 len(todo))
    jobs = [_job_at_zero(problems[0], [(1.0, -1.0)[i] * x for i in todo
                                       for x in MATCH_POINTS])]  # mirror: -x
    jobs += [_job_at_one(problems[i]) for i in todo[:ready]]
    found = _sylvester_series(jobs, problems[0].series_order) if ready else []
    for k, i in enumerate(todo):
        if k == ready:
            raise ResonanceError(
                f"resonant residues: a -> {res_a}, b_+ -> {decs[k][2]}")
        if k == 0:
            h0, order0, tail0 = _solutions(jobs[0], found[0])
        h1_vals, order1, tail1 = _solutions(jobs[1 + k], found[1 + k])
        psis = [np.linalg.solve(h1, x)
                for x, h1 in zip(h0[len(MATCH_POINTS) * k:], h1_vals)]
        main = psis[0]
        spread = max((np.linalg.norm(x - main) for x in psis[1:]),
                     default=0.0)
        if spread > 1e-6:
            raise AccuracyError(
                f"match-point spread {spread:.2e} exceeds 1e-6")
        main.setflags(write=False)
        _PSI_MEMO[keys[i]] = MonodromyResult(
            main, spread, max(tail0, tail1), max(cond_a, decs[k][3]),
            (order0, order1))
    return [_PSI_MEMO[key] for key in keys]


def psi_commuting_oracle(problem):
    """Closed form for commuting coefficients: Psi = 2^{b_-}."""
    for x, y in ((problem.a, problem.b_plus), (problem.a, problem.b_minus),
                 (problem.b_plus, problem.b_minus)):
        if np.linalg.norm(x @ y - y @ x) > 1e-12:
            raise InputError("oracle requires commuting coefficients")
    return _expm(math.log(2.0) * problem.b_minus)


def mkz_consistency(problem, z_target=0.81):
    """Independent-route check by adaptive Runge-Kutta: integrate the
    square-root substituted form
    G'(z) = (a/2 / z + B(z)/(z-1)) G, B(z) = (b_+ + b_-)/2 + (b_+ - b_-)/(2 sqrt z),
    from G(DELTA^2) = H_0(DELTA), and the original system from H_0(DELTA),
    and compare them at w = sqrt(z_target)."""
    from scipy.integrate import solve_ivp
    a, bp, bm = problem.a, problem.b_plus, problem.b_minus
    n = a.shape[0]
    job = _job_at_zero(problem, [DELTA])
    (h0,), _, _ = _solutions(job, *_sylvester_series([job],
                                                      problem.series_order))

    tk = (bp + bm) / 2
    tm = (bp - bm) / 2

    def fn(z, y):
        g = y.reshape(n, n)
        bz = tk + tm / math.sqrt(z)
        return ((a / 2 / z + bz / (z - 1)) @ g).reshape(-1)

    def solve(rhs, span):
        sol = solve_ivp(rhs, span, h0.reshape(-1), method="DOP853",
                        rtol=RTOL, atol=ATOL)
        if not sol.success:
            raise AccuracyError(f"ODE integration failed: {sol.message}")
        return sol.y[:, -1].reshape(n, n)

    g_end = solve(fn, (DELTA ** 2, z_target))
    h_end = solve(_rhs_ode(problem), (DELTA, math.sqrt(z_target)))
    return relative(g_end - h_end, h_end)


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------

def verify_eg(a, b_plus, b_minus):
    """Residual of the eight-factor identity with c = -a - b_+ - b_-."""
    c = -a - b_plus - b_minus
    psi_a, psi_a_swap = (r.psi for r in psi_pair(a, b_plus, b_minus))
    psi_c, psi_c_swap = (r.psi for r in psi_pair(c, b_plus, b_minus))
    prod = np.linalg.inv(psi_a) @ _expm(1j * math.pi * b_plus) @ psi_c \
        @ _expm(1j * math.pi * c) @ np.linalg.inv(psi_c_swap) \
        @ _expm(1j * math.pi * b_minus) @ psi_a_swap @ _expm(1j * math.pi * a)
    return np.linalg.norm(prod - np.eye(a.shape[0]))


def verify_octagon_kz(tensors, lam, j2a, j2b, hbar):
    """Residuals of the twisted-octagon identity and its sigma-octagon and
    ribbon rearrangements.  Returns {'rtkz':, 'octagon':, 'ribbon':,
    'sigma_conj':}."""
    a, bp, bm = kz_coeffs(tensors, lam, j2a, j2b, hbar)
    a02 = a02_coeff(tensors, lam, j2a, j2b, hbar)
    d = d_coeff(tensors, lam, j2a, j2b, hbar)

    psi_a, psi_a_sw = (r.psi for r in psi_pair(a, bp, bm))
    psi_021, psi_021_sw = (r.psi for r in psi_pair(a02, bp, bm))

    epi = lambda m: _expm(1j * math.pi * m)  # noqa: E731
    emi = lambda m: _expm(-1j * math.pi * m)  # noqa: E731

    lhs = np.linalg.inv(psi_a) @ epi(bp) @ psi_021 @ epi(a02) \
        @ np.linalg.inv(psi_021_sw) @ epi(bm) @ psi_a_sw @ epi(a)
    res_rtkz = np.linalg.norm(lhs - epi(d))

    emi_bp, emi_bm = emi(bp), emi(bm)
    oct_lhs = np.linalg.inv(psi_a) @ emi_bp @ psi_021 @ emi(a02) \
        @ np.linalg.inv(psi_021_sw) @ emi_bm @ psi_a_sw
    res_oct = np.linalg.norm(oct_lhs - emi(d - a))

    rib_lhs = oct_lhs @ emi(a)
    res_rib = np.linalg.norm(rib_lhs - emi(d))

    # sigma applied to the last leg versus the b_+ <-> b_- swap
    s = tensors.sigma_matrix(j2b)
    conj = kron(np.eye(j2a + 1), s)
    swapped = np.linalg.inv(psi_021_sw) @ emi_bm @ psi_a_sw
    direct = conj @ (np.linalg.inv(psi_021) @ emi_bp @ psi_a) \
        @ np.linalg.inv(conj)
    res_sigma = np.linalg.norm(swapped - direct)
    return {"rtkz": res_rtkz, "octagon": res_oct, "ribbon": res_rib,
            "sigma_conj": res_sigma}


def flatness_residuals(tensors, lam, spins, hbar):
    """Commutator identities behind flatness, on chi ox V_{spins}.

    For ordered pairs (i, j): [tau_ij + nu_i + nu_j, mu_ij] and
    [tau_ij + nu_i + mu_ij, nu_j]; for triples additionally
    [tau_ij, tau_ik + tau_jk] and [mu_ik, tau_ij + mu_jk]."""
    n = len(spins)
    dims = [1] + [j2 + 1 for j2 in spins]

    def place(mat, *legs):
        return op_on_legs(mat, dims, legs)

    def tau(i, j):
        return place(tensors.t_full(spins[i - 1], spins[j - 1]), i, j)

    def mu(i, j):
        m = tensors.t_k(spins[i - 1], spins[j - 1]) \
            - tensors.t_m(spins[i - 1], spins[j - 1])
        return place(m, i, j)

    def nu(i):
        return place(leg_coeff(tensors, lam, spins[i - 1]), i)

    out = {}

    def comm(x, y):
        return np.linalg.norm(x @ y - y @ x)

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            out[f"C[{i},{j}]"] = comm(tau(i, j) + nu(i) + nu(j), mu(i, j))
            out[f"D[{i},{j}]"] = comm(tau(i, j) + nu(i) + mu(i, j), nu(j))
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                out[f"A[{i},{j},{k}]"] = comm(tau(i, j), tau(i, k) + tau(j, k))
                out[f"B[{i},{j},{k}]"] = comm(mu(i, k), tau(i, j) + mu(j, k))
    return out


def kz_braid(tensors, lam, j2, hbar):
    """The braid e^{-pi i hbar (2 t^k_01 + C^k_1)} on chi_lam ox V."""
    return _expm(-1j * math.pi * hbar * leg_coeff(tensors, lam, j2))
