"""Numerical monodromy of the modified two-pole-plus-origin first-order
system

    H'(w) = ( b_- / (w+1) + a / w + b_+ / (w-1) ) H(w)

on (0, 1): Frobenius expansions H_0 ~ w^a at 0 and H_1 ~ (1-w)^{b_+} at 1,
both convergent on all of (0, 1) and evaluated at the match points, and the
connection matrix Psi = H_1(w)^{-1} H_0(w), checked to be independent of
the match point.  Under w -> -w, swapping b_+ and b_- turns the series at 0
into c_m -> (-1)^m c_m, bit for bit, so ``psi_pair`` gives both
orientations from one series at 0 and one set of x^a factors.  Resonance
is decided once per series, before its first order.

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

from .errors import AccuracyError, InputError, ResonanceError, ResourceError
from .rmatrix import op_on_legs
from .uqrep import intertwiners

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


def _hermitian(mat):
    """True when mat equals its conjugate transpose to roundoff."""
    tol = mat.shape[0] * _EPS * np.linalg.norm(mat)
    return np.linalg.norm(mat - mat.conj().T) <= tol


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


def _schur(res):
    """Complex Schur form res = Z T Z^H, as (T, Z).

    A residue that is Hermitian or skew-Hermitian to roundoff is normal, so
    its Schur form is its unitary eigendecomposition, taken from ``eigh``
    with T diagonal.  Every KZ residue is hbar times a Hermitian matrix with
    hbar imaginary (``kz_coeffs``) and takes this branch, which keeps
    scipy.linalg out of every KZ computation.  Only a residue of neither
    kind (a non-normal one, given directly to ``MonodromyProblem``) needs a
    general Schur form, which numpy lacks; scipy is imported for it there."""
    if _hermitian(res):
        vals, z = np.linalg.eigh(res)
        return np.diag(vals.astype(complex)), z
    if _hermitian(1j * res):
        vals, z = np.linalg.eigh(-1j * res)
        return np.diag(1j * vals), z
    from scipy.linalg import schur
    return schur(res, output="complex")


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
    eigenspaces as coefficient vectors over (e, f, h).
    """

    plus_basis: list
    minus_basis: list
    reps: dict = field(default_factory=dict)
    sigmas: dict = field(default_factory=dict)

    def rep(self, j2):
        if j2 not in self.reps:
            self.reps[j2] = spin_matrices(j2)
        return self.reps[j2]

    def vec_matrix(self, vec, j2):
        e, f, h = self.rep(j2)
        return vec[0] * e + vec[1] * f + vec[2] * h

    def sigma_matrix(self, j2):
        """Unitary implementing sigma on spin j, normalized to square to 1;
        kept per spin, read-only."""
        if j2 in self.sigmas:
            return self.sigmas[j2]
        pairs = [(self.vec_matrix(vec, j2),
                  self.vec_matrix(SIGMA @ vec, j2))
                 for vec in np.eye(3)]
        basis = intertwiners(pairs, 1e-9)
        if len(basis) != 1:
            raise InputError("sigma does not integrate uniquely on this spin")
        s = basis[0]
        self.sigmas[j2] = s = s / np.sqrt(np.trace(s @ s) / (j2 + 1))
        s.setflags(write=False)
        return s

    def pair_tensor(self, basis, j2a, j2b):
        """sum_i X_i^* ox X_i over a basis, on spin j2a ox spin j2b."""
        da, db = j2a + 1, j2b + 1
        out = np.zeros((da * db, da * db), dtype=complex)
        for vec in basis:
            xs = self.vec_matrix(_star_coeffs(vec), j2a)
            x = self.vec_matrix(vec, j2b)
            out += np.kron(xs, x)
        return out

    def t_full(self, j2a, j2b):
        return self.pair_tensor(self.plus_basis + self.minus_basis, j2a, j2b)

    def t_k(self, j2a, j2b):
        return self.pair_tensor(self.plus_basis, j2a, j2b)

    def t_m(self, j2a, j2b):
        return self.pair_tensor(self.minus_basis, j2a, j2b)

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
    """SymPairTensors of ``SIGMA``.  The eigenvectors are LAPACK's
    (``np.linalg.eig``), orthonormalized for the invariant form; a
    hand-written basis would move the last bits of every KZ coefficient."""
    evals, evecs = np.linalg.eig(SIGMA)
    plus, minus = [], []
    for i in range(3):
        (plus if abs(evals[i] - 1) < 1e-9 else minus).append(evecs[:, i])
    return SymPairTensors(_orthonormalize(plus), _orthonormalize(minus))


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
    a = hbar * np.kron(leg_coeff(tensors, lam, j2a), np.eye(j2b + 1))
    b_plus = hbar * tensors.t_full(j2a, j2b)
    b_minus = hbar * (tensors.t_k(j2a, j2b) - tensors.t_m(j2a, j2b))
    return a, b_plus, b_minus


def a02_coeff(tensors, lam, j2a, j2b, hbar):
    """hbar (2 t^k_02 + C^k_2) on chi ox V_a ox V_b."""
    return hbar * np.kron(np.eye(j2a + 1), leg_coeff(tensors, lam, j2b))


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


def resonance_check(mat):
    """Eigenvalue pairs (i, j, nearest) whose difference lies within 1e-6
    of a nonzero integer, in row-major order."""
    evals = np.linalg.eigvals(mat)
    diff = evals[:, None] - evals[None, :]
    nearest = np.round(diff.real)
    hits = np.argwhere((nearest != 0) & (np.abs(diff - nearest) < 1e-6))
    return [(int(i), int(j), int(nearest[i, j])) for i, j in hits]


def _sylvester_series(res_mat, terms, order, x=None):
    """Frobenius coefficients c_0 = 1, c_1, c_2, ... solving

        m c_m - [res, c_m] = sum over (s, M, r) in terms of s M A_m,
        A_m = sum_{k<m} r^{m-1-k} c_k,

    in the complex Schur basis res = Z T Z^H.  Each running sum is kept as
    A_{m+1} = r A_m + c_m, so an order costs one product per term.  With
    T = D + N, each order divides by m + d_j - d_i and then adds the finite
    Neumann series of X -> (N X - X N) / (m + d_j - d_i), which is nilpotent;
    N below roundoff (a normal residue) is dropped.  Without ``x``, runs to
    c_order; with ``x``, stops once the tail bound at x is below
    ``TAIL_TARGET`` at two consecutive orders, and raises AccuracyError at order ``order``.
    Resonance is decided once: |m + gap| < 1e-9 needs m = rint(-Re gap), so
    the loop raises ResonanceError if it reaches the first such m >= 1.
    Returns the coefficients in the Schur basis, and Z."""
    t, z = _schur(res_mat)
    n = t.shape[0]
    zh = z.conj().T
    diag = np.diag(t)
    gap = diag[None, :] - diag[:, None]
    near = np.rint(-gap.real)
    hit = (near >= 1) & (np.abs(near + gap) < 1e-9)
    resonant = int(near[hit].min()) if hit.any() else None
    nil = np.triu(t, 1)
    if np.linalg.norm(nil) <= n * _EPS * np.linalg.norm(t):
        nil = None
    mats = [(s * (zh @ m @ z), r) for s, m, r in terms]
    sums = [np.zeros((n, n), dtype=complex) for _ in terms]
    coeffs = [np.eye(n, dtype=complex)]
    below = False
    for m in range(1, order + 1):
        rhs = np.zeros((n, n), dtype=complex)
        for i, (mat, r) in enumerate(mats):
            sums[i] = r * sums[i] + coeffs[-1]
            rhs += mat @ sums[i]
        if m == resonant:
            raise ResonanceError(
                f"Sylvester denominator ~0 at order {m} (resonance)")
        denom = m + gap
        c = rhs / denom
        if nil is not None:
            corr = c
            for _ in range(2 * n - 2):
                corr = (nil @ corr - corr @ nil) / denom
                c = c + corr
                if np.linalg.norm(corr) <= _EPS * np.linalg.norm(c):
                    break
        coeffs.append(c)
        if x is not None:
            norm = math.sqrt(np.vdot(c, c).real)  # |c|_F, as _tail_bound
            now = norm * x ** m / (1 - x) < TAIL_TARGET
            if below and now:
                return coeffs, z
            below = now
    if x is not None:
        raise AccuracyError(f"series tail bound not reached at {x} by "
                            f"order {order}; raise series_order")
    return coeffs, z


def _series_at_zero(problem, x=None):
    """H_0 = (sum c_m w^m) w^a: the right-hand side is
    sum_{k<m} ((-1)^{m-1-k} b_- - b_+) c_k."""
    return _sylvester_series(
        problem.a, [(1.0, problem.b_minus, -1.0), (-1.0, problem.b_plus, 1.0)],
        problem.series_order, x)


def _series_at_one(problem, x=None):
    """H_1 = (sum c_m (1-w)^m) (1-w)^{b_+}: the right-hand side is
    -sum_{k<m} (a + 2^{-(m-k)} b_-) c_k."""
    return _sylvester_series(
        problem.b_plus, [(-1.0, problem.a, 1.0), (-0.5, problem.b_minus, 0.5)],
        problem.series_order, x)


def _eval_series(coeffs, x):
    out = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _tail_bound(coeffs, x):
    """Frobenius-norm tail estimate; unitary changes of basis leave it
    unchanged."""
    n = len(coeffs) - 1
    return np.linalg.norm(coeffs[n]) * x ** n / (1 - x)


def _frobenius(problem, series, residue, dists, signs=(1.0,)):
    """Z (sum c_m (s x)^m) Z^H x^residue at each distance x in ``dists``
    from the series' endpoint, one list per sign s in ``signs``, and the
    tail bound at the farthest x.  At zero, s = -1 gives H_0 of the mirror
    (a, b_-, b_+): its coefficients are (-1)^m c_m, bit for bit."""
    far = max(dists)
    coeffs, z = series(problem, far)
    zh = z.conj().T
    powers = [_expm(math.log(x) * residue) for x in dists]
    vals = [[z @ _eval_series(coeffs, s * x) @ zh @ power
             for x, power in zip(dists, powers)] for s in signs]
    return vals, _tail_bound(coeffs, far)


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
    """``psi`` of (a, b_+, b_-) and of its mirror (a, b_-, b_+).  Under
    w -> -w the mirror's series at zero is c_m -> (-1)^m c_m, bit for bit, so
    one series at zero (at +-x), x^a and the checks of a serve both; each
    keeps its own series at one."""
    problem = MonodromyProblem(a, b_plus, b_minus)
    return _connect([problem, MonodromyProblem(
        problem.a, problem.b_minus, problem.b_plus, problem.series_order)])


def _connect(problems):
    """``psi`` of each problem, read from the memo or computed in order; a
    second problem is the mirror of the first and shares its H_0."""
    keys = [_psi_key(p) for p in problems]
    todo = [i for i, key in enumerate(keys)
            if key not in _PSI_MEMO and key not in keys[:i]]
    a, h0 = problems[0].a, None
    res_a = resonance_check(a) if todo else []
    for i in todo:
        bp = problems[i].b_plus
        res_b = resonance_check(bp)
        if res_a or res_b:
            raise ResonanceError(
                f"resonant residues: a -> {res_a}, b_+ -> {res_b}")
        if h0 is None:
            signs = [(1.0, -1.0)[j] for j in todo]  # the mirror at -x
            vals, tail0 = _frobenius(problems[0], _series_at_zero, a,
                                     MATCH_POINTS, signs)
            h0 = dict(zip(todo, vals))
            cond_a = np.linalg.cond(np.linalg.eig(a)[1])
        (h1_vals,), tail1 = _frobenius(problems[i], _series_at_one, bp,
                                       [1 - p for p in MATCH_POINTS])
        psis = [np.linalg.solve(h1, x) for x, h1 in zip(h0[i], h1_vals)]
        main = psis[0]
        spread = max((np.linalg.norm(x - main) for x in psis[1:]),
                     default=0.0)
        if spread > 1e-6:
            raise AccuracyError(
                f"match-point spread {spread:.2e} exceeds 1e-6")
        main.setflags(write=False)
        cond = max(cond_a, np.linalg.cond(np.linalg.eig(bp)[1]))
        _PSI_MEMO[keys[i]] = MonodromyResult(main, spread, max(tail0, tail1),
                                             cond)
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
    ((h0,),), _ = _frobenius(problem, _series_at_zero, a, [DELTA])

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
    return np.linalg.norm(g_end - h_end) / max(np.linalg.norm(h_end), 1e-30)


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
    d = a + a02 + 2 * (hbar * tensors.t_k(j2a, j2b))  # as d_coeff forms it

    psi_a, psi_a_sw = (r.psi for r in psi_pair(a, bp, bm))
    psi_021, psi_021_sw = (r.psi for r in psi_pair(a02, bp, bm))

    epi = lambda m: _expm(1j * math.pi * m)  # noqa: E731
    emi = lambda m: _expm(-1j * math.pi * m)  # noqa: E731

    lhs = np.linalg.inv(psi_a) @ epi(bp) @ psi_021 @ epi(a02) \
        @ np.linalg.inv(psi_021_sw) @ epi(bm) @ psi_a_sw @ epi(a)
    res_rtkz = np.linalg.norm(lhs - epi(d))

    oct_lhs = np.linalg.inv(psi_a) @ emi(bp) @ psi_021 @ emi(a02) \
        @ np.linalg.inv(psi_021_sw) @ emi(bm) @ psi_a_sw
    res_oct = np.linalg.norm(oct_lhs - emi(d - a))

    rib_lhs = oct_lhs @ emi(a)
    res_rib = np.linalg.norm(rib_lhs - emi(d))

    # sigma applied to the last leg versus the b_+ <-> b_- swap
    s = tensors.sigma_matrix(j2b)
    conj = np.kron(np.eye(j2a + 1), s)
    swapped = np.linalg.inv(psi_021_sw) @ emi(bm) @ psi_a_sw
    direct = conj @ (np.linalg.inv(psi_021) @ emi(bp) @ psi_a) \
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
