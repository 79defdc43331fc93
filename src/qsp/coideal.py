"""Letzter-Kolb coideal subalgebras attached to a Satake diagram.

The generators are

    B_r = F_r + c_r theta_q(F_r K_r) K_r^{-1} + s_r K_r^{-1},  r white,

together with the subsystem generators E_s, F_s, K_s (s in X) and the
Theta-fixed Cartan part.  theta_q is the quantum involution
Ad(z) o T_{w_X} o psi o tau o omega.

Every B_r is a matrix on a module, built by one formula: on a weight
module W,

    theta_q(F_r K_r) = -z^beta T E_{tau(r)} T^{-1},  beta = w_X(alpha_{tau(r)}),

with T the braid operator of w_X on W (``lusztig.braid_word_on_module``),
and on the module of a character chi,

    (chi ox id) Delta(B_r) = chi(B_r) K_r^{-1} + F_r
                             + chi(K_{kappa_r}) c_r theta_q(F_r K_r) K_r^{-1},

kappa_r = -Theta(alpha_r) - alpha_r.  The counit gives B_r itself, and
Delta(B_r) on m1 ox m2 is B_r on ``tensor(m1, m2)``.  No formal algebra
element, coproduct or tail is formed.

Star-invariance holds on the parameter class

    c_r > 0,  c_{tau(r)} c_r = q^{(Theta(alpha_r) - alpha_r, alpha_{tau(r)})},
    s_r in i R (supported on the distinguished vertex).

The exponent is symmetric under r <-> tau(r) (Theta is self-adjoint for
the invariant form), as the product on the left requires; the variant with
the transposed index placement that circulates in the literature is not
symmetric and fails the adjoint-membership test already on the rank-two
diagrams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .diagrams import classify_sets, hermitian_type
from .errors import (
    AmbiguityError,
    ConsistencyError,
    InputError,
    NoKMatrixError,
)
from .lusztig import braid_word_on_module
from .rmatrix import r21, rmat
from .rootsys import alpha_coefficients, nullspace_frac, tau0
from .uqrep import (WeightModule, build_irrep, decompose, intertwiners,
                    read_only, tensor, twist_module)

SPAN_DEGREE_CAP = 6


@dataclass(frozen=True)
class CoidealParams:
    """Parameters (c, s) over the white vertices; hashed by the sorted
    items of c and s."""

    c: dict
    s: dict

    def __hash__(self):
        return hash((tuple(sorted(self.c.items())),
                     tuple(sorted(self.s.items()))))

    def replace(self, **upd):
        return CoidealParams({**self.c, **upd.get("c", {})},
                             {**self.s, **upd.get("s", {})})


def _check_param_shape(diag, params):
    i_c, _, i_s, _ = classify_sets(diag)
    for r in diag.white:
        if params.c.get(r, 0) == 0:
            raise InputError(f"c_{r} must be nonzero")
        if r in i_c and params.c[r] != params.c[diag.tau_of(r)]:
            raise InputError(f"c must be tau-constant on I_C (vertex {r})")
        if r not in i_s and params.s.get(r, 0) != 0:
            raise InputError(f"s_{r} must vanish off I_S")


def no_parameter(diag, qp):
    """The distinguished solution: s = 0 and
    c_r = q^{(Theta(alpha_r) - alpha_r, alpha_{tau(r)}) / 2}."""
    return CoidealParams({r: qp.qpow(star_exponent(diag, r) / 2)
                          for r in diag.white}, {r: 0.0 for r in diag.white})


def star_exponent(diag, r):
    """(Theta(alpha_r) - alpha_r, alpha_{tau(r)})."""
    datum = diag.datum
    a = datum.simple_root(r)
    return (diag.theta(a) - a).pairing(datum.simple_root(diag.tau_of(r)))


def validate_star(diag, params, qp):
    """Star-invariance constraints to 1e-12; returns (ok, violations).

    Positivity of c_r is enforced on every white vertex.  (On non-orbit
    representatives this is a normalization by a unitary Cartan
    conjugation rather than a restriction; we fold it into the validated
    class so that goldens are deterministic.)

    Also evaluates the Hermitian case split: which vertices may carry s,
    and the one-parameter freedom of the c's in the C-type case.
    """
    try:
        _check_param_shape(diag, params)
    except InputError as exc:
        return False, [str(exc)]
    tol = 1e-12
    violations = []
    _, _, i_s, _ = classify_sets(diag)
    for r in diag.white:
        c_r = params.c[r]
        if not (abs(np.imag(c_r)) <= tol and np.real(c_r) > 0):
            violations.append(f"c_{r} not positive real")
        prod = params.c[diag.tau_of(r)] * c_r
        want = qp.qpow(star_exponent(diag, r))
        if abs(prod - want) > tol * max(abs(want), 1.0):
            violations.append(
                f"c_{diag.tau_of(r)} c_{r} = {prod} != q^exponent = {want}")
        s_r = params.s.get(r, 0.0)
        if abs(np.real(s_r)) > tol:
            violations.append(f"s_{r} not purely imaginary")
    if len(diag.datum.components) == 1:
        h = hermitian_type(diag)
        if h.kind == "NonHermitian":
            if any(abs(params.s.get(r, 0.0)) > tol for r in diag.white):
                violations.append("nonzero s on a non-Hermitian pair")
        elif h.kind == "SType":
            for r in i_s:
                if r != h.distinguished and abs(params.s.get(r, 0.0)) > tol:
                    violations.append(f"s_{r} off the distinguished vertex")
    return (not violations), violations


# ---------------------------------------------------------------------------
# Theta-fixed Cartan lattice
# ---------------------------------------------------------------------------

def theta_fixed_basis(diag):
    """Primitive integer vectors spanning the Theta-fixed part of the weight
    lattice (rational kernel of Theta - 1, cleared to primitive vectors), as
    a fresh list; the solve is memoised per diagram."""
    return list(_theta_fixed_basis(diag))


@functools.cache
def _theta_fixed_basis(diag):
    datum = diag.datum
    n = datum.rank
    cols = []
    for r in datum.vertices:
        img = diag.theta(datum.fundamental_weight(r))
        cols.append([img.coords[i] for i in range(n)])
    # rows of (M - I) x = 0 with M columns = theta images
    mat = [[cols[j][i] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    basis = nullspace_frac(mat)
    out = []
    for vec in basis:
        den = math.lcm(*[x.denominator for x in vec])
        ints = [int(x * den) for x in vec]
        g = math.gcd(*ints) or 1
        out.append(datum.weight([x // g for x in ints]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Span-membership test for star-invariance
# ---------------------------------------------------------------------------

def _generator_mats(x0, wmod):
    """Matrices on wmod of the coideal generators under x0: B_r (r white,
    first), the X-subsystem generators, the Theta-fixed Cartan part (with
    inverses) and the coideal elements K_{alpha_{tau(r)} - alpha_r}."""
    diag = x0.diag
    datum = diag.datum
    gens = [x0._b_matrix(r, wmod) for r in diag.white]
    for s in diag.X:
        alpha = datum.simple_root(s)
        gens += [wmod.E[s], wmod.F[s], wmod.k_matrix(alpha),
                 wmod.k_matrix(-1 * alpha)]
    for w in theta_fixed_basis(diag):
        gens += [wmod.k_matrix(w), wmod.k_matrix(-1 * w)]
    for r in diag.white:
        tr = diag.tau_of(r)
        if tr > r:
            w = datum.simple_root(tr) - datum.simple_root(r)
            gens += [wmod.k_matrix(w), wmod.k_matrix(-1 * w)]
    return gens


def direct_sum_module(modules):
    """Block-diagonal direct sum of weight modules over the same datum."""
    datum, qp = modules[0].datum, modules[0].qp
    ends = np.cumsum([0] + [m.dim for m in modules])
    E, F = {}, {}
    for r in datum.vertices:
        E[r] = np.zeros((ends[-1], ends[-1]), dtype=complex)
        F[r] = np.zeros_like(E[r])
        for m, lo, hi in zip(modules, ends, ends[1:]):
            E[r][lo:hi, lo:hi], F[r][lo:hi, lo:hi] = m.E[r], m.F[r]
    return WeightModule(datum, qp, [w for m in modules for w in m.weights],
                        E, F, label="+".join(m.label for m in modules))


def star_membership(diag, params, qp, modules):
    """Least-squares distance of each pi(B_r)^dagger from the span of
    coideal-generator monomials of degree <= SPAN_DEGREE_CAP, evaluated on the
    direct sum of the given modules: the norm of its reorthogonalised
    projection off the span, whose cuts are those of ``_IncrementalSpan``.
    Returns {r: relative residual}."""
    _check_param_shape(diag, params)
    window = direct_sum_module(modules) if len(modules) > 1 else modules[0]
    gens = _generator_mats(counit_module(diag, params, qp), window)
    span = _monomial_span(gens, window.dim)
    out = {}
    for r, b in zip(diag.white, gens):
        target = b.conj().T
        dist = span.distance(target)
        out[r] = dist / max(np.linalg.norm(target), 1e-30)
    return out


def coideal_law_residual(diag, params, qp, m1, m2):
    """Right-coideal property on modules: for every generator b, the matrix
    of Delta(b) on m1 ox m2 (the action of b on ``tensor(m1, m2)``),
    reorganized as a map (second-leg entry pairs) -> (first-leg entry
    pairs), has its range inside the span of evaluated coideal monomials on
    m1: the Frobenius norm of all its columns projected off that span at
    once (reorthogonalised, cuts as in ``_IncrementalSpan``) over the norm
    of Delta(b).  Returns the worst relative residual."""
    _check_param_shape(diag, params)
    x0 = counit_module(diag, params, qp)
    span = _monomial_span(_generator_mats(x0, m1), m1.dim)
    both = tensor(m1, m2)
    mats = [x0._b_matrix(r, both) for r in diag.white]
    for s in diag.X:
        mats += [both.E[s], both.F[s]]
    mats += [both.k_matrix(w) for w in theta_fixed_basis(diag)]
    worst = 0.0
    for mat in mats:
        reorg = mat.reshape(m1.dim, m2.dim, m1.dim, m2.dim) \
            .transpose(0, 2, 1, 3).reshape(m1.dim * m1.dim, m2.dim * m2.dim)
        dist = np.linalg.norm(span._project_out(reorg))
        worst = max(worst, dist / max(np.linalg.norm(mat), 1e-30))
    return worst


def _monomial_span(gens, dim):
    """Span of the products of at most SPAN_DEGREE_CAP of the dim x dim
    matrices ``gens`` (the identity included), grown degree by degree from
    the products that enlarged it."""
    span = _IncrementalSpan(dim)
    span.add(np.eye(dim, dtype=complex))
    frontier = [np.eye(dim, dtype=complex)]
    for _ in range(SPAN_DEGREE_CAP):
        new_frontier = []
        for mat in frontier:
            for g in gens:
                cand = mat @ g
                if span.add(cand):
                    new_frontier.append(cand)
        if not new_frontier:
            break
        frontier = new_frontier
    return span


class _IncrementalSpan:
    """Orthonormal basis Q of a subspace of matrices (vectorized): the first
    ``size`` columns of one dim^2 x capacity array, capacity doubled when
    full.  Projection is reorthogonalised classical Gram-Schmidt, v - Q Q^H v
    twice; ``add`` drops a matrix of norm < 1e-300 or relative remainder
    < 1e-10."""

    def __init__(self, dim):
        self.basis = np.zeros((dim * dim, 8), dtype=complex)
        self.size = 0

    def _project_out(self, vec):
        # Q^H v as conj(Q^T conj(v)), so Q is not copied; v may be a matrix
        q = self.basis[:, :self.size]
        for _ in range(2):
            vec = vec - q @ (q.T @ vec.conj()).conj()
        return vec

    def add(self, mat):
        vec = mat.reshape(-1)
        nrm0 = np.linalg.norm(vec)
        if nrm0 < 1e-300:
            return False
        vec = self._project_out(vec / nrm0)
        nrm = np.linalg.norm(vec)
        if nrm < 1e-10:
            return False
        if self.size == self.basis.shape[1]:
            self.basis = np.hstack([self.basis, np.zeros_like(self.basis)])
        self.basis[:, self.size] = vec / nrm
        self.size += 1
        return True

    def distance(self, mat):
        return np.linalg.norm(self._project_out(mat.reshape(-1)))


# ---------------------------------------------------------------------------
# characters and conjugation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """*-character of the coideal: values on B_r and a linear functional f
    with chi(K_omega) = q^{f(omega)}; f is stored by its values on the
    simple roots.  Hashed by the sorted items of b_values and f_alpha."""

    b_values: dict
    f_alpha: dict

    def __hash__(self):
        return hash((tuple(sorted(self.b_values.items())),
                     tuple(sorted(self.f_alpha.items()))))

    def f_of(self, datum, w):
        coeffs = alpha_coefficients(w, datum.vertices)
        return sum(self.f_alpha.get(r, 0.0) * float(c)
                   for r, c in coeffs.items())

    def k_value(self, datum, qp, w):
        return qp.qpow(self.f_of(datum, w))


def characters(diag, qp, t):
    """The one-parameter family of *-characters chi_t.

    S-type: chi(K) = 1 and chi(B_p) = i t at the distinguished vertex.
    C-type: chi(B) = 0 and chi(K_omega) = q^{f(omega)} with f supported on
    the distinguished simple root.  Non-Hermitian pairs only carry the
    counit (t must be 0)."""
    h = hermitian_type(diag)
    b_values = {r: 0.0 for r in diag.white}
    f_alpha = {r: 0.0 for r in diag.datum.vertices}
    if h.kind == "NonHermitian":
        if t != 0:
            raise InputError("non-Hermitian pair has only the counit")
    elif h.kind == "SType":
        b_values[h.distinguished] = 1j * t
    else:
        f_alpha[h.distinguished] = float(t)
    return Character(b_values, f_alpha)


def character_relations_residual(diag, params, qp, chi):
    """Residuals of the commutative-quotient relations evaluated under a
    character.  Keys identify the relation family and the vertices."""
    datum = diag.datum
    if any(abs(datum.a(r, s)) > 2 for r in datum.vertices
           for s in datum.vertices if r != s):
        raise InputError("relations are only derived for |a_rs| <= 2")
    _, _, _, j_set = classify_sets(diag)
    white = diag.white
    res = {}

    def chi_b(r):
        return chi.b_values.get(r, 0.0)

    def chi_k(w):
        return chi.k_value(datum, qp, w)

    def kdiff(r):
        return datum.simple_root(diag.tau_of(r)) - datum.simple_root(r)

    for r in white:
        tr = diag.tau_of(r)
        qr = qp.q_r(datum, r)
        if datum.a(r, tr) == 0 and tr != r:
            val = params.c[r] * chi_k(kdiff(r)) ** 2 - params.c[tr] \
                if r in j_set else 0.0
            res[f"comm1[{r}]"] = abs(val)
        if datum.a(r, tr) == -2:
            val = (qr ** -8 * params.c[r] * chi_k(kdiff(r)) - params.c[tr]) \
                * chi_b(r)
            res[f"comm1'[{r}]"] = abs(val)
        for s in white:
            if s == r or datum.a(r, s) != -1:
                continue
            lhs = (1 - qr) * (1 - 1 / qr) * chi_b(r) ** 2 * chi_b(s)
            rhs = 0.0
            if r in j_set and diag.tau_of(r) == r:
                rhs += -qr * params.c[r] * chi_k(kdiff(r)) * chi_b(s)
            if diag.tau_of(s) == r:
                bracket = 0.0
                if s in j_set:
                    bracket += qr * params.c[s] * chi_k(kdiff(s))
                if r in j_set:
                    bracket += qr ** -2 * params.c[r] * chi_k(kdiff(r))
                rhs += (qr + 1 / qr) * bracket * chi_b(r)
            res[f"comm2[{r},{s}]"] = abs(lhs - rhs)
    for r in white:
        tr = diag.tau_of(r)
        if r in j_set:
            lhs = np.conj(chi_b(r))
            rhs = -params.c[tr] ** -1 \
                * qp.qpow(-datum.simple_root(r).pairing(datum.simple_root(tr))) \
                * chi_k(kdiff(r)) * chi_b(tr)
            res[f"comm3[{r}]"] = abs(lhs - rhs)
        else:
            res[f"comm3[{r}]"] = abs(chi_b(r))
    return res


def conjugate(diag, params, qp, t):
    """chi_t-conjugation of the parameters (a group action in t).

    S-type: s_p -> s_p + i t at the distinguished vertex.
    C-type: c_p -> q^{-t} c_p and c_{tau(p)} -> q^{t} c_{tau(p)}."""
    h = hermitian_type(diag)
    if h.kind == "NonHermitian":
        if t != 0:
            raise InputError("non-Hermitian pair admits no conjugation")
        return params
    if h.kind == "SType":
        p = h.distinguished
        return params.replace(s={p: params.s.get(p, 0.0) + 1j * t})
    p = h.distinguished
    tp = diag.tau_of(p)
    return params.replace(c={p: qp.qpow(-t) * params.c[p],
                             tp: qp.qpow(t) * params.c[tp]})


# ---------------------------------------------------------------------------
# coideal modules (characters tensored with weight modules) and K-matrices
# ---------------------------------------------------------------------------

@dataclass
class CoidealModule:
    """The one-dimensional coideal module X0 of a *-character chi (the
    counit or another character): a K-matrix at X0 (.) W is an operator on
    W itself."""

    diag: object
    params: CoidealParams
    qp: object
    chi: Character

    def generator_matrices(self, wmod):
        """Matrices of B_r (r white), E_s/F_s/K_s (s in X) and the
        Theta-fixed K's on chi (.) wmod."""
        datum, qp = self.diag.datum, self.qp
        out = {("B", r): self._b_matrix(r, wmod) for r in self.diag.white}
        for s in self.diag.X:
            out[("E", s)] = wmod.E[s]
            out[("F", s)] = wmod.F[s]
            out[("K", s)] = wmod.k_matrix(datum.simple_root(s))
        for i, w in enumerate(theta_fixed_basis(self.diag)):
            out[("Ktheta", i)] = self.chi.k_value(datum, qp, w) \
                * wmod.k_matrix(w)
        return out

    def _b_matrix(self, r, wmod):
        """(chi ox id) Delta(B_r) on wmod: chi(B_r) K_r^{-1} + F_r
        + chi(K_{kappa_r}) c_r theta_q(F_r K_r) K_r^{-1}, where
        theta_q(F_r K_r) = -z^beta T E_{tau(r)} T^{-1} (``_b_data``)."""
        datum = self.diag.datum
        letters, tr, z_beta, kappa = _b_data(self.diag, r)
        kinv = wmod.k_matrix(-1 * datum.simple_root(r))
        mat = self.chi.b_values.get(r, 0.0) * kinv + wmod.F[r]
        scal = -z_beta * self.params.c[r] \
            * self.chi.k_value(datum, self.qp, kappa)
        return mat + scal * (_braided_e(wmod, letters, tr) @ kinv)


@functools.cache
def _b_data(diag, r):
    """The diagram data of B_r, r white: (the w_X word, tau(r), z^beta,
    kappa_r).  theta_q = Ad(z) o T_{w_X} o psi o tau o omega sends F_r K_r
    to -z^beta T_{w_X}(E_{tau(r)}), of weight beta = w_X(alpha_{tau(r)})
    = -Theta(alpha_r), with z^beta = prod_s z_s^{c_s} over
    beta = sum_s c_s alpha_s; kappa_r = beta - alpha_r is the Cartan weight
    the first leg of that term of Delta(B_r) carries.  Memoised per
    diagram and vertex."""
    datum = diag.datum
    alpha = datum.simple_root(r)
    beta = -1 * diag.theta(alpha)
    z_beta = 1
    for s, c in alpha_coefficients(beta, datum.vertices).items():
        z_beta *= diag.z(s) ** int(c)
    return tuple(diag.wx_word().letters), diag.tau_of(r), z_beta, beta - alpha


def _braided_e(wmod, letters, s):
    """T E_s T^{-1} on wmod, T the module braid operator of the word
    ``letters`` (kept in wmod.cache)."""
    key = ("braided E", letters, s)
    if key not in wmod.cache:
        t = braid_word_on_module(wmod, letters)
        wmod.cache[key] = read_only(t @ wmod.E[s] @ np.linalg.inv(t))
    return wmod.cache[key]


def counit_module(diag, params, qp):
    """The restriction of the counit as a coideal module: chi(B_r) = s_r."""
    chi = Character({r: params.s.get(r, 0.0) for r in diag.white},
                    {r: 0.0 for r in diag.datum.vertices})
    return CoidealModule(diag, params, qp, chi)


@functools.cache
def tau_tau0_perm(diag):
    """The composite diagram automorphism tau tau_0 (memoised per diagram;
    callers must not mutate the returned map)."""
    t0 = tau0(diag.datum)
    return {r: diag.tau_of(t0[r]) for r in diag.datum.vertices}


def kmatrix_solve(diag, params, qp, x0, u, fuse_from=None):
    """Solve for the braid eta at X0 (.) u, an operator on u (X0 is a
    one-dimensional character module).

    Linear part: the twisted intertwining eta pi^tw(b) = pi(b) eta for all
    generators b.  The surviving space still contains the scalar braid
    family, which is a genuine ribbon braid; the distinguished non-scalar
    solution is isolated by the quadratic ribbon composite on
    X0 (.) u (.) u: it must restrict to the identity on the trivial
    isotypic component of u ox u and vanish between components.

    When the solution space is larger than two-dimensional the direct sieve
    does not apply; if ``fuse_from`` names an irreducible generating module
    whose braid is directly solvable, the braid at u is derived by fusion
    over irreducibles (``_derived_braid``), then validated against the
    intertwining system.  Otherwise the ambiguity is reported, never
    silently resolved.  The phase is fixed by making the bottom-left entry
    positive (or, when it vanishes, the determinant).

    The solve runs once per process: the read-only braid is kept in
    ``u.cache`` under (diagram, parameters, QParams, character,
    ``fuse_from``), so a repeated input, also one built from fresh but
    equal objects, is a lookup (modules are keys by identity).  Errors are
    not kept.  InputError unless x0 is a module over the same diagram,
    parameters and q as the arguments.
    """
    if (x0.diag, x0.params, x0.qp) != (diag, params, qp):
        raise InputError("x0 is a module over another coideal: its diagram, "
                         "parameters or q differ from the arguments")
    key = ("kmatrix", diag, params, qp, x0.chi, fuse_from)
    if key not in u.cache:
        u.cache[key] = read_only(_solve(diag, params, qp, x0, u, fuse_from))
    return u.cache[key]


def _solve(diag, params, qp, x0, u, fuse_from):
    """The uncached solve behind ``kmatrix_solve``."""
    _check_param_shape(diag, params)
    sigma = tau_tau0_perm(diag)
    plain = x0.generator_matrices(u)
    twisted = x0.generator_matrices(twist_module(u, sigma))
    pairs = [(twisted[k], plain[k]) for k in plain]
    basis = intertwiners(pairs, 1e-8)
    if not basis:
        raise NoKMatrixError("twisted intertwining system has no solution")

    if len(basis) > 2:
        if fuse_from is None:
            raise AmbiguityError(
                f"K-matrix space has dimension {len(basis)}", basis=basis)
        eta = _derived_braid(diag, params, qp, x0, u, fuse_from)
        resid = math.sqrt(sum(np.linalg.norm(eta @ a - b @ eta) ** 2
                              for a, b in pairs)) \
            / max(np.linalg.norm(eta), 1e-30)
        if resid > 1e-7:
            raise ConsistencyError(
                f"derived braid fails the intertwining system ({resid:.2e})")
        return eta

    p0 = _trivial_projector(u)

    def composite(x, y):
        return ribbon_compose(diag, y, u, x, u)

    candidates = _ribbon_unit_solutions(basis, composite, p0)
    if not candidates:
        raise NoKMatrixError("no solution satisfies the ribbon unit condition")
    nonscalar = [eta for eta in candidates if _is_nonscalar(eta)]
    if len(nonscalar) > 1:
        raise AmbiguityError("several non-scalar ribbon solutions",
                             basis=nonscalar)
    eta = nonscalar[0] if nonscalar else candidates[0]
    return _fix_gauge(eta)


def ribbon_compose(diag, eta_a, a_mod, eta_b, b_mod):
    """Braid at X0 (.) (A ox B) from the braids at A and B, on A ox B:
    R21(A, B) (1 ox eta^B) Rtw(A, sigma B) (eta^A ox 1)."""
    sigma = tau_tau0_perm(diag)
    rtw = rmat(a_mod, twist_module(b_mod, sigma)).matrix
    return r21(a_mod, b_mod) @ np.kron(np.eye(a_mod.dim), eta_b) \
        @ rtw @ np.kron(eta_a, np.eye(b_mod.dim))


def _derived_braid(diag, params, qp, x0, u, generator):
    """Braid at u from the braid at an irreducible generating module g, by
    fusion over irreducibles: each round composes the ribbon composite on
    V_lam ox g once per pending irreducible V_lam and restricts it through
    the first embedding of ``decompose(V_lam ox g)`` to each component
    not yet in the table of braids by highest weight.  By naturality this
    equals the restriction from the tensor power of g, which is never built.
    Components with (lam, 2 rho) > (mu + g, 2 rho), mu the target, are
    skipped; there are finitely many below that bound, so the search ends,
    with the target or with no pending module left to expand.

    The table lives in ``generator.cache`` under (diagram, parameters,
    QParams, character), so a later call extends it instead of
    restarting from g.  It holds the braids by highest weight and a pending
    list of (module, braid, bound or None): the modules not yet expanded,
    and those whose components were skipped, with the bound that skipped
    them.  A later call with a higher bound expands those again, so a lower
    target asked for first never cuts off a higher one."""
    if u.highest is None or generator.highest is None:
        raise AmbiguityError("derived braids need irreducible modules")
    two_rho = 2 * diag.datum.rho()
    bound = (u.highest + generator.highest).pairing(two_rho)
    key = ("braids", diag, params, qp, x0.chi)
    if key not in generator.cache:
        eta_g = kmatrix_solve(diag, params, qp, x0, generator)
        generator.cache[key] = {"braids": {generator.highest.coords: eta_g},
                                "pending": [(generator, eta_g, None)]}
    table = generator.cache[key]
    braids = table["braids"]
    eta_g = braids[generator.highest.coords]
    while u.highest.coords not in braids:
        stay, todo = [], []
        for entry in table["pending"]:
            done = entry[2]
            (todo if done is None or done < bound else stay).append(entry)
        if not todo:
            raise NoKMatrixError("target module not reached from the generator")
        reached = {}
        for mod, eta, _ in todo:
            composite = ribbon_compose(diag, eta, mod, eta_g, generator)
            skipped = False
            for wt, _, embs in decompose(tensor(mod, generator)):
                if wt.coords in braids or wt.coords in reached:
                    continue
                if wt.pairing(two_rho) > bound:
                    skipped = True
                    continue
                reached[wt.coords] = (
                    build_irrep(diag.datum, wt, qp),
                    read_only(embs[0].conj().T @ composite @ embs[0]))
            if skipped:
                stay.append((mod, eta, bound))
        braids.update((c, eta) for c, (_, eta) in reached.items())
        table["pending"] = stay + [(mod, eta, None)
                                   for mod, eta in reached.values()]
    return braids[u.highest.coords]


def _trivial_projector(u):
    """The projector of u ox u onto its trivial isotypic component."""
    triv = [emb for wt, _, embs in decompose(tensor(u, u)) for emb in embs
            if wt.is_zero()]
    if not triv:
        raise AmbiguityError("no trivial component in u ox u to fix the scale")
    return sum(emb @ emb.conj().T for emb in triv)


def _ribbon_unit_solutions(basis, composite, p0):
    """Solutions (up to the sign freedom resolved later) of: the ribbon
    composite restricted to the trivial component is the identity and the
    off-blocks through it vanish.  Quadratic in eta, solved projectively on
    a space of dimension <= 2."""
    comp = np.eye(p0.shape[0]) - p0

    def conditions(mat):
        return np.concatenate([
            (p0 @ mat @ comp).reshape(-1),
            (comp @ mat @ p0).reshape(-1),
            (p0 @ mat @ p0 - (np.trace(p0 @ mat @ p0) / np.trace(p0)) * p0).reshape(-1),
        ])

    def scale_of(mat):
        return np.trace(p0 @ mat @ p0) / np.trace(p0)

    if len(basis) == 1:
        d = basis[0]
        m = composite(d, d)
        if np.linalg.norm(conditions(m)) > 1e-7 * max(np.linalg.norm(m), 1.0):
            raise ConsistencyError("ribbon composite not block-scalar")
        rho = scale_of(m)
        if abs(rho) < 1e-12:
            raise NoKMatrixError("ribbon composite vanishes on the unit part")
        return [d / np.sqrt(rho)]

    d1, d2 = basis
    m11 = composite(d1, d1)
    m12 = composite(d1, d2) + composite(d2, d1)
    m22 = composite(d2, d2)
    rows = np.column_stack([conditions(m11), conditions(m12), conditions(m22)])
    # each row: alpha a^2 + beta ab + gamma b^2 = 0; find common roots on P^1
    norms = np.linalg.norm(rows, axis=1)
    scale = np.max(norms)
    out = []
    lead = int(np.argmax(norms))
    alpha, beta, gamma = rows[lead]
    roots = _projective_quadratic_roots(alpha, beta, gamma)
    for a, b in roots:
        d = a * d1 + b * d2
        nrm = np.linalg.norm(d)
        if nrm < 1e-12:
            continue
        d = d / nrm
        m = composite(d, d)
        if np.linalg.norm(conditions(m)) > 1e-6 * max(scale, 1.0):
            continue
        rho = scale_of(m)
        if abs(rho) < 1e-12:
            continue
        out.append(d / np.sqrt(rho))
    return out


def _projective_quadratic_roots(alpha, beta, gamma):
    """Roots (a : b) of alpha a^2 + beta ab + gamma b^2 = 0."""
    if abs(alpha) < 1e-14 and abs(beta) < 1e-14 and abs(gamma) < 1e-14:
        return []
    if abs(alpha) < 1e-14:
        # b (beta a + gamma b) = 0
        return [(1.0, 0.0), (gamma, -beta) if abs(beta) > 1e-14 else (1.0, 0.0)]
    disc = np.sqrt(beta * beta - 4 * alpha * gamma + 0j)
    return [((-beta + disc) / (2 * alpha), 1.0),
            ((-beta - disc) / (2 * alpha), 1.0)]


def _is_nonscalar(mat):
    lam = np.trace(mat) / mat.shape[0]
    return np.linalg.norm(mat - lam * np.eye(mat.shape[0])) \
        > 1e-8 * max(np.linalg.norm(mat), 1.0)


def _fix_gauge(eta):
    pivot = eta[-1, 0]
    if abs(pivot) > 1e-9:
        return eta * (abs(pivot) / pivot)
    det = np.linalg.det(eta)
    return eta * (abs(det) / det) ** (1.0 / eta.shape[0])
