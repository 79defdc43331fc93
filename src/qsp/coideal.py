"""Letzter-Kolb coideal subalgebras attached to a Satake diagram.

The generators are

    B_r = F_r + c_r theta_q(F_r K_r) K_r^{-1} + s_r K_r^{-1},  r white,

together with the subsystem generators E_s, F_s, K_s (s in X) and the
Theta-fixed Cartan part.  theta_q is the quantum involution
Ad(z) o T_{w_X} o psi o tau o omega.

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
from fractions import Fraction

import numpy as np

from .algebra import (AlgebraElement, TensorElement, push_k_right,
                      push_k_right_tensor)
from .diagrams import classify_sets, hermitian_type
from .errors import (
    AmbiguityError,
    ConsistencyError,
    InputError,
    NoKMatrixError,
)
from .lusztig import braid_word_on_algebra
from .rmatrix import r21, rmat
from .rootsys import (alpha_coefficients, nullspace_frac,
                      positive_roots_closure, tau0)
from .uqrep import (WeightModule, act_tensor, build_irrep, decompose,
                    intertwiners, read_only, tensor, twist_module)

SPAN_DEGREE_CAP = 6


# ---------------------------------------------------------------------------
# theta_q and the generators
# ---------------------------------------------------------------------------

def theta_q(diag, qp, element):
    """Quantum analogue of the involution: Ad(z) o T_{w_X} o psi o tau o omega."""
    datum = diag.datum

    def omega_map(sym):
        kind = sym[0]
        if kind == "K":
            return AlgebraElement(datum, {(("K", tuple(-Fraction(c) for c in sym[1])),): 1.0})
        if kind == "E":
            return -1 * AlgebraElement.f(datum, sym[1])
        return -1 * AlgebraElement.e(datum, sym[1])

    def tau_map(sym):
        kind = sym[0]
        if kind == "K":
            w = diag.tau_weight(datum.weight(sym[1]))
            return AlgebraElement.k(datum, w)
        return AlgebraElement(datum, {((kind, diag.tau_of(sym[1])),): 1.0})

    def psi_map(sym):
        kind = sym[0]
        if kind == "K":
            return AlgebraElement(datum, {(sym,): 1.0})
        r = sym[1]
        if kind == "E":
            return AlgebraElement.e(datum, r) * AlgebraElement.k_alpha(datum, r)
        return AlgebraElement.k(datum, -1 * datum.simple_root(r)) \
            * AlgebraElement.f(datum, r)

    def ads_map(sym):
        kind = sym[0]
        if kind == "K":
            return AlgebraElement(datum, {(sym,): 1.0})
        z = diag.z(sym[1])
        return (z if kind == "E" else np.conj(z)) \
            * AlgebraElement(datum, {(sym,): 1.0})

    element = element.map_symbols(omega_map)
    element = element.map_symbols(tau_map)
    element = element.map_symbols(psi_map)
    element = braid_word_on_algebra(datum, qp, diag.wx_word().letters, element)
    return element.map_symbols(ads_map)


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
        c = dict(self.c)
        s = dict(self.s)
        c.update(upd.get("c", {}))
        s.update(upd.get("s", {}))
        return CoidealParams(c, s)


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
    datum = diag.datum
    c = {}
    for r in diag.white:
        expo = (diag.theta(datum.simple_root(r)) - datum.simple_root(r)) \
            .pairing(datum.simple_root(diag.tau_of(r)))
        c[r] = qp.qpow(expo / 2)
    return CoidealParams(c, {r: 0.0 for r in diag.white})


def b_generators(diag, params, qp):
    """B_r = F_r + c_r theta_q(F_r K_r) K_r^{-1} + s_r K_r^{-1}, r white."""
    _check_param_shape(diag, params)
    datum = diag.datum
    out = {}
    for r in diag.white:
        fk = AlgebraElement.f(datum, r) * AlgebraElement.k_alpha(datum, r)
        mid = theta_q(diag, qp, fk) * AlgebraElement.k(datum, -1 * datum.simple_root(r))
        out[r] = AlgebraElement.f(datum, r) + params.c[r] * mid \
            + params.s.get(r, 0.0) * AlgebraElement.k(datum, -1 * datum.simple_root(r))
    return out


def star_exponent(diag, r):
    """(Theta(alpha_r) - alpha_r, alpha_{tau(r)})."""
    datum = diag.datum
    a = datum.simple_root(r)
    return (diag.theta(a) - a).pairing(datum.simple_root(diag.tau_of(r)))


def validate_star(diag, params, qp, tol=1e-12):
    """Star-invariance constraints; returns (ok, violations).

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
    lattice (rational kernel of Theta - 1, cleared to primitive vectors)."""
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
        den = 1
        for x in vec:
            den = den * x.denominator // math.gcd(den, x.denominator)
        ints = [int(x * den) for x in vec]
        g = 0
        for x in ints:
            g = math.gcd(g, abs(x))
        if g:
            ints = [x // g for x in ints]
        out.append(datum.weight(ints))
    return out


# ---------------------------------------------------------------------------
# Span-membership test for star-invariance
# ---------------------------------------------------------------------------

def coideal_generator_elements(diag, params, qp):
    """AlgebraElements generating the coideal: B_r, the X-subsystem
    generators, and the Theta-fixed Cartan part (with inverses), plus the
    coideal elements K_{alpha_{tau(r)} - alpha_r}."""
    datum = diag.datum
    gens = list(b_generators(diag, params, qp).values())
    for s in diag.X:
        gens.append(AlgebraElement.e(datum, s))
        gens.append(AlgebraElement.f(datum, s))
        gens.append(AlgebraElement.k_alpha(datum, s))
        gens.append(AlgebraElement.k(datum, -1 * datum.simple_root(s)))
    for w in theta_fixed_basis(diag):
        gens.append(AlgebraElement.k(datum, w))
        gens.append(AlgebraElement.k(datum, -1 * w))
    for r in diag.white:
        tr = diag.tau_of(r)
        if tr > r:
            w = datum.simple_root(tr) - datum.simple_root(r)
            gens.append(AlgebraElement.k(datum, w))
            gens.append(AlgebraElement.k(datum, -1 * w))
    return gens


def direct_sum_module(modules):
    """Block-diagonal direct sum of weight modules over the same datum."""
    datum, qp = modules[0].datum, modules[0].qp
    dims = [m.dim for m in modules]
    total = sum(dims)
    weights = [w for m in modules for w in m.weights]
    E, F = {}, {}
    for r in datum.vertices:
        e = np.zeros((total, total), dtype=complex)
        f = np.zeros((total, total), dtype=complex)
        off = 0
        for m in modules:
            e[off:off + m.dim, off:off + m.dim] = m.E[r]
            f[off:off + m.dim, off:off + m.dim] = m.F[r]
            off += m.dim
        E[r], F[r] = e, f
    return WeightModule(datum, qp, weights, E, F,
                        label="+".join(m.label for m in modules))


def star_membership(diag, params, qp, modules):
    """Least-squares distance of each pi(B_r)^dagger from the span of
    coideal-generator monomials of degree <= SPAN_DEGREE_CAP, evaluated on the
    direct sum of the given modules.  Returns {r: relative residual}."""
    window = direct_sum_module(modules) if len(modules) > 1 else modules[0]
    gens = [window.act(g) for g in coideal_generator_elements(diag, params, qp)]
    span = _monomial_span(gens, window.dim)
    bmats = {r: window.act(b) for r, b in
             b_generators(diag, params, qp).items()}
    out = {}
    for r, b in bmats.items():
        target = b.conj().T
        dist = span.distance(target)
        out[r] = dist / max(np.linalg.norm(target), 1e-30)
    return out


def coideal_law_residual(diag, params, qp, m1, m2):
    """Right-coideal property on modules: for every generator b, the matrix
    of Delta(b) on m1 ox m2, reorganized as a map (second-leg entry pairs)
    -> (first-leg entry pairs), has its range inside the span of evaluated
    coideal monomials on m1.  Returns the worst relative residual."""
    gens = [m1.act(g) for g in coideal_generator_elements(diag, params, qp)]
    span = _monomial_span(gens, m1.dim)
    datum = diag.datum
    elements = list(b_generators(diag, params, qp).values())
    for s in diag.X:
        elements.append(AlgebraElement.e(datum, s))
        elements.append(AlgebraElement.f(datum, s))
    for w in theta_fixed_basis(diag):
        elements.append(AlgebraElement.k(datum, w))
    worst = 0.0
    for b in elements:
        mat = act_tensor(m1, m2, b.coproduct())
        reorg = mat.reshape(m1.dim, m2.dim, m1.dim, m2.dim) \
            .transpose(0, 2, 1, 3).reshape(m1.dim * m1.dim, m2.dim * m2.dim)
        dist = 0.0
        for col in range(reorg.shape[1]):
            v = span._project_out(reorg[:, col])
            dist += np.linalg.norm(v) ** 2
        worst = max(worst, math.sqrt(dist) / max(np.linalg.norm(mat), 1e-30))
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
    """Orthonormal basis of a subspace of matrices (vectorized)."""

    def __init__(self, dim, tol=1e-10):
        self.vectors = []
        self.dim = dim
        self.tol = tol

    def _project_out(self, vec):
        for b in self.vectors:
            vec = vec - (b.conj() @ vec) * b
        return vec

    def add(self, mat):
        vec = mat.reshape(-1)
        nrm0 = np.linalg.norm(vec)
        if nrm0 < 1e-300:
            return False
        vec = self._project_out(vec / nrm0)
        nrm = np.linalg.norm(vec)
        if nrm < self.tol:
            return False
        self.vectors.append(vec / nrm)
        return True

    def distance(self, mat):
        vec = self._project_out(mat.reshape(-1))
        return np.linalg.norm(vec)


# ---------------------------------------------------------------------------
# omega_0 and the gamma twist
# ---------------------------------------------------------------------------

def rho_roots(datum, subset):
    """Half the sum of the positive roots of the subsystem."""
    acc = datum.zero_weight()
    for beta in positive_roots_closure(datum, subset):
        acc = acc + beta
    return Fraction(1, 2) * acc


def omega0_gamma(diag, qp):
    """The weight omega_0 and the diagonal twist gamma = Ad(K_{omega_0}).

    Returns (omega0, gamma) with gamma a map on AlgebraElements."""
    datum = diag.datum
    rho_x = rho_roots(datum, diag.X)
    pair = {}
    for r in datum.vertices:
        if r in diag.X:
            pair[r] = Fraction(0)
        else:
            tr = diag.tau_of(r)
            a_r = datum.simple_root(r)
            a_tr = datum.simple_root(tr)
            val = (diag.theta(a_tr) - a_tr - diag.theta(a_r) + 2 * rho_x) \
                .pairing(a_r)
            pair[r] = val / 4
    omega0 = datum.weight([pair[r] / datum.d[r - 1] for r in datum.vertices])
    if diag.tau_weight(omega0).coords != omega0.coords:
        raise ConsistencyError("omega_0 not tau-invariant")
    if diag.theta(omega0).coords != (-omega0).coords:
        raise ConsistencyError("Theta(omega_0) != -omega_0")

    def gamma(element):
        def img(sym):
            kind = sym[0]
            if kind == "K":
                return AlgebraElement(datum, {(sym,): 1.0})
            r = sym[1]
            p = omega0.pairing(datum.simple_root(r))
            scal = qp.qpow(p if kind == "E" else -p)
            return scal * AlgebraElement(datum, {(sym,): 1.0})
        return element.map_symbols(img)

    return omega0, gamma


def kolb_parameters(diag, qp):
    """The reference solution c'_r = q^{(alpha_r, Theta(alpha_r) - 2 rho_X)/2},
    s' = 0, whose gamma twist is the no-parameter coideal."""
    datum = diag.datum
    rho_x = rho_roots(datum, diag.X)
    c = {}
    for r in diag.white:
        a = datum.simple_root(r)
        c[r] = qp.qpow(a.pairing(diag.theta(a) - 2 * rho_x) / 2)
    return CoidealParams(c, {r: 0.0 for r in diag.white})


def gamma_twist_residual(diag, qp, module):
    """Residual of gamma(B'_r) being proportional (by q^{-(omega0, alpha_r)})
    to the no-parameter B_r on a module."""
    omega0, gamma = omega0_gamma(diag, qp)
    b_noparam = b_generators(diag, no_parameter(diag, qp), qp)
    b_prime = b_generators(diag, kolb_parameters(diag, qp), qp)
    worst = 0.0
    for r in diag.white:
        lhs = module.act(gamma(b_prime[r]))
        scal = qp.qpow(-omega0.pairing(diag.datum.simple_root(r)))
        rhs = module.act(b_noparam[r]) * scal
        worst = max(worst, np.linalg.norm(lhs - rhs)
                    / max(np.linalg.norm(rhs), 1e-30))
    return worst


# ---------------------------------------------------------------------------
# coideal coproduct structure
# ---------------------------------------------------------------------------

@functools.cache
def coideal_coproduct_parts(diag, params, qp, r):
    """Split Delta(B_r) = B_r ox K_r^{-1} + 1 ox F_r + tail.

    Everything is brought to the K-right normal form so that equal elements
    written with different Cartan placements cancel.  The tail's first legs
    are validated to contain only X-colored raising symbols and Cartan
    symbols (the structural coideal property); a violation raises
    ConsistencyError.  Memoised for the life of the process; callers must
    not mutate the returned elements.
    """
    datum = diag.datum
    b = push_k_right(b_generators(diag, params, qp)[r], qp)
    delta = push_k_right_tensor(b.coproduct(), qp)
    kinv = ("K", tuple((-1 * datum.simple_root(r)).coords))
    head = TensorElement(datum, {(w, (kinv,)): c for w, c in b.terms.items()})
    second = TensorElement(datum, {((), (("F", r),)): 1.0})
    tail = delta - head - second
    scale = max((abs(c) for c in delta.terms.values()), default=1.0)
    cleaned = TensorElement(datum)
    for (w1, w2), coeff in tail.terms.items():
        if abs(coeff) < 1e-12 * scale:
            continue
        for sym in w1:
            if sym[0] == "K":
                continue
            if sym[0] == "F" or sym[1] not in diag.X:
                raise ConsistencyError(
                    f"tail first leg {w1} escapes U_q(g_X)^+ K")
        cleaned._add((w1, w2), coeff)
    return head, second, cleaned


def _leg1_k_weight(datum, word):
    acc = datum.zero_weight()
    for sym in word:
        if sym[0] == "K":
            acc = acc + datum.weight(sym[1])
    return acc


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
    t: float = 0.0

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
        return Character(b_values, f_alpha, 0.0)
    if h.kind == "SType":
        b_values[h.distinguished] = 1j * t
        return Character(b_values, f_alpha, t)
    f_alpha[h.distinguished] = float(t)
    return Character(b_values, f_alpha, t)


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


def pi_t_images(diag, params, qp, t):
    """pi_t on the generators, as AlgebraElements over the source coideal."""
    h = hermitian_type(diag)
    datum = diag.datum
    bgen = b_generators(diag, params, qp)
    chi = characters(diag, qp, t)
    out = {}
    for r in diag.white:
        kinv = AlgebraElement.k(datum, -1 * datum.simple_root(r))
        if h.kind == "SType" and r == h.distinguished:
            out[("B", r)] = bgen[r] + (1j * t) * kinv
        elif h.kind == "CType":
            scal = chi.k_value(datum, qp,
                               datum.simple_root(diag.tau_of(r))
                               - datum.simple_root(r))
            out[("B", r)] = scal * bgen[r] + (1 - scal) * AlgebraElement.f(datum, r)
        else:
            out[("B", r)] = bgen[r]
    return out


def pi_t_intertwining_residual(diag, params, qp, t, m1, m2):
    """Residual of (pi_t ox id) Delta = Delta pi_t on the B-generators,
    evaluated on m1 ox m2.

    The left side applies pi_t to the first legs through the coideal
    structure of Delta(B_r): the head picks up the pi_t image, the tail
    scales term-by-term by q^{f(Cartan content of the first leg)}."""
    datum = diag.datum
    chi = characters(diag, qp, t)
    params_t = conjugate(diag, params, qp, t)
    b_new = b_generators(diag, params_t, qp)
    images = pi_t_images(diag, params, qp, t)
    worst = 0.0
    for r in diag.white:
        _, _, tail = coideal_coproduct_parts(diag, params, qp, r)
        # (pi_t ox id) Delta(B_r)
        img = images[("B", r)]
        kinv = ("K", tuple((-1 * datum.simple_root(r)).coords))
        lhs_tensor = TensorElement(datum, {(w, (kinv,)): c
                                           for w, c in img.terms.items()})
        lhs_tensor += TensorElement(datum, {((), (("F", r),)): 1.0})
        scaled = TensorElement(datum)
        for (w1, w2), coeff in tail.terms.items():
            scal = chi.k_value(datum, qp, _leg1_k_weight(datum, w1))
            scaled += TensorElement(datum, {(w1, w2): coeff * scal})
        lhs_tensor += scaled
        lhs = act_tensor(m1, m2, lhs_tensor)
        # Delta(pi_t(B_r)) is the coproduct of the target-parameter generator
        rhs = act_tensor(m1, m2, b_new[r].coproduct())
        worst = max(worst, np.linalg.norm(lhs - rhs)
                    / max(np.linalg.norm(rhs), 1e-30))
    return worst


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
    label: str = ""

    def generator_matrices(self, wmod):
        """Matrices of B_r (r white), E_s/F_s/K_s (s in X) and the
        Theta-fixed K's on chi (.) wmod."""
        datum, qp = self.diag.datum, self.qp
        out = {}
        for r in self.diag.white:
            out[("B", r)] = self._b_matrix(r, wmod)
        for s in self.diag.X:
            out[("E", s)] = wmod.act(AlgebraElement.e(datum, s))
            out[("F", s)] = wmod.act(AlgebraElement.f(datum, s))
            out[("K", s)] = wmod.k_matrix(datum.simple_root(s))
        for i, w in enumerate(theta_fixed_basis(self.diag)):
            out[("Ktheta", i)] = self.chi.k_value(datum, qp, w) \
                * wmod.k_matrix(w)
        return out

    def _b_matrix(self, r, wmod):
        datum, qp = self.diag.datum, self.qp
        _, _, tail = coideal_coproduct_parts(self.diag, self.params, qp, r)
        mat = self.chi.b_values.get(r, 0.0) \
            * wmod.k_matrix(-1 * datum.simple_root(r))
        mat = mat + wmod.act(AlgebraElement.f(datum, r))
        for (w1, w2), coeff in tail.terms.items():
            if any(sym[0] in ("E", "F") for sym in w1):
                continue  # killed by the character
            scal = self.chi.k_value(datum, qp, _leg1_k_weight(datum, w1))
            mat = mat + coeff * scal * wmod.act(AlgebraElement(datum, {w2: 1.0}))
        return mat


def counit_module(diag, params, qp):
    """The restriction of the counit as a coideal module: chi(B_r) = s_r."""
    chi = Character({r: params.s.get(r, 0.0) for r in diag.white},
                    {r: 0.0 for r in diag.datum.vertices})
    return CoidealModule(diag, params, qp, chi, label="eps")


def character_module(diag, params, qp, chi, label="chi"):
    return CoidealModule(diag, params, qp, chi, label=label)


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
    not kept.
    """
    key = ("kmatrix", diag, params, qp, x0.chi, fuse_from)
    if key not in u.cache:
        u.cache[key] = read_only(_solve(diag, params, qp, x0, u, fuse_from))
    return u.cache[key]


def _solve(diag, params, qp, x0, u, fuse_from):
    """The uncached solve behind ``kmatrix_solve``."""
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
        return ribbon_compose(diag, qp, y, u, x, u)

    candidates = _ribbon_unit_solutions(basis, composite, p0)
    if not candidates:
        raise NoKMatrixError("no solution satisfies the ribbon unit condition")
    nonscalar = [eta for eta in candidates if _is_nonscalar(eta)]
    if len(nonscalar) > 1:
        raise AmbiguityError("several non-scalar ribbon solutions",
                             basis=nonscalar)
    eta = nonscalar[0] if nonscalar else candidates[0]
    return _fix_gauge(eta)


def ribbon_compose(diag, qp, eta_a, a_mod, eta_b, b_mod):
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
            composite = ribbon_compose(diag, qp, eta, mod, eta_g, generator)
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


def _is_nonscalar(mat, tol=1e-8):
    lam = np.trace(mat) / mat.shape[0]
    return np.linalg.norm(mat - lam * np.eye(mat.shape[0])) \
        > tol * max(np.linalg.norm(mat), 1.0)


def _fix_gauge(eta):
    pivot = eta[-1, 0]
    if abs(pivot) > 1e-9:
        return eta * (abs(pivot) / pivot)
    det = np.linalg.det(eta)
    return eta * (abs(det) / det) ** (1.0 / eta.shape[0])
