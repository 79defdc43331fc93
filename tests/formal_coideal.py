"""The formal route to the coideal generators, kept as a reference for
the tests.

Here B_r = F_r + c_r theta_q(F_r K_r) K_r^{-1} + s_r K_r^{-1} is a formal
AlgebraElement: theta_q = Ad(z) o T_{w_X} o psi o tau o omega is expanded
symbol by symbol through ``lusztig.braid_word_on_algebra``, Delta(B_r) is
the formal coproduct of ``formal_algebra``, and its tail is split off in the K-right normal form.
``qsp.coideal`` computes the same matrices on modules from the module
braid operators; the tests compare the two routes.  The formal expansion
grows fast with the length of w_X, so only short words are practical here.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from qsp.algebra import AlgebraElement
from qsp.coideal import (
    SPAN_DEGREE_CAP,
    CoidealParams,
    _check_param_shape,
    _monomial_span,
    characters,
    direct_sum_module,
    no_parameter,
    theta_fixed_basis,
)
from qsp.diagrams import hermitian_type
from qsp.errors import ConsistencyError, InputError
from qsp.lusztig import braid_word_on_algebra
from qsp.rootsys import positive_roots

from formal_algebra import TensorElement, act, act_tensor, coproduct


# ---------------------------------------------------------------------------
# K-right normal form
# ---------------------------------------------------------------------------

def push_k_right(element, qp):
    """Normal form with all K symbols commuted to the right end of each
    word, using K_w E_r = q^{(w, alpha_r)} E_r K_w (and the inverse power
    for F_r).  Exact at numeric q; enables cancellation of equal elements
    written with different K placements."""
    datum = element.datum
    out = AlgebraElement.zero(datum)
    for word, coeff in element.terms.items():
        body = []
        k_weight = None
        factor = coeff
        for sym in word:
            if sym[0] == "K":
                w = datum.weight(sym[1])
                k_weight = w if k_weight is None else k_weight + w
            else:
                if k_weight is not None:
                    pair = k_weight.pairing(datum.simple_root(sym[1]))
                    factor *= qp.qpow(pair if sym[0] == "E" else -pair)
                body.append(sym)
        if k_weight is not None and any(k_weight.coords):
            body.append(("K", k_weight.coords))
        out._add_term(tuple(body), factor)
    return out


def push_k_right_tensor(te, qp):
    """Apply push_k_right to both legs of a TensorElement."""
    out = TensorElement.zero(te.datum)
    for (w1, w2), coeff in te.terms.items():
        e1 = push_k_right(AlgebraElement(te.datum, {w1: 1.0}), qp)
        e2 = push_k_right(AlgebraElement(te.datum, {w2: 1.0}), qp)
        for w1b, c1 in e1.terms.items():
            for w2b, c2 in e2.terms.items():
                out._add((w1b, w2b), coeff * c1 * c2)
    return out


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


def formal_star_membership(diag, params, qp, modules):
    """``qsp.coideal.star_membership`` with every generator evaluated from
    its formal AlgebraElement."""
    window = direct_sum_module(modules) if len(modules) > 1 else modules[0]
    gens = [act(window, g) for g in coideal_generator_elements(diag, params, qp)]
    span = _monomial_span(gens, window.dim)
    bmats = {r: act(window, b) for r, b in
             b_generators(diag, params, qp).items()}
    out = {}
    for r, b in bmats.items():
        target = b.conj().T
        dist = span.distance(target)
        out[r] = dist / max(np.linalg.norm(target), 1e-30)
    return out


def formal_coideal_law_residual(diag, params, qp, m1, m2):
    """``qsp.coideal.coideal_law_residual`` with Delta(b) on m1 ox m2
    evaluated from the formal coproduct of each generator b."""
    gens = [act(m1, g) for g in coideal_generator_elements(diag, params, qp)]
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
        mat = act_tensor(m1, m2, coproduct(b))
        reorg = mat.reshape(m1.dim, m2.dim, m1.dim, m2.dim) \
            .transpose(0, 2, 1, 3).reshape(m1.dim * m1.dim, m2.dim * m2.dim)
        dist = np.linalg.norm(span._project_out(reorg))
        worst = max(worst, dist / max(np.linalg.norm(mat), 1e-30))
    return worst


# ---------------------------------------------------------------------------
# sequential span reference
# ---------------------------------------------------------------------------

class SequentialSpan:
    """The span of ``qsp.coideal._IncrementalSpan`` built one vector at a
    time: a list of orthonormal vectors, and a projection that subtracts
    them one by one (modified Gram-Schmidt, once), with the same cuts."""

    def __init__(self, dim):
        self.vectors = []
        self.dim = dim

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
        if nrm < 1e-10:
            return False
        self.vectors.append(vec / nrm)
        return True

    def distance(self, mat):
        vec = self._project_out(mat.reshape(-1))
        return np.linalg.norm(vec)


def sequential_monomial_span(gens, dim):
    """``qsp.coideal._monomial_span`` on a ``SequentialSpan``: the same
    degree-by-degree frontier up to SPAN_DEGREE_CAP."""
    span = SequentialSpan(dim)
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


def sequential_law_residual(span, mats, d1, d2):
    """The coideal law residual of ``mats`` on a d1 x d2 tensor product,
    column by column against a ``SequentialSpan`` on the first leg."""
    worst = 0.0
    for mat in mats:
        reorg = mat.reshape(d1, d2, d1, d2).transpose(0, 2, 1, 3) \
            .reshape(d1 * d1, d2 * d2)
        dist = 0.0
        for col in range(reorg.shape[1]):
            dist += np.linalg.norm(span._project_out(reorg[:, col])) ** 2
        worst = max(worst, math.sqrt(dist) / max(np.linalg.norm(mat), 1e-30))
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
    delta = push_k_right_tensor(coproduct(b), qp)
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


def tail_b_matrix(x0, r, wmod):
    """(chi ox id) Delta(B_r) on wmod for the character module x0, from
    the first-leg Cartan terms of the formal coproduct tail."""
    datum, qp = x0.diag.datum, x0.qp
    _, _, tail = coideal_coproduct_parts(x0.diag, x0.params, qp, r)
    mat = x0.chi.b_values.get(r, 0.0) \
        * wmod.k_matrix(-1 * datum.simple_root(r))
    mat = mat + act(wmod, AlgebraElement.f(datum, r))
    for (w1, w2), coeff in tail.terms.items():
        if any(sym[0] in ("E", "F") for sym in w1):
            continue  # killed by the character
        scal = x0.chi.k_value(datum, qp, _leg1_k_weight(datum, w1))
        mat = mat + coeff * scal * act(wmod, AlgebraElement(datum, {w2: 1.0}))
    return mat


# ---------------------------------------------------------------------------
# omega_0 and the gamma twist
# ---------------------------------------------------------------------------

def rho_roots(datum, subset):
    """Half the sum of the positive roots of the subsystem."""
    acc = datum.zero_weight()
    for beta in positive_roots(datum, subset):
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
        lhs = act(module, gamma(b_prime[r]))
        scal = qp.qpow(-omega0.pairing(diag.datum.simple_root(r)))
        rhs = act(module, b_noparam[r]) * scal
        worst = max(worst, np.linalg.norm(lhs - rhs)
                    / max(np.linalg.norm(rhs), 1e-30))
    return worst


# ---------------------------------------------------------------------------
# the conjugation pi_t
# ---------------------------------------------------------------------------

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
        rhs = act_tensor(m1, m2, coproduct(b_new[r]))
        worst = max(worst, np.linalg.norm(lhs - rhs)
                    / max(np.linalg.norm(rhs), 1e-30))
    return worst
