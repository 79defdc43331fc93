"""Lusztig braid operators on the algebra and on modules, and the
appendix-B identities of a parabolic subsystem: the extremal-vector
products Z^± as matrices on the X-subsystem irrep, and the constants e, d.

Algebra side: T_r is the automorphism

    T_r(E_r) = -F_r K_r,   T_r(F_r) = -K_r^{-1} E_r,   T_r(K_chi) = K_{s_r chi},
    T_r(E_s) = sum_{m+n=-a_rs} (-q_r)^{-m} / ([m]! [n]!)  E_r^n E_s E_r^m,
    T_r(F_s) = sum_{m+n=-a_rs} (-q_r)^{m}  / ([m]! [n]!)  F_r^m F_s F_r^n.

Module side: on each r-string with highest vector of Cartan pairing n, in
the divided-power basis w_k = F_r^{(k)} w_0,

    T_r w_k = (-1)^{n+k} q_r^{n + kn - k^2 - k} w_{n-k},

which is the operator normalization with T_r^{-1} xi = F_r^{(n)} xi on
highest weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement
from .errors import InputError
from .rootsys import WeylWord, beta_sequence, qfact, qint, restrict_datum
from .uqrep import QParams, build_irrep, kernel, relative


@dataclass(frozen=True)
class BraidContext:
    """A Satake diagram at a deformation parameter, with the stored reduced
    word of its w_X."""

    diagram: object
    qp: QParams

    @property
    def datum(self):
        return self.diagram.datum

    @property
    def word(self):
        return self.diagram.wx_word()


def word_exponents(word, varpi):
    """(varpi, beta_k^vee) along a reduced word; InputError unless each is
    a nonnegative integer."""
    out = []
    for beta in beta_sequence(word.datum, word):
        m = varpi.pairing(beta.coroot())
        if m.denominator != 1 or m < 0:
            raise InputError(
                f"(varpi, beta^vee) = {m} is not a nonnegative integer")
        out.append(int(m))
    return out


def braid_on_algebra(datum, qp, r, element):
    """Apply T_r to an AlgebraElement."""
    qr = qp.q_r(datum, r)

    def image(sym):
        kind = sym[0]
        if kind == "K":
            chi = datum.weight(sym[1]).reflect(r)
            return AlgebraElement.k(datum, chi)
        s = sym[1]
        if s == r:
            if kind == "E":
                return -1 * (AlgebraElement.f(datum, r)
                             * AlgebraElement.k_alpha(datum, r))
            return -1 * (AlgebraElement.k(datum, -1 * datum.simple_root(r))
                         * AlgebraElement.e(datum, r))
        a = datum.a(r, s)
        out = AlgebraElement.zero(datum)
        for m in range(-a + 1):
            n = -a - m
            if kind == "E":
                coeff = (-qr) ** (-m) / (qfact(m, qr) * qfact(n, qr))
                term = (_pow(AlgebraElement.e(datum, r), n)
                        * AlgebraElement.e(datum, s)
                        * _pow(AlgebraElement.e(datum, r), m))
            else:
                coeff = (-qr) ** m / (qfact(m, qr) * qfact(n, qr))
                term = (_pow(AlgebraElement.f(datum, r), m)
                        * AlgebraElement.f(datum, s)
                        * _pow(AlgebraElement.f(datum, r), n))
            out = out + coeff * term
        return out

    return element.map_symbols(image)


def braid_word_on_algebra(datum, qp, letters, element):
    """T_{r_1} ... T_{r_M} applied to an element (rightmost first)."""
    for r in reversed(tuple(letters)):
        element = braid_on_algebra(datum, qp, r, element)
    return element


def _pow(x, n):
    out = AlgebraElement.one(x.datum)
    for _ in range(n):
        out = out * x
    return out


def braid_on_module(module, r):
    """Matrix of T_r on a weight module, assembled string by string."""
    datum, qp = module.datum, module.qp
    qr = qp.q_r(datum, r)
    dim = module.dim
    er, fr = module.E[r], module.F[r]

    # r-highest vectors: kernel of E_r within each weight space
    spaces = module.weight_spaces()
    columns = []
    images = []
    for wc, idxs in sorted(spaces.items(), key=lambda kv: kv[0]):
        n_pair = wc[r - 1]  # (wt, alpha_r^vee) is the r-th coordinate
        if n_pair.denominator != 1 or n_pair < 0:
            continue
        n = int(n_pair)
        kern, _ = kernel(er[:, idxs], 1e-9)
        for c in range(kern.shape[1]):
            hw = np.zeros(dim, dtype=complex)
            hw[idxs] = kern[:, c]
            # divided-power string: w_k = F^{(k)} w_0 = F w_{k-1} / [k]
            string = [hw]
            for k in range(1, n + 1):
                string.append(fr @ string[k - 1] / qint(k, qr))
            for k in range(n + 1):
                t_k = (-1) ** (n + k) * qr ** (n + k * n - k * k - k)
                columns.append(string[k])
                images.append(t_k * string[n - k])
    w_mat = np.column_stack(columns)
    img_mat = np.column_stack(images)
    if w_mat.shape[1] != dim:
        raise InputError("r-string decomposition does not span the module")
    return img_mat @ np.linalg.inv(w_mat)


def braid_word_on_module(module, letters):
    out = np.eye(module.dim, dtype=complex)
    for r in letters:
        out = out @ braid_on_module(module, r)
    return out


def e_d_constants(word, qp, varpi):
    """e_varpi = d_{w varpi} = prod_k ([ (varpi, beta_k^vee) ]_{q_{r_k}}!)^2
    along a reduced word of w (w_X for a BraidContext's ``word``)."""
    val = 1.0
    for m, r in zip(word_exponents(word, varpi), word.letters):
        val *= qfact(m, qp.q_r(word.datum, r)) ** 2
    return val, val


def _ordered_powers(mats, letters, exps, dim):
    """mats[r_M]^{m_M} ... mats[r_1]^{m_1} on a module of dimension dim,
    multiplied from the left."""
    out = np.eye(dim, dtype=complex)
    for r, m in reversed(list(zip(letters, exps))):
        for _ in range(m):
            out = out @ mats[r]
    return out


def x_subsystem_module(ctx, varpi_sub_coords):
    """Irrep of the X-subsystem at a sub-datum highest weight, with the
    deformation parameter rescaled by the ambient length normalization.

    Returns (module, subctx_word_letters, sub_datum, scale)."""
    datum = ctx.datum
    sub, vmap, scale = restrict_datum(datum, ctx.diagram.X)
    inv = {v: k for k, v in vmap.items()}
    q_sub = ctx.qp.q ** float(scale)
    qp_sub = QParams(q_sub)
    module = build_irrep(sub, sub.weight(varpi_sub_coords), qp_sub)
    letters_sub = tuple(inv[r] for r in ctx.word.letters)
    return module, letters_sub, sub, scale


def verify_appB(ctx, varpi_sub_coords):
    """Residuals of the extremal-vector identities on the X-subsystem irrep.

    Keys: 'T-' (lowest-weight formula for T_{w_X}), 'T-inv', 'T+',
    'e' and 'd' (closed form against module-level scalars)."""
    module, letters, sub, _ = x_subsystem_module(ctx, varpi_sub_coords)
    qp_sub = module.qp
    varpi = module.highest
    word = WeylWord(sub, letters)
    exps = word_exponents(word, varpi)

    t_mat = braid_word_on_module(module, letters)
    # Z^- = F_{r_M}^{m_M} ... F_{r_1}^{m_1}, and Z^+ likewise with E
    zm_mat = _ordered_powers(module.F, letters, exps, module.dim)
    zp_mat = _ordered_powers(module.E, letters, exps, module.dim)
    xi = np.zeros(module.dim, dtype=complex)
    xi[0] = 1.0

    qfacts = 1.0
    signs = 1.0
    for m, r in zip(exps, letters):
        qfacts *= qfact(m, qp_sub.q_r(sub, r))
        signs *= (-1.0) ** m
    # q^{2 (varpi, rho_X)} in ambient normalization = q_sub^{2 (varpi, rho)_sub}
    pref = qp_sub.qpow(2 * varpi.pairing(sub.rho()))

    txi = t_mat @ xi
    res = {}
    res["T-"] = relative(txi - pref * signs / qfacts * (zm_mat @ xi), txi)
    res["T-inv"] = relative(
        np.linalg.solve(t_mat, xi) - (zm_mat @ xi) / qfacts, xi)
    res["T+"] = relative(t_mat @ txi - (zp_mat @ txi) / qfacts, txi)
    e_closed, d_closed = e_d_constants(word, qp_sub, varpi)
    res["e"] = _scalar_rel((zp_mat @ (zm_mat @ xi))[0], e_closed)
    zz = zm_mat @ (zp_mat @ txi)
    lead = np.argmax(np.abs(txi))
    res["d"] = _scalar_rel(zz[lead] / txi[lead], d_closed)
    return res


def _scalar_rel(got, want):
    return abs(got - want) / max(abs(want), 1e-30)
