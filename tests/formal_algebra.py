"""The formal Hopf structure of U_q(g) on AlgebraElements, kept as a
reference for the tests.

The program writes the coproduct once, as matrices on modules
(``qsp.uqrep.coproduct_terms``).  Here Delta, the antipode S and the
*-structure act symbol by symbol on formal words, Delta(x) is a
TensorElement of U ox U, and the extremal-vector elements Z^± and the
constant a_r^+ of a parabolic subsystem are formal monomials; the tests
evaluate them on modules and compare against the matrix route.
"""

from fractions import Fraction

import numpy as np

from qsp.algebra import AlgebraElement, _k_sym, normalize_word
from qsp.errors import InputError
from qsp.lusztig import _pow, e_d_constants, word_exponents
from qsp.rootsys import weyl_act


def symbol_matrix(module, sym):
    """Matrix of one generator symbol on a module."""
    kind = sym[0]
    if kind == "E":
        return module.E[sym[1]]
    if kind == "F":
        return module.F[sym[1]]
    if kind == "K":
        return module.k_matrix(module.datum.weight(sym[1]))
    raise InputError(f"unknown symbol {sym!r}")


def word_matrix(module, word):
    """Matrix of a word of generator symbols on a module."""
    out = np.eye(module.dim, dtype=complex)
    for sym in word:
        out = out @ symbol_matrix(module, sym)
    return out


def act(module, element):
    """Evaluate an AlgebraElement on a module."""
    if element.datum != module.datum:
        raise InputError("algebra element over a different datum")
    out = np.zeros((module.dim, module.dim), dtype=complex)
    for word, coeff in element.terms.items():
        out += coeff * word_matrix(module, word)
    return out


class TensorElement:
    """Element of U ox U: dict (word1, word2) -> coefficient, with both legs
    kept in canonical word form."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        self.terms = {}
        for wp, coeff in (terms or {}).items():
            self._add(wp, coeff)

    def _add(self, wp, coeff):
        wp = (normalize_word(wp[0]), normalize_word(wp[1]))
        cur = self.terms.get(wp, 0.0) + coeff
        if cur == 0:
            self.terms.pop(wp, None)
        else:
            self.terms[wp] = cur

    @classmethod
    def zero(cls, datum):
        return cls(datum, {})

    @classmethod
    def unit(cls, datum, coeff=1.0):
        return cls(datum, {((), ()): coeff})

    def __iadd__(self, other):
        for wp, c in other.terms.items():
            self._add(wp, c)
        return self

    def __sub__(self, other):
        out = TensorElement(self.datum)
        out.terms = dict(self.terms)
        for wp, c in other.terms.items():
            out._add(wp, -c)
        return out

    def __mul__(self, other):
        out = TensorElement.zero(self.datum)
        for (a1, a2), c1 in self.terms.items():
            for (b1, b2), c2 in other.terms.items():
                out._add((a1 + b1, a2 + b2), c1 * c2)
        return out


def act_tensor(m1, m2, tensor_element):
    """Evaluate a TensorElement on m1 ox m2."""
    n1, n2 = m1.dim, m2.dim
    out = np.zeros((n1 * n2, n1 * n2), dtype=complex)
    for (w1, w2), coeff in tensor_element.terms.items():
        out += coeff * np.kron(word_matrix(m1, w1), word_matrix(m2, w2))
    return out


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------

def coproduct(x):
    """Delta(x) as a TensorElement; Delta(E) = E ox 1 + K ox E,
    Delta(F) = F ox K^{-1} + 1 ox F, Delta(K) = K ox K."""
    out = TensorElement.zero(x.datum)
    for word, coeff in x.terms.items():
        acc = TensorElement.unit(x.datum, coeff)
        for sym in word:
            acc = acc * _delta_symbol(x.datum, sym)
        out += acc
    return out


def antipode(x):
    """S(E_r) = -K_r^{-1} E_r, S(F_r) = -F_r K_r, S(K) = K^{-1};
    anti-homomorphism."""
    return _anti_map(x, _antipode_symbol, lambda c: c)


def star(x):
    """*-structure: E_r* = F_r K_r, F_r* = K_r^{-1} E_r, K* = K;
    antilinear anti-homomorphism (the images are q-free)."""
    return _anti_map(x, _star_symbol, np.conj)


def adjoint_action(x, y):
    """Ad_q(x)(y) = x_(1) y S(x_(2))."""
    out = AlgebraElement.zero(x.datum)
    for (w1, w2), c in coproduct(x).terms.items():
        x1 = AlgebraElement(x.datum, {w1: c})
        x2 = AlgebraElement(x.datum, {w2: 1.0})
        prod = x1 * y * antipode(x2)
        for w, cc in prod.terms.items():
            out._add_term(w, cc)
    return out


def _anti_map(x, symbol_image, on_coeff):
    """The anti-homomorphism with the given symbol images, applying
    ``on_coeff`` to the coefficients."""
    datum = x.datum
    out = AlgebraElement.zero(datum)
    for word, coeff in x.terms.items():
        acc = on_coeff(coeff) * AlgebraElement.one(datum)
        for sym in reversed(word):
            acc = acc * symbol_image(datum, sym)
        for w, c in acc.terms.items():
            out._add_term(w, c)
    return out


def _delta_symbol(datum, sym):
    kind = sym[0]
    if kind == "K":
        return TensorElement(datum, {((sym,), (sym,)): 1.0})
    r = sym[1]
    kr = (_k_sym(datum.simple_root(r).coords),)
    krinv = (_k_sym((-datum.simple_root(r)).coords),)
    if kind == "E":
        return TensorElement(datum, {((sym,), ()): 1.0, (kr, (sym,)): 1.0})
    if kind == "F":
        return TensorElement(datum, {((sym,), krinv): 1.0, ((), (sym,)): 1.0})
    raise InputError(f"unknown symbol {sym!r}")


def _antipode_symbol(datum, sym):
    kind = sym[0]
    if kind == "K":
        return AlgebraElement(datum, {(("K", tuple(-Fraction(c) for c in sym[1])),): 1.0})
    r = sym[1]
    if kind == "E":
        out = AlgebraElement(datum)
        out.terms = {(_k_sym((-datum.simple_root(r)).coords), sym): -1.0}
        return out
    if kind == "F":
        out = AlgebraElement(datum)
        out.terms = {(sym, _k_sym(datum.simple_root(r).coords)): -1.0}
        return out
    raise InputError(f"unknown symbol {sym!r}")


def _star_symbol(datum, sym):
    kind = sym[0]
    if kind == "K":
        return AlgebraElement(datum, {(sym,): 1.0})
    r = sym[1]
    if kind == "E":
        return AlgebraElement(datum, {(("F", r), _k_sym(datum.simple_root(r).coords)): 1.0})
    if kind == "F":
        return AlgebraElement(datum, {(_k_sym((-datum.simple_root(r)).coords), ("E", r)): 1.0})
    raise InputError(f"unknown symbol {sym!r}")


# ---------------------------------------------------------------------------
# extremal-vector elements of a parabolic subsystem
# ---------------------------------------------------------------------------

def z_elements(ctx, varpi):
    """(Z^-, Z^+) monomials for the stored reduced word of w_X."""
    datum = ctx.datum
    exps = word_exponents(ctx.word, varpi)
    letters = ctx.word.letters
    # Z^- = F_{r_M}^{m_M} ... F_{r_1}^{m_1}: leftmost factor is r_M
    zminus = AlgebraElement.one(datum)
    zplus = AlgebraElement.one(datum)
    for k in range(len(letters) - 1, -1, -1):
        zminus = zminus * _pow(AlgebraElement.f(datum, letters[k]), exps[k])
        zplus = zplus * _pow(AlgebraElement.e(datum, letters[k]), exps[k])
    return zminus, zplus


def a_plus(ctx, r):
    """a_r^+ = d_{alpha_r}^{-1/2}, with d computed at the X-dominant weight
    w_X(alpha_r)."""
    datum = ctx.datum
    if r in ctx.diagram.X:
        raise InputError("a_r^+ is defined for white vertices")
    w = weyl_act(datum, ctx.word, datum.simple_root(r))
    d, _ = e_d_constants(ctx.word, ctx.qp, w)
    return d ** -0.5
