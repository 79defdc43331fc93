"""Formal noncommutative polynomials in the generators E_r, F_r, K_omega.

An AlgebraElement is a complex-linear combination of words in the symbols

    ('E', r), ('F', r), ('K', coords)

where ``coords`` is a tuple of Fractions (fundamental-weight coordinates of
omega).  No normal ordering is attempted: the semantics of an element is its
evaluation on weight modules, which the tests carry out.  The program uses
formal elements only for the braid automorphisms of ``lusztig``, which the
tests compare the module braid operators against.  The coproduct, antipode
and *-structure are not formal here: Delta is written once, as matrices on
modules, in ``uqrep.coproduct_terms``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceError

# the most terms of a product or a map_symbols image (the tests reach 324);
# past it a formal expansion raises ResourceError instead of hanging.  No
# coideal generator is expanded formally outside the tests.
MAX_TERMS = 5000


def _k_sym(coords):
    return ("K", tuple(Fraction(c) for c in coords))


def normalize_word(word):
    """Canonical form of a word: adjacent K symbols merged, K_0 dropped.
    K_a K_b = K_{a+b} holds universally, so this is exact."""
    out = []
    for sym in word:
        if sym[0] == "K":
            coords = tuple(Fraction(c) for c in sym[1])
            if out and out[-1][0] == "K":
                coords = tuple(a + b for a, b in zip(out[-1][1], coords))
                out.pop()
            if any(coords):
                out.append(("K", coords))
        else:
            out.append(sym)
    return tuple(out)


class AlgebraElement:
    """dict word -> coefficient, word a tuple of symbols (canonicalized:
    adjacent K's merged, trivial K dropped)."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        self.terms = {}
        for word, coeff in (terms or {}).items():
            self._add_term(word, coeff)

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, datum):
        return cls(datum, {})

    @classmethod
    def one(cls, datum):
        return cls(datum, {(): 1.0})

    @classmethod
    def e(cls, datum, r):
        return cls(datum, {(("E", r),): 1.0})

    @classmethod
    def f(cls, datum, r):
        return cls(datum, {(("F", r),): 1.0})

    @classmethod
    def k(cls, datum, weight):
        return cls(datum, {(_k_sym(weight.coords),): 1.0})

    @classmethod
    def k_alpha(cls, datum, r, power=1):
        return cls.k(datum, power * datum.simple_root(r))

    # -- ring operations ---------------------------------------------------
    def _add_term(self, word, coeff):
        word = normalize_word(word)
        cur = self.terms.get(word, 0.0) + coeff
        if cur == 0:
            self.terms.pop(word, None)
        else:
            self.terms[word] = cur

    def __add__(self, other):
        other = self._coerce(other)
        out = AlgebraElement(self.datum)
        out.terms = dict(self.terms)
        for w, c in other.terms.items():
            out._add_term(w, c)
        return out

    def __sub__(self, other):
        return self + (-1) * self._coerce(other)

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            return NotImplemented
        return AlgebraElement(self.datum,
                              {w: complex(scalar) * c for w, c in self.terms.items()
                               if scalar != 0})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return complex(other) * self
        out = AlgebraElement.zero(self.datum)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out._add_term(w1 + w2, c1 * c2)
        return out._capped()

    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            return other
        return complex(other) * AlgebraElement.one(self.datum)

    def map_symbols(self, fn):
        """Algebra endomorphism from a symbol-level map.

        ``fn(symbol)`` returns an AlgebraElement; the map is extended
        multiplicatively over words and linearly over terms.
        """
        out = AlgebraElement.zero(self.datum)
        for word, coeff in self.terms.items():
            acc = coeff * AlgebraElement.one(self.datum)
            for sym in word:
                acc = acc * fn(sym)
            for w, c in acc.terms.items():
                out._add_term(w, c)
            out._capped()
        return out

    def _capped(self):
        """self, or ResourceError past MAX_TERMS terms."""
        if len(self.terms) > MAX_TERMS:
            raise ResourceError(f"a formal algebra element passed "
                                f"{MAX_TERMS} terms")
        return self

    def __repr__(self):
        bits = []
        for word, coeff in sorted(self.terms.items(), key=lambda kv: str(kv[0])):
            syms = "*".join(_sym_str(s) for s in word) or "1"
            bits.append(f"({coeff:.4g})*{syms}")
        return " + ".join(bits) or "0"


def _sym_str(sym):
    if sym[0] == "K":
        return "K[" + ",".join(str(c) for c in sym[1]) + "]"
    return f"{sym[0]}{sym[1]}"
