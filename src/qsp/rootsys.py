"""Exact root-system, Weyl-group and q-number combinatorics.

Everything in this module is computed over exact rationals
(``fractions.Fraction``); floating point enters only downstream, when a
numeric deformation parameter is supplied.  The invariant form is integer
arithmetic: the Gram matrix is kept as integers over one denominator, and a
pairing divides once.  Data that depend only on the datum and a vertex
subset (positive roots, w_X words, inverse sub-Cartan matrices) are computed
once and kept, immutable, in the datum's ``cache``.

``kept`` is the package's one way to keep derived data: every per-object
cache of qsp (a datum's, a module's, a ladder's, the KZ tensors') is filled
by a function it decorates, which keys the entry and makes its arrays
read-only (``read_only``).

Weights are stored in fundamental-weight coordinates, so the coordinate of a
weight at vertex ``r`` is the Cartan pairing ``(mu, alpha_r^vee)``.  Simple
roots are the columns of the Cartan matrix in these coordinates.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import ConsistencyError, InputError

CLASSICAL_TYPES = "ABCDEFG"

# Rank bounds per simple type; rank capped at 8 per component.
_RANK_BOUNDS = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (3, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _cartan_block(typ, rank):
    """Cartan matrix of one simple component, Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if typ in "ABCF":
        for i in range(rank - 1):
            bond(i, i + 1)
    if typ == "B":
        # alpha_rank short: arrow from rank-1 to rank
        a[rank - 1][rank - 2] = -2
    elif typ == "C":
        a[rank - 2][rank - 1] = -2
    elif typ == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        a[rank - 2][rank - 1] = 0
        a[rank - 1][rank - 2] = 0
        bond(rank - 3, rank - 1)
    elif typ == "E":
        # chain 1-3-4-5-...-rank, vertex 2 attached to 4
        for i in range(2, rank - 1):
            bond(i, i + 1)
        bond(0, 2)
        bond(1, 3)
        a[0][1] = 0
        a[1][0] = 0
        a[1][2] = 0
        a[2][1] = 0
    elif typ == "F":
        a[1][2] = -1
        a[2][1] = -2
    elif typ == "G":
        a[0][1] = -3
        a[1][0] = -1
    return a


def _symmetrizers(typ, rank):
    """d_r with d_r a_rs = d_s a_sr; short roots have square length 2."""
    if typ in "ADE":
        return [1] * rank
    if typ == "B":
        return [2] * (rank - 1) + [1]
    if typ == "C":
        return [1] * (rank - 1) + [2]
    if typ == "F":
        return [2, 2, 1, 1]
    if typ == "G":
        return [1, 3]
    raise InputError(f"unknown type {typ!r}")


def _gauss_jordan(mat, ncols=None):
    """Exact Gauss-Jordan elimination over the first ``ncols`` columns (all
    by default); later columns ride along as an augmented block.

    Returns (reduced rows, pivot columns, det): the rows are in reduced row
    echelon form as Fractions, and det is the determinant of the leading
    square block (0 when a column has no pivot)."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots, det = [], Fraction(1)
    for col in range(ncols):
        row = len(pivots)
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            det = -det
        det *= a[row][col]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots, det


def nullspace_frac(mat):
    """Basis of the rational kernel of a matrix, one vector per free column
    (that entry 1, the other free entries 0)."""
    ncols = len(mat[0])
    red, pivots, _ = _gauss_jordan(mat)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


@dataclass(frozen=True)
class RootDatum:
    """Cartan data of a semisimple type: vertex set, Cartan matrix,
    symmetrizers and the fundamental-weight Gram matrix.

    Vertices are numbered 1..rank across components, Bourbaki order within
    each component.  ``cache`` keeps the per-subset data derived from the
    datum; it takes no part in equality, hashing or repr.
    """

    components: tuple  # ((type, rank), ...)
    cartan: tuple      # rows of the Cartan matrix (a_rs)
    d: tuple           # symmetrizers d_r
    d_A: int           # index of Q in P (lcm of component determinants)
    gram_num: tuple    # (varpi_r, varpi_s) * gram_den, as ints
    gram_den: int      # the common denominator of the Gram matrix
    cache: dict = field(default_factory=dict, compare=False, hash=False,
                        repr=False)

    @property
    def rank(self):
        return len(self.d)

    @property
    def vertices(self):
        return tuple(range(1, self.rank + 1))

    def a(self, r, s):
        return self.cartan[r - 1][s - 1]

    def simple_root(self, r):
        """alpha_r in fundamental-weight coordinates (column r of A)."""
        return Weight(self, tuple(Fraction(self.cartan[s][r - 1])
                                  for s in range(self.rank)))

    def fundamental_weight(self, r):
        coords = [Fraction(0)] * self.rank
        coords[r - 1] = Fraction(1)
        return Weight(self, tuple(coords))

    def zero_weight(self):
        return Weight(self, (Fraction(0),) * self.rank)

    def rho(self):
        """Half sum of positive roots = sum of fundamental weights."""
        return Weight(self, (Fraction(1),) * self.rank)

    def weight(self, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.rank:
            raise InputError("weight coordinate length != rank")
        return Weight(self, coords)

    def to_json(self):
        return {
            "components": [[t, r] for t, r in self.components],
            "cartan_matrix": [list(row) for row in self.cartan],
            "d": list(self.d),
            "d_A": self.d_A,
        }


def build_root_datum(type_spec):
    """Build a RootDatum from a list of (type, rank) pairs.

    >>> build_root_datum([("A", 1)]).d_A
    2
    """
    if isinstance(type_spec, str):
        type_spec = parse_type_string(type_spec)
    comps = []
    for typ, rank in type_spec:
        typ = str(typ).upper()
        if typ not in CLASSICAL_TYPES:
            raise InputError(f"unknown Cartan type {typ!r}")
        lo, hi = _RANK_BOUNDS[typ]
        if not (lo <= rank <= hi):
            raise InputError(f"rank {rank} invalid for type {typ} (allowed {lo}..{hi})")
        comps.append((typ, int(rank)))
    if not comps:
        raise InputError("empty type specification")
    return _assemble(comps, [x for typ, rk in comps
                             for x in _symmetrizers(typ, rk)])


def _assemble(comps, d):
    """RootDatum of checked (type, rank) components, Bourbaki-ordered, with
    the symmetrizers d; the Gram matrix of the fundamental weights follows
    from the Cartan matrix and d."""
    n = sum(rk for _, rk in comps)
    cartan = [[0] * n for _ in range(n)]
    off = 0
    dets = []
    for typ, rk in comps:
        block = _cartan_block(typ, rk)
        for i in range(rk):
            for j in range(rk):
                cartan[off + i][off + j] = block[i][j]
        dets.append(int(_gauss_jordan(block)[2]))
        off += rk

    d_A = lcm(*dets)
    # Gram matrix of fundamental weights: G = D B^{-1} D with B = diag(d) A.
    b = [[Fraction(d[i] * cartan[i][j]) for j in range(n)] for i in range(n)]
    eye = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    red, _, _ = _gauss_jordan([row + e for row, e in zip(b, eye)], n)
    gram = [[d[i] * red[i][n + j] * d[j] for j in range(n)] for i in range(n)]
    den = lcm(*(g.denominator for row in gram for g in row))
    gram_num = tuple(tuple(int(g * den) for g in row) for row in gram)

    datum = RootDatum(tuple(comps), tuple(map(tuple, cartan)), tuple(d), d_A,
                      gram_num, den)
    _check_datum_invariants(datum)
    return datum


def parse_type_string(s):
    """Parse 'A1', 'A2xA1', 'B3 x G2' into [(type, rank), ...]."""
    parts = s.replace(" ", "").split("x")
    spec = []
    for p in parts:
        if len(p) < 2 or p[0].upper() not in CLASSICAL_TYPES or not p[1:].isdigit():
            raise InputError(f"cannot parse type token {p!r}")
        spec.append((p[0].upper(), int(p[1:])))
    return spec


def _check_datum_invariants(datum):
    n = datum.rank
    for i in range(n):
        if datum.cartan[i][i] != 2:
            raise InputError("Cartan diagonal not 2")
        for j in range(n):
            if i != j and datum.cartan[i][j] > 0:
                raise InputError("positive off-diagonal Cartan entry")
            if datum.d[i] * datum.cartan[i][j] != datum.d[j] * datum.cartan[j][i]:
                raise InputError("d_r a_rs not symmetric")


@dataclass(frozen=True)
class Weight:
    """Weight in fundamental-weight coordinates; coords are Fractions."""

    datum: RootDatum
    coords: tuple

    def __add__(self, other):
        self._same(other)
        return Weight(self.datum, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._same(other)
        return Weight(self.datum, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Weight(self.datum, tuple(-a for a in self.coords))

    def __rmul__(self, c):
        return Weight(self.datum, tuple(Fraction(c) * a for a in self.coords))

    def _same(self, other):
        if self.datum is not other.datum and self.datum != other.datum:
            raise InputError("weights over different data")

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def scaled(self):
        """(integer coordinates as a list, their common denominator).  Lists,
        not tuples built from generators: this runs for every pairing, and
        that churn would fill the interpreter's tuple free lists."""
        den = lcm(*[c.denominator for c in self.coords])
        return [c.numerator * (den // c.denominator) for c in self.coords], den

    def pairing(self, other):
        """Invariant form (mu, nu), a Fraction; short roots have square
        length 2.  Integer numerators over the Gram denominator, divided
        once."""
        self._same(other)
        (a, da), (b, db) = self.scaled(), other.scaled()
        g = self.datum.gram_num
        total = sum(x * sum(gx * y for gx, y in zip(row, b) if y)
                    for x, row in zip(a, g) if x)
        return Fraction(total) / (da * db * self.datum.gram_den)

    def reflect(self, r):
        """s_r(mu) = mu - (mu, alpha_r^vee) alpha_r."""
        c = self.coords[r - 1]
        if c == 0:
            return self
        a = self.datum.cartan
        return Weight(self.datum, tuple(
            self.coords[s] - c * a[s][r - 1] for s in range(self.datum.rank)))

    def coroot(self):
        """2 mu / (mu, mu), as a Weight (valid when mu is a root)."""
        n2 = self.pairing(self)
        if n2 == 0:
            raise InputError("coroot of zero weight")
        return Weight(self.datum, tuple(2 * c / n2 for c in self.coords))

    def to_json(self):
        return [f"{c.numerator}/{c.denominator}" for c in self.coords]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def root_datum_from_json(obj):
    """RootDatum of {"components": [[type, rank], ...]}.  A given "d" must
    be the symmetrizers of those components."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    datum = build_root_datum([(t, r) for t, r in obj["components"]])
    if "d" in obj and obj["d"] != list(datum.d):
        raise InputError(f"d must be {list(datum.d)}, the symmetrizers of "
                         "the components")
    return datum


@dataclass(frozen=True)
class WeylWord:
    """A word in the simple reflections, stored as a tuple of vertex indices."""

    datum: RootDatum
    letters: tuple

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


def weyl_act(datum, word, mu):
    """Apply the Weyl word to a weight: w = s_{r_1} ... s_{r_k} acting as a
    composition, leftmost letter applied last."""
    if isinstance(word, WeylWord):
        letters = word.letters
    else:
        letters = tuple(word)
    for r in reversed(letters):
        mu = mu.reflect(r)
    return mu


def _validate_subset(datum, subset):
    subset = tuple(sorted(set(subset)))
    for r in subset:
        if r not in datum.vertices:
            raise InputError(f"vertex {r} not in datum")
    return subset


def read_only(value):
    """Mark every ndarray in value, also inside tuples and lists, read-only;
    returns value."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            read_only(item)
    return value


_MISSING = object()


def kept(key):
    """Decorator: ``fn(owner, *args)`` is built on the first call, stored
    with its arrays read-only in ``owner.cache[key(owner, *args)]``, and
    looked up there afterwards.  Errors are not kept."""
    def keep(fn):
        @functools.wraps(fn)
        def lookup(owner, *args):
            k = key(owner, *args)
            val = owner.cache.get(k, _MISSING)
            if val is _MISSING:
                val = owner.cache[k] = read_only(fn(owner, *args))
            return val
        return lookup
    return keep


def longest_element(datum, subset=None):
    """Reduced word for the longest element w_X of the parabolic subsystem,
    the lexicographically smallest one; kept in the datum's cache per
    subset.

    A chamber walk: start from lambda = sum of varpi_r over r in X, reflect
    by s_r for the smallest r in X with (lambda, alpha_r^vee) > 0, and stop
    when there is none; the letters, in order, are the word.  Write
    u = s_{r_k} ... s_{r_1} for the walk so far.  lambda is regular
    dominant for X, so for t in X, (u lambda, alpha_t^vee) > 0 iff
    l(s_t u) > l(u) iff l(s_t u w_X) < l(u w_X): s_t starts a reduced word
    of u w_X = (s_{r_1} ... s_{r_k})^{-1} w_X, the part of w_X not yet
    written.  Each step thus takes the smallest letter that can come next,
    and the walk ends at u = w_X, where X has no such t left.
    """
    if subset is None:
        subset = datum.vertices
    return _longest_element(datum, _validate_subset(datum, subset))


@kept(lambda datum, subset: ("longest", subset))
def _longest_element(datum, subset):
    lam = datum.weight([int(r in subset) for r in datum.vertices])
    word = []
    while True:
        r = next((r for r in subset if lam.coords[r - 1] > 0), None)
        if r is None:
            return WeylWord(datum, tuple(word))
        word.append(r)
        lam = lam.reflect(r)


def alpha_coefficients(weight, subset):
    """Expand a weight supported on ZZ<alpha_r : r in subset>; None if not.

    Solves sum_t c_t alpha_t = weight in fundamental coordinates: the rows
    in the subset form the sub-Cartan system, whose inverse (an integer
    adjugate over its determinant, kept per subset in the datum's cache)
    gives c; the other rows must then agree."""
    datum = weight.datum
    sub = tuple(subset)
    adj, det = _sub_cartan_inverse(datum, sub)
    num, den = weight.scaled()
    # c_t = y_t / (det den), all in integers
    y = [sum(x * num[s - 1] for x, s in zip(row, sub)) for row in adj]
    for s in datum.vertices:
        if s not in sub and sum(
                c * datum.a(s, t) for c, t in zip(y, sub)) != num[s - 1] * det:
            return None
    return {t: Fraction(c, det * den) for t, c in zip(sub, y)}


@kept(lambda datum, sub: ("sub_cartan_inv", sub))
def _sub_cartan_inverse(datum, sub):
    """(adjugate, determinant) of the Cartan matrix restricted to sub, as
    ints."""
    k = len(sub)
    aug = [[datum.a(s, t) for t in sub] + [int(i == j) for j in range(k)]
           for i, s in enumerate(sub)]
    red, _, det = _gauss_jordan(aug, k)
    return (tuple(tuple(int(x * det) for x in row[k:]) for row in red),
            int(det))


def positive_roots(datum, subset):
    """All positive roots of the subsystem, as a tuple sorted by (height,
    coords): the beta sequence of the reduced word of w_X, which lists each
    of them once.  Kept in the datum's cache per subset."""
    return _positive_roots(datum, _validate_subset(datum, subset))


@kept(lambda datum, subset: ("positive_roots", subset))
def _positive_roots(datum, subset):
    roots = sorted(_beta_roots(datum, longest_element(datum, subset)),
                   key=lambda root: (sum(root[0]), root[1].coords))
    return tuple(beta for _, beta in roots)


def _beta_roots(datum, word):
    """(coefficients in the simple roots, weight) of each beta_k along a
    word.  The prefix product P = s_{r_1} ... s_{r_{k-1}} is carried as an
    integer matrix on simple-root coordinates: beta_k is its column r_k,
    and P s_{r_k} = P - beta_k (row r_k of the Cartan matrix), since
    s_r(alpha_t) = alpha_t - a_{rt} alpha_r."""
    n = datum.rank
    cartan = datum.cartan
    prefix = [[int(i == j) for j in range(n)] for i in range(n)]
    out = []
    for r in word.letters:
        coeffs = [row[r - 1] for row in prefix]
        for row, c in zip(prefix, coeffs):
            if c:
                for j, a in enumerate(cartan[r - 1]):
                    row[j] -= c * a
        out.append((coeffs, datum.weight(
            [sum(c * a for c, a in zip(coeffs, row)) for row in cartan])))
    return out


def beta_sequence(datum, word):
    """beta_k = s_{r_1} ... s_{r_{k-1}} (alpha_{r_k}) along a word; for a
    reduced word of w, the positive roots that w^{-1} makes negative, each
    once."""
    return [beta for _, beta in _beta_roots(datum, word)]


def rho_check(datum, subset):
    """rho_X^vee: half the sum of the positive coroots of the subsystem,
    represented as a weight via the invariant form."""
    subset = _validate_subset(datum, subset)
    acc = datum.zero_weight()
    for beta in positive_roots(datum, subset):
        acc = acc + beta.coroot()
    return Fraction(1, 2) * acc


def qint(n, q):
    """[n]_q = (q^{-n} - q^n) / (q^{-1} - q)."""
    if n < 0:
        raise InputError("q-integer of negative n")
    if n == 0:
        return q * 0
    return sum(q ** (n - 1 - 2 * k) for k in range(n))


def qfact(n, q):
    """[n]_q! with [0]_q! = 1."""
    if n < 0:
        raise InputError("q-factorial of negative n")
    out = Fraction(1) if isinstance(q, (int, Fraction)) else (q * 0 + 1)
    for k in range(2, n + 1):
        out = out * qint(k, q)
    return out


def tau0(datum):
    """Diagram automorphism characterized by alpha_{tau0(r)} = -w_0 alpha_r."""
    w0 = longest_element(datum, datum.vertices)
    out = {}
    simple = {datum.simple_root(r).coords: r for r in datum.vertices}
    for r in datum.vertices:
        img = -weyl_act(datum, w0, datum.simple_root(r))
        out[r] = simple[img.coords]
    return out


def diagram_automorphisms(datum):
    """All permutations of the vertices preserving the Cartan matrix, in
    lexicographic order of their images.  The images of vertices 1, 2, ...
    are assigned in turn, and a partial assignment is kept only while its
    Cartan entries match those of the vertices already assigned."""
    verts = datum.vertices
    partial = [()]
    for r in verts:
        partial = [imgs + (img,) for imgs in partial for img in verts
                   if img not in imgs and all(
                       datum.a(img, imgs[s - 1]) == datum.a(r, s)
                       and datum.a(imgs[s - 1], img) == datum.a(s, r)
                       for s in range(1, r))]
    return [dict(zip(verts, imgs)) for imgs in partial]


def restrict_datum(datum, subset):
    """Root datum of the subsystem spanned by a vertex subset.

    Returns (subdatum, vertex_map, scale): ``vertex_map[sub_vertex]`` is the
    ambient vertex, and the ambient form restricted to the subsystem equals
    ``scale`` times the subdatum form.  The subdatum takes the ambient
    symmetrizers of its vertices divided by their gcd, which is ``scale``,
    so components of different root lengths keep their ratio.  Kept in the
    datum's cache per subset; each call gets its own copy of the vertex map.
    """
    subset = _validate_subset(datum, subset)
    if not subset:
        raise InputError("empty subset has no root datum")
    sub, vertex_map, scale = _restrict(datum, subset)
    return sub, dict(vertex_map), scale


@kept(lambda datum, subset: ("restrict", subset))
def _restrict(datum, subset):
    # connected components of the induced diagram
    remaining = set(subset)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in remaining - comp:
                if datum.a(v, w) != 0:
                    comp.add(w)
                    frontier.append(w)
        comps.append(sorted(comp))
        remaining -= comp
    # identify each component and bring it to Bourbaki order
    spec = []
    vertex_map = []
    for comp in comps:
        typ, order = _identify_component(datum, comp)
        spec.append((typ, len(comp)))
        vertex_map.extend(order)
    d = [datum.d[v - 1] for v in vertex_map]
    scale = gcd(*d)
    sub = _assemble(spec, [x // scale for x in d])
    return sub, tuple(enumerate(vertex_map, 1)), Fraction(scale)


def _identify_component(datum, comp):
    """Cartan type and Bourbaki-ordered ambient vertices of a connected
    induced subdiagram."""
    m = len(comp)
    for typ in CLASSICAL_TYPES:
        lo, hi = _RANK_BOUNDS[typ]
        if not (lo <= m <= hi) and not (typ == "A" and m == 1):
            continue
        block = _cartan_block(typ, m)
        for perm in itertools.permutations(comp):
            if all(datum.a(perm[i], perm[j]) == block[i][j]
                   for i in range(m) for j in range(m)):
                return typ, list(perm)
    raise InputError("could not identify subsystem type")


def weyl_dimension(datum, varpi):
    """Weyl dimension formula, exact."""
    if not varpi.is_dominant() or not varpi.is_integral():
        raise InputError("highest weight must be dominant integral")
    rho = datum.rho()
    num = Fraction(1)
    den = Fraction(1)
    for beta in positive_roots(datum, datum.vertices):
        num *= (varpi + rho).pairing(beta)
        den *= rho.pairing(beta)
    dim = num / den
    if dim.denominator != 1:
        raise ConsistencyError(f"Weyl dimension {dim} is not an integer")
    return int(dim)
