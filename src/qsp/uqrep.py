"""Finite-dimensional admissible *-representations of the q-deformed
enveloping algebra.

Modules are built from the highest weight by spanning F-monomials level by
level; the invariant Hermitian form is accumulated through the adjoint law
E_r* = F_r K_r, the radical is quotiented by a relative threshold, and the
surviving vectors are orthonormalized by deterministic Gram-Schmidt in
(level, lexicographic) order.  Each weight space forms every F_s E_r e_k
once, and both its Gram matrix and its new E columns read it.  E and F are
sized by the Weyl dimension; a build that keeps more vectors than that,
or whose E and F miss [E_r, F_r] = (K_r - K_r^-1)/(q_r - q_r^-1) by more
than EF_TOL relative, stops with NumericalDegeneracyError.

``build_irrep`` is memoised on (datum, highest weight, QParams) for the
life of the process; ``tensor``, ``twist_module`` and ``decompose`` keep
their results in the ``cache`` of their first argument, keyed by the
partner module or the permutation; the identity permutation returns the
module itself.  Cached arrays are read-only.

The coproduct is written once, in ``coproduct_terms``, as (first leg,
second leg) matrix pairs; ``tensor`` sums their Kronecker products, and
the R-matrix checks apply them leg by leg.

Every SVD kernel the package takes goes through ``kernel`` (and
``intertwiners``, the kernel of a commutation system), except the one of
``rmatrix.rmat_oracle``, which stays an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, NumericalDegeneracyError, ResourceError
from .rootsys import alpha_coefficients, qbinom, weyl_dimension

# the largest module dimension build_irrep constructs
DIM_CAP = 400
# Relative cut on spanning-vector norms when quotienting the radical of the
# invariant form.  Radical vectors computed in double precision have norm
# ~sqrt(machine eps) ~ 1.5e-8 relative, so the cut must sit well above that
# while staying far below any honest vector norm at desk scale.
RANK_THRESHOLD = 1e-6
# the relative residual of the [E_r, F_r] relation a built irrep must meet
EF_TOL = 1e-9


@dataclass(frozen=True)
class QParams:
    """Deformation parameter 0 < q < 1 with hbar = -i ln(q)/pi."""

    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise InputError("q must lie in (0, 1)")

    @property
    def hbar(self):
        return -1j * math.log(self.q) / math.pi

    def qpow(self, exponent):
        """q^exponent for a Fraction/float exponent."""
        if isinstance(exponent, Fraction):
            exponent = float(exponent)
        return self.q ** exponent

    def q_r(self, datum, r):
        return self.q ** datum.d[r - 1]


@dataclass(eq=False)
class WeightModule:
    """Orthonormal weight basis plus generator matrices.

    ``weights[i]`` is the weight of basis vector i; E[r], F[r] are dense
    complex matrices; K_omega is the diagonal q^{(omega, wt_i)}.  A module
    is not mutated after construction: ``cache`` keeps data derived from it
    (K diagonals, root vectors, and the R-matrices, tensor products, twists
    and decompositions it is the first argument of).  Modules compare and
    hash by identity, so a partner module is its own cache key.
    """

    datum: object
    qp: QParams
    weights: list
    E: dict
    F: dict
    highest: object = None  # highest weight, when built as an irrep
    label: str = ""
    gram_diagnostics: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return len(self.weights)

    def k_matrix(self, omega):
        return np.diag(self.k_diag(omega).astype(complex))

    def numerators(self):
        """The weights' coordinates as integer rows over one denominator."""
        den = math.lcm(*[c.denominator for w in self.weights for c in w.coords])
        return [[c.numerator * (den // c.denominator) for c in w.coords]
                for w in self.weights], den

    def pairings(self, rows, den):
        """[(x, wt_j) for every weight j] as doubles for each x in ``rows``
        (integer coordinates over ``den``).  One exact integer product with
        the Gram and weight numerators, each entry divided once: an
        int / int division is correctly rounded at any size, so every entry
        is the double ``float(Fraction)`` gives of the exact pairing."""
        num, num_den = self.numerators()
        den *= num_den * self.datum.gram_den
        g_num = [[sum(g * y for g, y in zip(row, col))
                  for row in self.datum.gram_num] for col in num]
        return [[sum(x * y for x, y in zip(r, col)) / den for col in g_num]
                for r in rows]

    def k_diag(self, omega):
        """Read-only float diagonal of K_omega from the exact pairings,
        once per omega."""
        key = ("K", omega.coords)
        if key not in self.cache:
            a, da = omega.scaled()
            self.cache[key] = read_only(np.array(
                [self.qp.q ** p for p in self.pairings([a], da)[0]]))
        return self.cache[key]

    def weight_spaces(self):
        spaces = {}
        for i, w in enumerate(self.weights):
            spaces.setdefault(w.coords, []).append(i)
        return spaces


def kernel(mat, rel):
    """Orthonormal kernel of ``mat`` and its singular values, as (basis, s).

    A singular value counts as zero when it is <= rel * max(s_max, 1); the
    columns beyond the row count of a wide matrix are always in the kernel.
    Tall and square matrices take the thin SVD, so the left singular vectors
    that would be thrown away are never formed."""
    rows, cols = mat.shape
    _, s, vh = np.linalg.svd(mat, full_matrices=rows < cols)
    cut = rel * max(s[0] if len(s) else 0.0, 1.0)
    keep = [i for i in range(cols) if i >= len(s) or s[i] <= cut]
    return vh.conj().T[:, keep], s


def intertwiners(pairs, rel):
    """Basis of {X : X A = B X for every (A, B) in pairs}, square X, as a
    list of matrices orthonormal in the Frobenius inner product."""
    dim = pairs[0][0].shape[0]
    eye = np.eye(dim)
    system = np.vstack([np.kron(eye, a.T) - np.kron(b, eye) for a, b in pairs])
    basis, _ = kernel(system, rel)
    return [basis[:, i].reshape(dim, dim) for i in range(basis.shape[1])]


def read_only(arr):
    """Mark an array that is cached and shared as read-only; returns it."""
    arr.flags.writeable = False
    return arr


_IRREPS = {}


def build_irrep(datum, varpi, qp):
    """Irreducible *-representation with highest weight varpi.

    Levels are processed in increasing height of varpi - wt; each weight
    space is spanned by F_r on the previous level, the Gram matrix computed
    through previously known E/F matrices, and the radical dropped at
    RANK_THRESHOLD relative to the largest vector norm; a build that passes
    the Weyl dimension stops there, and one that misses [E_r, F_r] by more
    than EF_TOL raises after it.  The same (datum, varpi, qp) returns the
    same module.
    """
    key = (datum, varpi, qp)
    if key in _IRREPS:
        return _IRREPS[key]
    if not (varpi.is_dominant() and varpi.is_integral()):
        raise InputError("highest weight must be dominant integral")
    target_dim = weyl_dimension(datum, varpi)
    if target_dim > DIM_CAP:
        raise ResourceError(
            f"module dimension {target_dim} exceeds cap {DIM_CAP}")

    verts = datum.vertices
    weights = [varpi]
    E = {r: np.zeros((target_dim, target_dim), dtype=complex) for r in verts}
    F = {r: np.zeros((target_dim, target_dim), dtype=complex) for r in verts}
    min_kept, max_drop = math.inf, 0.0
    global_scale = 1.0

    # the previous level: dict weight-coords -> list of basis indices
    prev = {varpi.coords: [0]}
    while prev:
        # spanning lists (r, j) of the weights at the next level
        cand = {}
        for wc, idxs in prev.items():
            w = datum.weight(wc)
            for r in verts:
                nw = w - datum.simple_root(r)
                cand.setdefault(nw.coords, []).extend((r, j) for j in idxs)
        prev = {}
        for wc in sorted(cand, key=lambda c: tuple(map(float, c))):
            span = sorted(cand[wc])
            m = len(span)
            base = len(weights)
            # y[r, b] = F_s E_r e_k for (s, k) = span[b], formed once (None
            # when E_r e_k = 0); qint[b] = (k_s - k_s^-1, q_s - q_s^-1) on e_k
            y = {}
            for r in verts:
                for b, (s, k) in enumerate(span):
                    erk = E[r][:base, k]
                    y[r, b] = F[s][:base, :base] @ erk if np.any(erk) else None
            qint = []
            for s, k in span:
                ks = qp.qpow(datum.d[s - 1] * weights[k].coords[s - 1])
                qs = qp.q_r(datum, s)
                qint.append((ks - 1.0 / ks, qs - 1.0 / qs))
            # <F_r e_j, F_s e_k> = <e_j, K_r^{-1} E_r F_s e_k>
            #   = <e_j, K_r^{-1} F_s E_r e_k> + delta_rs <e_j, K_r^{-1} [K_r]_q e_k>
            # with (alpha_r, wt_j) = d_r wt_j(r) read off the coordinate
            gram = np.zeros((m, m), dtype=complex)
            for a, (r, j) in enumerate(span):
                kinv = qp.qpow(-datum.d[r - 1] * weights[j].coords[r - 1])
                for b in range(m):
                    if y[r, b] is not None:
                        gram[a, b] += kinv * y[r, b][j]
                num, den = qint[a]
                gram[a, a] += kinv * num / den
            # deterministic Gram-Schmidt over the spanning list; the drop
            # threshold is relative to the largest vector norm seen so far
            # in the whole construction, so pure-radical weight spaces
            # cannot self-normalize into fake basis vectors
            global_scale = max(global_scale,
                               math.sqrt(max(np.max(np.abs(np.diag(gram)).real), 0.0)))
            coeffs = []  # accepted columns: coefficient vectors over span
            for a in range(m):
                v = np.zeros(m, dtype=complex)
                v[a] = 1.0
                for c in coeffs:
                    v -= (c.conj() @ gram @ v) * c
                n2 = (v.conj() @ gram @ v).real
                norm = math.sqrt(max(n2, 0.0))
                if norm > RANK_THRESHOLD * global_scale:
                    coeffs.append(v / norm)
                    min_kept = min(min_kept, norm / global_scale)
                else:
                    max_drop = max(max_drop, norm / global_scale)
            if not coeffs:
                continue
            new = len(coeffs)
            weights.extend(datum.weight(wc) for _ in coeffs)
            if len(weights) > target_dim:
                raise NumericalDegeneracyError(
                    f"built dimension {len(weights)} passes Weyl dimension "
                    f"{target_dim}",
                    {"min_kept": min_kept, "max_dropped": max_drop})
            prev[wc] = list(range(base, base + new))
            cmat = np.array(coeffs).T  # span x new
            # F entries: F_s e_k = v_(s,k); <e_new_i, v_(s,k)> = (C^* G)_{i, (s,k)}
            proj = cmat.conj().T @ gram  # new x span
            for b, (s, k) in enumerate(span):
                F[s][base:base + new, k] += proj[:, b]
            # E entries: E_r e_new_i = sum_span C[(s,k),i] E_r F_s e_k
            for r in verts:
                cols = np.zeros((new, base), dtype=complex)
                for b, (s, k) in enumerate(span):
                    ef = np.zeros(base, dtype=complex)
                    if y[r, b] is not None:
                        ef += y[r, b]
                    if r == s:
                        num, den = qint[b]
                        ef[k] += num / den
                    for gi in range(new):
                        if cmat[b, gi] != 0:
                            cols[gi] += cmat[b, gi] * ef
                E[r][:base, base:base + new] += cols.T

    dim = len(weights)
    if dim != target_dim:
        raise NumericalDegeneracyError(
            f"built dimension {dim} != Weyl dimension {target_dim}",
            {"min_kept": min_kept, "max_dropped": max_drop})
    for mat in [*E.values(), *F.values()]:
        read_only(mat)
    mod = WeightModule(
        datum, qp, weights, E, F, highest=varpi, label=f"V[{varpi}]",
        gram_diagnostics={"min_kept": min_kept, "max_dropped": max_drop})
    ef = max(_ef_residual(mod, r) for r in verts)
    if not ef <= EF_TOL:
        raise NumericalDegeneracyError(
            f"built module misses [E_r, F_r] by {ef:.2g} relative",
            {**mod.gram_diagnostics, "ef_residual": ef})
    _IRREPS[key] = mod
    return mod


def coproduct_terms(m1, m2, r):
    """Delta(E_r), Delta(F_r) and Delta(K_r) on m1 ox m2, each a list of
    (matrix on m1, matrix on m2) pairs:

        Delta(E) = E ox 1 + K ox E,  Delta(F) = F ox K^{-1} + 1 ox F,
        Delta(K) = K ox K.

    This is the one place the package writes the coproduct."""
    alpha = m1.datum.simple_root(r)
    k1, k2 = np.diag(m1.k_diag(alpha)), np.diag(m2.k_diag(alpha))
    k2inv = np.diag(m2.k_diag(-1 * alpha))
    i1, i2 = np.eye(m1.dim), np.eye(m2.dim)
    return ([(m1.E[r], i2), (k1, m2.E[r])],
            [(m1.F[r], k2inv), (i1, m2.F[r])],
            [(k1, k2)])


def kron_sum(pairs):
    """The sum of a ox b over (a, b) pairs, as one matrix."""
    (a, b), *rest = pairs
    return sum((np.kron(a, b) for a, b in rest), np.kron(a, b))


def tensor(m1, m2):
    """Tensor product via the coproduct, product basis i-major."""
    key = ("tensor", m2)
    if key in m1.cache:
        return m1.cache[key]
    if m1.datum != m2.datum:
        raise InputError("tensor of modules over different data")
    datum, qp = m1.datum, m1.qp
    weights = [w1 + w2 for w1 in m1.weights for w2 in m2.weights]
    E, F = {}, {}
    for r in datum.vertices:
        delta_e, delta_f, _ = coproduct_terms(m1, m2, r)
        E[r] = read_only(kron_sum(delta_e))
        F[r] = read_only(kron_sum(delta_f))
    out = m1.cache[key] = WeightModule(
        datum, qp, weights, E, F, label=f"({m1.label})ox({m2.label})")
    return out


def twist_module(module, perm):
    """Precompose the representation with a diagram automorphism:
    pi^tw(E_r) = pi(E_{perm(r)}), weights permuted accordingly; the
    identity permutation returns the module itself, with all it caches."""
    if all(perm[r] == r for r in module.datum.vertices):
        return module
    key = ("twist", tuple(sorted(perm.items())))
    if key in module.cache:
        return module.cache[key]
    dat = module.datum

    def tw(w):
        coords = [None] * dat.rank
        for r in dat.vertices:
            coords[perm[r] - 1] = w.coords[r - 1]
        return dat.weight(coords)

    out = module.cache[key] = WeightModule(
        dat, module.qp, [tw(w) for w in module.weights],
        {r: module.E[perm[r]] for r in dat.vertices},
        {r: module.F[perm[r]] for r in dat.vertices},
        highest=None, label=module.label + "^tw")
    return out


def casimir_scalar(datum, varpi):
    """(varpi, varpi + 2 rho), exact rational."""
    if not varpi.is_dominant():
        raise InputError("casimir_scalar expects a dominant weight")
    return varpi.pairing(varpi + 2 * datum.rho())


def ribbon_diag(module):
    """Diagonal action of the ribbon element v = q^{(mu, mu+2rho)} per
    isotypic block, as a dense matrix."""
    qp = module.qp
    out = np.zeros((module.dim, module.dim), dtype=complex)
    for varpi, _, embeddings in decompose(module):
        scal = qp.qpow(casimir_scalar(module.datum, varpi))
        for emb in embeddings:
            out += scal * (emb @ emb.conj().T)
    return out


def decompose(module):
    """Orthogonal isotypic decomposition: a tuple of (varpi, multiplicity,
    embeddings), one read-only isometric embedding V_varpi -> module of
    shape dim(module) x dim(V_varpi) per copy.  Highest-weight vectors are
    the kernel of the E_r at relative cut 1e-8; a singular value between
    that cut and its square root raises NumericalDegeneracyError."""
    key = ("decompose",)
    if key in module.cache:
        return module.cache[key]
    datum, qp = module.datum, module.qp
    tol = 1e-8
    spaces = module.weight_spaces()
    out = []
    total = 0
    for wc in sorted(spaces, key=lambda c: _height_key(module, c)):
        w = datum.weight(wc)
        if not (w.is_dominant() and w.is_integral()):
            continue
        idxs = spaces[wc]
        # kernel of all E_r restricted to this weight space
        stacked = np.vstack([module.E[r][:, idxs] for r in datum.vertices])
        kern, s = kernel(stacked, tol)
        scale = max(s[0], 1.0)
        if any(tol * scale < x < math.sqrt(tol) * scale for x in s):
            raise NumericalDegeneracyError(
                "singular values straddle the rank threshold",
                {"weight": wc, "singular_values": s.tolist()})
        mult = kern.shape[1]
        if mult == 0:
            continue
        embeddings = []
        for c in range(mult):
            hw = np.zeros(module.dim, dtype=complex)
            hw[idxs] = kern[:, c]
            # orthogonalize against previous copies at the same weight
            for prev in embeddings:
                hw -= prev[:, 0] * (prev[:, 0].conj() @ hw)
            nrm = np.linalg.norm(hw)
            if nrm < math.sqrt(tol):
                continue
            hw /= nrm
            embeddings.append(_grow_embedding(module, w, hw, qp))
        if embeddings:
            sub_dim = embeddings[0].shape[1]
            total += sub_dim * len(embeddings)
            out.append((w, len(embeddings),
                        tuple(read_only(emb) for emb in embeddings)))
    if total != module.dim:
        raise NumericalDegeneracyError(
            f"decomposition dimensions {total} != {module.dim}", {})
    out = module.cache[key] = tuple(out)
    return out


def _height_key(module, coords):
    # dominant weights processed from the highest
    return tuple(-float(c) for c in coords)


def _grow_embedding(module, varpi, hw_vec, qp):
    """Isometric embedding V_varpi -> module sending the model highest
    weight vector to hw_vec, built level by level: each level of the model
    is spanned by F-images of the previous one, so a pseudo-inverse of the
    span map transports the embedding."""
    model = build_irrep(module.datum, varpi, qp)
    datum = module.datum
    emb = np.zeros((module.dim, model.dim), dtype=complex)
    emb[:, 0] = hw_vec
    levels = {}
    for i, w in enumerate(model.weights):
        ht = sum(alpha_coefficients(varpi - w, datum.vertices).values())
        levels.setdefault(ht, []).append(i)
    heights = sorted(levels)
    for ha, hb in zip(heights, heights[1:]):
        prev, nxt = levels[ha], levels[hb]
        pairs = [(r, j) for r in datum.vertices for j in prev]
        span = np.array([[model.F[r][i, j] for (r, j) in pairs] for i in nxt])
        w = np.linalg.pinv(span)  # pairs x nxt; e_i = sum_pairs w[p,i] F_r e_j
        images = np.column_stack([module.F[r] @ emb[:, j] for (r, j) in pairs])
        emb[:, nxt] = images @ w
    return emb


def relations_residual(module):
    """Relative residuals of the defining relations on the module."""
    datum, qp = module.datum, module.qp
    out = {}
    for r in datum.vertices:
        er = module.E[r]
        out[f"EF[{r}]"] = _ef_residual(module, r)
        for s in datum.vertices:
            ks = module.k_matrix(datum.simple_root(s))
            lhs = ks @ er
            rhs = qp.qpow(datum.simple_root(s).pairing(datum.simple_root(r))) * (er @ ks)
            out[f"KE[{s},{r}]"] = _rel(lhs - rhs, rhs)
            if r != s:
                out[f"SerreE[{r},{s}]"] = _serre(module, r, s, module.E)
                out[f"SerreF[{r},{s}]"] = _serre(module, r, s, module.F)
                lhs = er @ module.F[s] - module.F[s] @ er
                out[f"EF[{r},{s}]"] = np.linalg.norm(lhs) / max(
                    np.linalg.norm(er) * np.linalg.norm(module.F[s]), 1e-30)
    return out


def _ef_residual(module, r):
    """Relative residual of [E_r, F_r] = (K_r - K_r^{-1})/(q_r - q_r^{-1}),
    the right side formed from the diagonal of K_r."""
    k = module.k_diag(module.datum.simple_root(r))
    qr = module.qp.q_r(module.datum, r)
    rhs = (k - 1.0 / k) / (qr - 1.0 / qr)
    diff = module.E[r] @ module.F[r] - module.F[r] @ module.E[r]
    return _rel(diff - np.diag(rhs), rhs)


def _rel(diff, rhs):
    return np.linalg.norm(diff) / max(np.linalg.norm(rhs), 1e-30)


def _serre(module, r, s, mats):
    datum, qp = module.datum, module.qp
    n_max = 1 - datum.a(r, s)
    qr = qp.q_r(datum, r)
    acc = np.zeros_like(mats[r])
    for n in range(n_max + 1):
        coeff = (-1) ** n * qbinom(n_max, n, qr)
        acc = acc + coeff * np.linalg.matrix_power(mats[r], n_max - n) \
            @ mats[s] @ np.linalg.matrix_power(mats[r], n)
    scale = max(np.linalg.norm(mats[r]) ** n_max * np.linalg.norm(mats[s]), 1e-30)
    return np.linalg.norm(acc) / scale


def module_to_json(module):
    return {
        "datum": module.datum.to_json(),
        "weights": [w.to_json() for w in module.weights],
        "q": module.qp.q,
        "E": {str(r): mat_json(module.E[r]) for r in module.datum.vertices},
        "F": {str(r): mat_json(module.F[r]) for r in module.datum.vertices},
    }


def mat_json(m):
    """A complex matrix as JSON: rows of [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]
