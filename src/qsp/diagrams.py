"""Satake diagram data.

A Satake diagram is an admissible pair (X, tau): a tau-stable proper subset
X of vertices together with an involutive diagram automorphism tau acting on
X as -w_X, with integrality of (alpha_r, rho_X^vee) at tau-fixed vertices.
The unimodular phases z_r completing the involution are stored exactly as
powers of i.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import InputError
from .rootsys import (
    RootDatum,
    _validate_subset,
    build_root_datum,
    diagram_automorphisms,
    longest_element,
    rho_check,
    root_datum_from_json,
    weyl_act,
)

_I_POWERS = {0: 1, 1: 1j, 2: -1, 3: -1j}


def _as_perm(datum, mapping):
    """Normalize an automorphism given as dict / list of 2-cycles."""
    if mapping is None:
        return {r: r for r in datum.vertices}
    if isinstance(mapping, dict):
        perm = {r: mapping.get(r, r) for r in datum.vertices}
    else:  # list of orbits like [[1,3]] or pairs
        perm = {r: r for r in datum.vertices}
        for cyc in mapping:
            if len(cyc) == 1:
                continue
            if len(cyc) != 2:
                raise InputError("tau must be an involution: cycles of length <= 2")
            a, b = cyc
            perm[a], perm[b] = b, a
    return perm


def _check_diagram_automorphism(datum, perm):
    for r in datum.vertices:
        if perm.get(r) not in datum.vertices:
            raise InputError("automorphism image out of range")
        if perm[perm[r]] != r:
            raise InputError("automorphism not involutive")
    for r in datum.vertices:
        for s in datum.vertices:
            if datum.a(perm[r], perm[s]) != datum.a(r, s):
                raise InputError("map is not a diagram automorphism")
    return perm


@dataclass(frozen=True)
class SatakeDiagram:
    """Admissible pair (X, tau) with canonical phases z (exponents of i)."""

    datum: RootDatum
    X: tuple
    tau: tuple  # images of vertices 1..rank
    z_exp: tuple = field(default=None)  # z_r = i^{z_exp[r-1]}

    def tau_of(self, r):
        return self.tau[r - 1]

    def tau_weight(self, mu):
        """tau acting on the weight lattice by permuting fundamental coords."""
        coords = [None] * self.datum.rank
        for r in self.datum.vertices:
            coords[self.tau_of(r) - 1] = mu.coords[r - 1]
        return self.datum.weight(coords)

    def z(self, r):
        return _I_POWERS[self.z_exp[r - 1] % 4]

    @property
    def white(self):
        return tuple(r for r in self.datum.vertices if r not in self.X)

    def wx_word(self):
        return longest_element(self.datum, self.X)

    def theta(self, mu):
        """Theta = -w_X o tau on the weight lattice."""
        return -weyl_act(self.datum, self.wx_word(), self.tau_weight(mu))

    def to_json(self):
        obj = {
            "type": "x".join(f"{t}{r}" for t, r in self.datum.components),
            "rank": self.datum.rank,
            "X": sorted(self.X),
            "tau": sorted([r, self.tau_of(r)] for r in self.datum.vertices
                          if r < self.tau_of(r)),
        }
        if self.z_exp is not None:
            obj["z"] = list(self.z_exp)
        return obj


@dataclass(frozen=True)
class HermitianClass:
    kind: str  # "NonHermitian" | "SType" | "CType"
    distinguished: int | None = None
    orbit: tuple | None = None


def check_admissible(datum, X, tau):
    """Check conditions for (X, tau) to be an admissible pair.

    Returns (ok, violations).  Raises InputError if tau is not an involutive
    diagram automorphism at all, or if X names a vertex outside the datum.
    """
    perm = _check_diagram_automorphism(datum, _as_perm(datum, tau))
    X = _validate_subset(datum, X)
    violations = []
    if set(X) == set(datum.vertices):
        violations.append("X = I is excluded")
    if any(perm[r] not in X for r in X):
        violations.append("X not tau-stable")
        return False, violations

    word = longest_element(datum, X)
    rho_x = rho_check(datum, X)
    for r in X:
        img = -weyl_act(datum, word, datum.simple_root(r))
        if img.coords != datum.simple_root(perm[r]).coords:
            violations.append(f"tau != -w_X on X at vertex {r}")
            break
    for r in datum.vertices:
        if perm[r] == r:
            v = datum.simple_root(r).pairing(rho_x)
            if v.denominator != 1:
                violations.append(
                    f"(alpha_{r}, rho_X^vee) = {v} not integral at tau-fixed vertex")
    return (not violations), violations


def choose_z(datum, X, tau):
    """Canonical unimodular phases: z_r = 1 at tau-fixed vertices and on X;
    on each 2-orbit the smaller-index representative r gets
    z_r = i^{-2(alpha_r, rho_X^vee)} and z_{tau(r)} its conjugate.
    InputError if tau is not an involutive diagram automorphism."""
    perm = _check_diagram_automorphism(datum, _as_perm(datum, tau))
    rho_x = rho_check(datum, X)
    exps = [0] * datum.rank
    for r in datum.vertices:
        if perm[r] <= r or r in X:
            continue
        m = -2 * datum.simple_root(r).pairing(rho_x)
        if m.denominator != 1:
            raise InputError("2(alpha_r, rho_X^vee) not integral on a 2-orbit")
        exps[r - 1] = int(m) % 4
        exps[perm[r] - 1] = (-int(m)) % 4
    return tuple(exps)


def satake(datum, X, tau=None, z_exp=None):
    """Construct a SatakeDiagram, validating admissibility."""
    perm = _as_perm(datum, tau)
    ok, violations = check_admissible(datum, X, perm)
    if not ok:
        raise InputError("not an admissible pair: " + "; ".join(violations))
    X = tuple(sorted(set(X)))
    tau_tuple = tuple(perm[r] for r in datum.vertices)
    if z_exp is None:
        z_exp = choose_z(datum, X, perm)
    diag = SatakeDiagram(datum, X, tau_tuple, tuple(z_exp))
    _check_z(diag)
    return diag


def _check_z(diag):
    datum = diag.datum
    rho_x = rho_check(datum, diag.X)
    for r in datum.vertices:
        if r in diag.X and diag.z_exp[r - 1] % 4 != 0:
            raise InputError("z_r != 1 on X")
        two = 2 * datum.simple_root(r).pairing(rho_x)
        if two.denominator != 1:
            raise InputError("(alpha_r, rho_X^vee) not half-integral")
        lhs = (diag.z_exp[r - 1] - diag.z_exp[diag.tau_of(r) - 1]) % 4
        rhs = (2 * int(two)) % 4
        if lhs != rhs:
            raise InputError(f"z fails the involutivity constraint at vertex {r}")


def enumerate_admissible(datum):
    """All admissible pairs (X, tau) with canonical z attached."""
    if datum.rank > 8:
        raise InputError("rank cap is 8")
    out = []
    for perm in diagram_automorphisms(datum):
        if any(perm[perm[r]] != r for r in datum.vertices):
            continue
        for size in range(datum.rank):  # X = I excluded
            for X in itertools.combinations(datum.vertices, size):
                if any(perm[r] not in X for r in X):
                    continue
                ok, _ = check_admissible(datum, X, perm)
                if ok:
                    out.append(satake(datum, X, perm))
    return out


def classify_sets(diag):
    """(I_C, I_ns, I_S, J) of a Satake diagram.

    I_C: 2-orbits with (alpha_r, Theta alpha_r) = 0, equivalently a white
    vertex on the path between r and tau(r).  I_ns: tau-fixed white vertices
    orthogonal to X.  I_S: r in I_ns with a_sr even for all s in I_ns --
    note the column convention a_sr; the transposed variant a_rs circulates
    in the literature but gives the wrong classification in type C.
    J: white vertices orthogonal to X.
    """
    datum = diag.datum
    white = diag.white
    i_c = tuple(r for r in white
                if diag.tau_of(r) != r
                and datum.simple_root(r).pairing(diag.theta(datum.simple_root(r))) == 0)
    i_ns = tuple(r for r in white
                 if diag.tau_of(r) == r
                 and all(datum.simple_root(r).pairing(datum.simple_root(s)) == 0
                         for s in diag.X))
    i_s = tuple(r for r in i_ns
                if all(datum.a(s, r) % 2 == 0 for s in i_ns))
    j = tuple(r for r in white
              if all(datum.simple_root(r).pairing(datum.simple_root(s)) == 0
                     for s in diag.X))
    return i_c, i_ns, i_s, j


def hermitian_type(diag):
    """Classify an irreducible symmetric pair as NonHermitian / SType / CType
    with the distinguished vertex (or orbit representative)."""
    if len(diag.datum.components) != 1:
        raise InputError("hermitian_type requires an irreducible (connected) datum")
    i_c, _, i_s, _ = classify_sets(diag)
    c_orbits = sorted({tuple(sorted((r, diag.tau_of(r)))) for r in diag.white
                       if diag.tau_of(r) != r and r not in i_c})
    if i_s and c_orbits:
        raise InputError("diagram is both S- and C-type; classification broken")
    if i_s:
        if len(i_s) != 1:
            raise InputError("S-type with more than one distinguished vertex")
        return HermitianClass("SType", distinguished=i_s[0])
    if c_orbits:
        if len(c_orbits) != 1:
            raise InputError("C-type with more than one distinguished orbit")
        orbit = c_orbits[0]
        # the conventional noncompact representative: the larger fork index
        # in type D, the smaller chain index otherwise
        typ = diag.datum.components[0][0]
        dist = max(orbit) if typ == "D" else min(orbit)
        return HermitianClass("CType", distinguished=dist, orbit=orbit)
    return HermitianClass("NonHermitian")


def diagram_from_json(obj):
    """Parse {"type": "A", "rank": 3, "X": [2], "tau": [[1,3]], "z": ...}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if "components" in obj:
        datum = root_datum_from_json(obj)
    else:
        typ = obj["type"]
        if any(ch.isdigit() for ch in typ):
            datum = build_root_datum(typ)
        else:
            datum = build_root_datum([(typ, int(obj["rank"]))])
    z = obj.get("z")
    return satake(datum, tuple(obj.get("X", ())), obj.get("tau"), z)
