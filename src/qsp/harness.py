"""Axiom residual suites for the three braid constructions and the
rank-one equivalence probe.

Octagon / ribbon checks are run per source on its native objects:

  * coideal: solved K-matrices; the coproduct laws are verified against
    independently solved braids on fused modules, matched up to the
    odd-component sign freedom of the braid family;
  * kz: the monodromy identities (the twisted octagon and its
    rearrangements);
  * vogan: the truncated twist braid, every factor placed once on one
    product index, boundary levels masked; a side past double precision
    is a ResourceError.

The rank-one probe compares the spectral data of the three braids and
reports which of the two lowest-weight matching rules holds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .blocks import leg_blocks, product_blocks
from .coideal import (
    CoidealModule,
    CoidealParams,
    Character,
    counit_module,
    kmatrix_solve,
    ribbon_compose,
)
from .diagrams import satake
from .errors import InputError
from .kzmono import kz_braid, split_tensors, verify_eg, verify_octagon_kz
from .kzmono import flatness_residuals as kz_flatness
from .kzmono import kz_coeffs
from .rmatrix import r21, rmat
from .rootsys import build_root_datum
from .uqrep import QParams, build_irrep, decompose, kron, relative, tensor
from .vogan10 import (
    braid_blocks,
    build_Mr,
    coaction_tensor,
    e_matrix,
    e_matrix_component_scalars,
    fusion_check,
    interior_indices,
    nu_module,
    plain_block_eigenvalues,
)

TOL_ALG = 1e-9
TOL_ODE = 1e-7
# the Vogan component scalars leave out the top three ladder levels, and the
# rank-one probe needs the bottom block and one two-dimensional block below
RANK_ONE_MIN_LEVELS = 5
# the Vogan axiom checks mask the top four levels: at least one must remain
AXIOM_MIN_LEVELS = 5
# relative distance within which an octagon character is snapped to its
# closed form (a sweep over q in [0.2, 0.95] and twice-spins 1-8 stays
# below 1e-13)
SNAP_REL = 1e-12


@dataclass
class Report:
    case: str
    parameters: dict
    residuals: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    runtime: float = 0.0

    @property
    def passed(self):
        return all(res <= self.tolerances[key]
                   for key, res in self.residuals.items())

    def to_json(self):
        return {
            "case": self.case,
            "parameters": self.parameters,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "tolerances": {k: float(v) for k, v in sorted(self.tolerances.items())},
            "info": self.info,
            "pass": bool(self.passed),
            "runtime": round(self.runtime, 3),
        }


def lambda_from_trace(c_mat, q):
    """Invert Tr(C^* C) = q^{-1} (q^{2 lam} + q^{-2 lam}); returns (lam, -lam)."""
    tval = q * np.trace(c_mat.conj().T @ c_mat).real
    if tval < 2 - 1e-12:
        raise InputError("trace below the minimum 2/q: no real parameter")
    x = (tval + math.sqrt(max(tval * tval - 4, 0.0))) / 2  # q^{2 lam}
    lam = math.log(x) / (2 * math.log(q))
    return lam, -lam


def t_of_lambda(lam, q):
    """t = q^{-1/2}(q^{-lam} - q^{lam})/(q^{-1} - q)."""
    return q ** -0.5 * (q ** -lam - q ** lam) / (1 / q - q)


def lambda_of_t(t, q):
    """The inverse of ``t_of_lambda``: q^{-lam} - q^{lam} = 2 sinh(-lam ln q)."""
    return -math.asinh(t * q ** 0.5 * (1 / q - q) / 2) / math.log(q)


def _sorted_eigs(mat):
    return sorted(np.linalg.eigvals(mat), key=lambda z: (round(z.real, 9),
                                                         round(z.imag, 9)))


def chi_n_value(n, lam, q):
    """chi_n(B_t) = i q^{-1/2} (q^{-lam-n} - q^{lam+n}) / (q^{-1} - q)."""
    return 1j * q ** -0.5 * (q ** (-lam - n) - q ** (lam + n)) / (1 / q - q)


# ---------------------------------------------------------------------------
# rank-one coideal braid family
# ---------------------------------------------------------------------------

class CoidealRankOneFamily:
    """Braids eta_{X0, U} of the su2 coideal at a parameter t, anchored at
    the fundamental module and extended canonically by fusion."""

    def __init__(self, q, t):
        self.qp = QParams(q)
        self.q = q
        self.t = t
        self.datum = build_root_datum([("A", 1)])
        self.diag = satake(self.datum, ())
        self.params = CoidealParams({1: q ** -2}, {1: 1j * t})
        self.x0 = counit_module(self.diag, self.params, self.qp)
        self.v = build_irrep(self.datum, self.datum.weight([1]), self.qp)

    def module(self, twice_spin):
        return build_irrep(self.datum, self.datum.weight([twice_spin]), self.qp)

    def braid(self, module):
        return kmatrix_solve(self.diag, self.params, self.qp, self.x0,
                             module, fuse_from=self.v)

    def braid_on_tensor(self, m1, m2):
        """eta_{X0, m1 ox m2} by lifting the component braids through the
        isotypic embeddings (naturality)."""
        dim = m1.dim * m2.dim
        out = np.zeros((dim, dim), dtype=complex)
        for emb, eta in self.braid_components(m1, m2):
            out += emb @ eta @ emb.conj().T
        return out

    def braid_components(self, m1, m2):
        """Signed component comparison: returns per-component matrices of
        the independently solved braids, with embeddings."""
        uv = tensor(m1, m2)
        comps = []
        for wt, _, embs in decompose(uv):
            model = build_irrep(self.datum, wt, self.qp)
            eta = self.braid(model)
            for emb in embs:
                comps.append((emb, eta))
        return comps


def _component_match_residual(candidate, comps):
    """Match a composite against component braids up to per-component sign;
    includes the off-block leakage."""
    worst = 0.0
    reconstructed = np.zeros_like(candidate)
    for emb, eta in comps:
        block = emb.conj().T @ candidate @ emb
        diff = min(np.linalg.norm(block - eta), np.linalg.norm(block + eta))
        worst = max(worst, diff / max(np.linalg.norm(eta), 1e-30))
        reconstructed += emb @ block @ emb.conj().T
    leak = np.linalg.norm(candidate - reconstructed)
    worst = max(worst, leak / max(np.linalg.norm(candidate), 1e-30))
    return worst


def octagon_characters(fam, m1):
    """Character components of X0 (.) m1: (unit eigenvector of B, character
    value) pairs from ``np.linalg.eig``, with each eigenvalue snapped to the
    nearest closed form chi_n(lam), n a weight of m1 and lam =
    ``lambda_of_t(fam.t, q)``, when it lies within SNAP_REL max(|chi_n|, 1)
    of it.  chi_0 is the family's own counit value i t, so that component
    solves the same K-matrix as ``fam.braid``.  Snapped values are bitwise
    equal across calls, so their K-matrices are memo hits.  Returns (pairs,
    largest relative distance to the nearest closed form, number of
    eigenvalues left unsnapped)."""
    b_mat = fam.x0.generator_matrices(m1)[("B", 1)]
    evals, evecs = np.linalg.eig(b_mat)
    lam = lambda_of_t(fam.t, fam.q)
    closed = [fam.params.s[1] if n == 0 else chi_n_value(n, lam, fam.q)
              for n in sorted({float(w.coords[0]) for w in m1.weights})]
    pairs, worst, unsnapped = [], 0.0, 0
    for c, value in enumerate(evals):
        near = min(closed, key=lambda chi: abs(value - chi))
        dist = abs(value - near) / max(abs(near), 1.0)
        worst = max(worst, dist)
        if dist <= SNAP_REL:
            value = near
        else:
            unsnapped += 1
        pairs.append((evecs[:, c] / np.linalg.norm(evecs[:, c]),
                      complex(value)))
    return pairs, worst, unsnapped


def check_octagon_coideal(fam, m1, m2):
    """(Delta ox id)(K) = R32 K13 Rtw23: the composite must decompose into
    the solved component braids of the fused object X0 (.) m1."""
    # the ribbon composite with the identity in place of K12
    composite = ribbon_compose(fam.diag, np.eye(m1.dim), m1, fam.braid(m2), m2)

    # character components of X0 (.) m1 and their solved braids against m2
    worst = 0.0
    for vec, chi in octagon_characters(fam, m1)[0]:
        chi_mod = CoidealModule(fam.diag, fam.params, fam.qp,
                                Character({1: chi}, {1: 0.0}))
        eta_c = kmatrix_solve(fam.diag, fam.params, fam.qp, chi_mod, m2,
                              fuse_from=fam.v)
        lift = kron(vec.reshape(-1, 1), np.eye(m2.dim))
        block = lift.conj().T @ composite @ lift
        diff = min(np.linalg.norm(block - eta_c), np.linalg.norm(block + eta_c))
        worst = max(worst, diff / max(np.linalg.norm(eta_c), 1e-30))
    return worst


def check_ribbon_coideal(fam, m1, m2):
    """(id ox Delta)(K) = R32 K13 Rtw23 K12 against the component lifts."""
    eta_1 = fam.braid(m1)
    eta_2 = fam.braid(m2)
    composite = ribbon_compose(fam.diag, eta_1, m1, eta_2, m2)
    comps = fam.braid_components(m1, m2)
    return _component_match_residual(composite, comps)


def check_cylinder_coideal(fam, m1, m2):
    """Both cylinder twist equations, with theta_{U ox V} lifted from the
    component braids; also the canonical equality of the two right sides."""
    return _cylinder_residuals(*_cylinder_coideal(fam, m1, m2), relative)


def _cylinder_coideal(fam, m1, m2):
    """theta_{U ox V} and the right sides of the cylinder twist equations
    on U ox V (X0 is one-dimensional and sigma the identity): rhs1 is the
    ribbon composite R21 (1 ox theta^V) R (theta^U ox 1), and
    rhs2 = (theta^U ox 1) R21 (1 ox theta^V) R."""
    theta_u, theta_v = fam.braid(m1), fam.braid(m2)
    theta_uv = fam.braid_on_tensor(m1, m2)
    rhs1 = ribbon_compose(fam.diag, theta_u, m1, theta_v, m2)
    rhs2 = kron(theta_u, np.eye(m2.dim)) @ r21(m1, m2) \
        @ kron(np.eye(m1.dim), theta_v) @ rmat(m1, m2).matrix
    return theta_uv, rhs1, rhs2


def _cylinder_residuals(theta_uv, rhs1, rhs2, ratio):
    """Both cylinder twist equations and the agreement of their right sides,
    each difference measured by ratio(diff, theta_uv)."""
    return {"cyl-tw-eq": ratio(theta_uv - rhs1, theta_uv),
            "cyl-tw-eq-2": ratio(theta_uv - rhs2, theta_uv),
            "cyl-rhs-agree": ratio(rhs1 - rhs2, theta_uv)}


# ---------------------------------------------------------------------------
# vogan-side checks (truncated; boundary masked)
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def vogan_axioms(module, m1, m2, qp):
    """(residuals, sides) on M ox U ox V, sU = nu(U), sV = nu(V), masked to
    the levels at least 4 below the cap: the octagon (alpha ox id)(E) =
    R32 E13 (id ox nu)(R)23, the ribbon equation (id ox Delta)(E) =
    (alpha ox id)(E) E12 and both cylinder twist equations, with

        rhs1 = R21(U, V)_23 E^V_13 R(U, sV)_23 E^U_12,
        rhs2 = E^U_12 R21(sU, V)_23 E^V_13 R(sU, sV)_23,

    R21(X, V)_23 being R(V, X) on the legs (2, 1); the seven sides compared
    are WeightBlocks on one product index."""
    index = product_blocks(module, m1, m2)

    def place(legs, mat):
        return leg_blocks(index, [(legs, mat)])

    su, sv = nu_module(m1), nu_module(m2)
    e_u = place((0, 1), e_matrix(module, m1, qp))
    e_v = place((0, 2), e_matrix(module, m2, qp))
    octagon = place((2, 1), rmat(m2, m1).matrix) @ e_v \
        @ place((1, 2), rmat(m1, sv).matrix)
    # the braided forms (beta = P R, through M ox V ox U) moved onto
    # M ox U ox V by P R(V, U) P^-1 = R21(U, V), P E^V_12 P^-1 = E^V_13
    rhs1 = octagon @ e_u
    rhs2 = e_u @ place((2, 1), rmat(m2, su).matrix) @ e_v \
        @ place((1, 2), rmat(su, sv).matrix)
    alpha_e = braid_blocks(coaction_tensor(module, m1), m2, qp)
    theta_uv = braid_blocks(module, tensor(m1, m2), qp)
    ribbon = alpha_e @ e_u
    n_interior = len(interior_indices(module, m1.dim * m2.dim, 4))

    def ratio(diff, ref):
        return diff.masked_norm(n_interior) / max(
            ref.masked_norm(n_interior), 1e-30)

    residuals = {"EqOct2": ratio(alpha_e - octagon, octagon),
                 "EqRB2": ratio(theta_uv - ribbon, ribbon),
                 **_cylinder_residuals(theta_uv, rhs1, rhs2, ratio)}
    return residuals, [alpha_e, octagon, theta_uv, ribbon, theta_uv, rhs1,
                       rhs2]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_axioms(source, q, t=0.0, r=0.25, levels=14):
    start = time.time()
    if not math.isfinite(t):
        raise InputError("t must be a finite number")
    residuals = {}
    tols = {}
    info = {}
    if source == "coideal":
        fam = CoidealRankOneFamily(q, t)
        v = fam.module(1)
        v1 = fam.module(2)
        snaps = [octagon_characters(fam, m1)[1:] for m1 in (v, v1)]
        info["octagon-character-snap"] = float(max(dist for dist, _ in snaps))
        info["octagon-characters-unsnapped"] = sum(n for _, n in snaps)
        pairs = {"VV": (v, v), "VV1": (v, v1), "V1V": (v1, v),
                 "V1V1": (v1, v1)}
        for label, (a, b) in pairs.items():
            residuals[f"EqOct2[{label}]"] = check_octagon_coideal(fam, a, b)
            residuals[f"EqRB2[{label}]"] = check_ribbon_coideal(fam, a, b)
            cyl = check_cylinder_coideal(fam, a, b)
            for key, val in cyl.items():
                residuals[f"{key}[{label}]"] = val
        tols = {k: TOL_ALG for k in residuals}
    elif source == "kz":
        ts = split_tensors()
        hbar = QParams(q).hbar
        lam = 1.0 if t == 0.0 else t
        res = verify_octagon_kz(ts, lam, 1, 1, hbar)
        residuals["eq:RTKZ"] = res["rtkz"]
        residuals["EqOct2"] = res["octagon"]
        residuals["EqRB2"] = res["ribbon"]
        a, bp, bm = kz_coeffs(ts, lam, 1, 1, hbar)
        residuals["eq:Eg"] = verify_eg(a, bp, bm)
        residuals["flatness"] = max(
            kz_flatness(ts, lam, [1, 1, 1], hbar).values())
        tols = {k: TOL_ODE for k in residuals}
        tols["flatness"] = 1e-10
    elif source == "vogan":
        if levels < AXIOM_MIN_LEVELS:
            raise InputError(f"the Vogan axiom checks need at least "
                             f"{AXIOM_MIN_LEVELS} levels, got {levels}")
        qp = QParams(q)
        datum = build_root_datum([("A", 1)])
        m = build_Mr(r, qp, levels)
        v = build_irrep(datum, datum.weight([1]), qp)
        residuals, composites = vogan_axioms(m, v, v, qp)
        tols = {k: TOL_ALG for k in residuals}
        groups = composites[0].layout.groups
        info["vogan-weight-blocks"] = sum(len(g) for g in groups)
        info["vogan-largest-block"] = int(groups[-1].shape[1])
        # 0.0 shows that no dense factor had an entry between the blocks
        info["vogan-off-block-max"] = max(op.off_block for op in composites)
    else:
        raise InputError(f"unknown axiom source {source!r}")
    return Report(f"axioms[{source}]",
                  {"q": q, "t": t, "r": r, "levels": levels},
                  residuals, tols, info, runtime=time.time() - start)


def run_kz_suite(q):
    start = time.time()
    lams = (0.0, 1.0)
    ts = split_tensors()
    hbar = QParams(q).hbar
    residuals = {}
    for lam in lams:
        a, bp, bm = kz_coeffs(ts, lam, 1, 1, hbar)
        residuals[f"eq:Eg[{lam}]"] = verify_eg(a, bp, bm)
        res = verify_octagon_kz(ts, lam, 1, 1, hbar)
        residuals[f"eq:RTKZ[{lam}]"] = res["rtkz"]
    residuals["flatness[n=2]"] = max(
        kz_flatness(ts, 1.0, [1, 1], hbar).values())
    residuals["flatness[n=3]"] = max(
        kz_flatness(ts, 0.5, [1, 1, 1], hbar).values())
    tols = {k: TOL_ODE for k in residuals}
    tols["flatness[n=2]"] = 1e-10
    tols["flatness[n=3]"] = 1e-10
    return Report("kz-suite", {"q": q, "lambda_grid": list(lams)},
                  residuals, tols, runtime=time.time() - start)


def scalar_deviation(scal, mu_want, lam_want):
    """Worst |mu - mu_want| and |lam - lam_want| over the component scalars
    {weight: (mu, lam or None)}; inf when a scalar is not finite, which a
    plain max would skip (a NaN never compares larger)."""
    devs = [abs(got - want) for pair in scal.values()
            for got, want in zip(pair, (mu_want, lam_want)) if got is not None]
    if not all(math.isfinite(dev) for dev in devs):
        return math.inf
    return max(devs)


def run_rank_one(q, r, levels=14):
    """The equivalence probe joining the three constructions."""
    if levels < RANK_ONE_MIN_LEVELS:
        raise InputError(f"the rank-one probe needs at least "
                         f"{RANK_ONE_MIN_LEVELS} levels, got {levels}")
    start = time.time()
    qp = QParams(q)
    residuals = {}
    info = {}
    tols = {}
    hbar = qp.hbar
    ts = split_tensors()

    def check(key, residual, tol):
        residuals[key], tols[key] = residual, tol

    # (i) coideal braid vs KZ braid at matched parameters
    for lam in (0.5, 1.0, 2.0):
        t = t_of_lambda(lam, q)
        fam = CoidealRankOneFamily(q, t)
        c_mat = fam.braid(fam.v)
        sv_c = sorted(np.linalg.svd(c_mat, compute_uv=False))
        braid_kz = kz_braid(ts, lam, 1, hbar)
        sv_k = sorted(np.linalg.svd(braid_kz, compute_uv=False))
        want = sorted([q ** (lam - 0.5), q ** (-lam - 0.5)])
        check(f"sv[coideal,{lam}]",
              max(abs(a - b) for a, b in zip(sv_c, want)), 1e-8)
        check(f"sv[kz,{lam}]",
              max(abs(a - b) for a, b in zip(sv_k, want)), 1e-8)
        lam_rec = lambda_from_trace(c_mat, q)[0]
        check(f"trace-lambda[{lam}]", abs(abs(lam_rec) - lam), 1e-9)
        # the braids agree as matrices up to the parity sign, not just in
        # singular values: compare eigenvalues of C with those of the
        # monodromy braid composed with the inner implementation of sigma
        g_inner = np.diag([1j, -1j])  # in the k-weight basis
        ev_c = _sorted_eigs(c_mat)
        ev_k = _sorted_eigs(braid_kz @ g_inner)
        ev_km = _sorted_eigs(-braid_kz @ g_inner)
        check(f"eig[coideal-kz,{lam}]", min(
            max(abs(a - b) for a, b in zip(ev_c, ev_k)),
            max(abs(a - b) for a, b in zip(ev_c, ev_km))), 1e-8)

    # (ii) the Vogan side
    m = build_Mr(r, qp, levels)
    datum = build_root_datum([("A", 1)])
    v = build_irrep(datum, datum.weight([1]), qp)
    scal, defect = e_matrix_component_scalars(m, v, qp)
    info["vogan-nonfinite-scalars"] = sum(
        1 for pair in scal.values() for x in pair
        if x is not None and not np.isfinite(x))
    check("vogan-scalars",
          scalar_deviation(scal, q ** (-r - 1.5), q ** (r + 0.5)), 1e-10)
    check("vogan-chain-defect", defect, 1e-9)
    blocks = plain_block_eigenvalues(m, v, qp)
    two_blocks = [h for h in sorted(blocks) if len(blocks[h]) == 2][:5]
    vogan_sv = sorted([q ** (-r - 1.5), q ** (r + 0.5)])
    check("vogan-block-moduli", max(
        max(abs(a - b) for a, b in
            zip(sorted(abs(x) for x in blocks[h]), vogan_sv))
        for h in two_blocks), 1e-9)

    # (iii) hypothesis test: which lambda matches the Vogan data
    matches = {}
    for name, lam_hyp in (("2r+2", 2 * r + 2), ("r+1", r + 1)):
        want = sorted([q ** (lam_hyp - 0.5), q ** (-lam_hyp - 0.5)])
        dev = max(abs(a - b) for a, b in zip(vogan_sv, want))
        matches[name] = dev
        info[f"hypothesis[{name}]"] = float(dev)
    holds = [name for name, dev in matches.items() if dev < 1e-8]
    info["matching_hypotheses"] = holds
    check("exactly-one-hypothesis", 0.0 if len(holds) == 1 else 1.0, 0.5)
    if holds:
        lam_match = {"2r+2": 2 * r + 2, "r+1": r + 1}[holds[0]]
        t_match = t_of_lambda(lam_match, q)
        fam = CoidealRankOneFamily(q, t_match)
        sv_c = sorted(np.linalg.svd(fam.braid(fam.v), compute_uv=False))
        check("vogan-coideal-sv",
              max(abs(a - b) for a, b in zip(sv_c, vogan_sv)), 1e-8)
        info["lambda_of_r"] = lam_match
        info["t_of_r"] = t_match

    # (iv) fusion and characters
    fus = fusion_check(m, v, qp)
    info["fusion"] = {str(k): int(val) for k, val in sorted(fus.items())}
    ok = fus == {round(-r - 1, 9): 1, round(-r + 1, 9): 1}
    check("fusion-multiplicities", 0.0 if ok else 1.0, 0.5)

    lam0 = 1.0
    t0 = t_of_lambda(lam0, q)
    fam = CoidealRankOneFamily(q, t0)
    worst = 0.0
    for n in (-1, 0, 1):
        chi_mod = CoidealModule(
            fam.diag, fam.params, fam.qp,
            Character({1: chi_n_value(n, lam0, q)}, {1: 0.0}))
        b_mat = chi_mod.generator_matrices(fam.v)[("B", 1)]
        got = sorted(np.linalg.eigvals(b_mat).imag)
        want = sorted([chi_n_value(n + 1, lam0, q).imag,
                       chi_n_value(n - 1, lam0, q).imag])
        worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
    check("character-fusion", worst, 1e-9)

    return Report("rank-one", {"q": q, "r": r, "levels": levels},
                  residuals, tols, info, runtime=time.time() - start)
