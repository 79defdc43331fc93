"""The four verification workloads: parameter grids, operations and the
correctness gate.

A workload is a list of parameter groups.  Each group has a grid of
parameter tuples; the seed picks one tuple per group, and the group turns it
into operations.  An operation calls public ``qsp`` functions and returns
its residual checks as ``(name, residual, tolerance)``; it passes when it
raises nothing and every residual is within its tolerance.  The amount of
work in a pass does not depend on the seed: the seed moves q, t and r, never
sizes.

Every workload also holds fixed operations that do not depend on the seed:
the grid corner with the least precision headroom ("anchor"), so that
``headroom_digits`` is set by the same case on every seed, and, in two
workloads, named operations that fail today ("known faults").

The gate runs after the timed region.  It compares outputs the operations
kept in ``Pass.out`` against closed forms and independent routes.
"""

from __future__ import annotations

import math
import random
import warnings

import numpy as np

from qsp.coideal import (
    coideal_law_residual,
    kmatrix_solve,
    no_parameter,
    star_membership,
)
from qsp.diagrams import satake
from qsp.harness import (
    CoidealRankOneFamily,
    check_cylinder_coideal,
    check_octagon_coideal,
    check_ribbon_coideal,
    run_axioms,
    run_rank_one,
)
from qsp.kzmono import (
    MonodromyProblem,
    flatness_residuals,
    kz_braid,
    kz_coeffs,
    mkz_consistency,
    psi,
    psi_commuting_oracle,
    split_tensors,
    verify_eg,
    verify_octagon_kz,
)
from qsp.lusztig import BraidContext, verify_appB
from qsp.rmatrix import (
    hexagon_residuals,
    ribbon_residual,
    rmat,
    rmat_oracle,
    ybe_residual,
)
from qsp.rootsys import build_root_datum, restrict_datum
from qsp.uqrep import QParams, build_irrep
from qsp.vogan10 import build_Mr, e_matrix_component_scalars, fusion_check

# tolerances as pinned in tests/test_acceptance.py, the unit tests and the
# qsp.harness / qsp.cli reports
TOL_BRAID = 1e-10       # YBE, hexagon, ribbon
TOL_GOLDEN = 1e-12      # A1 closed-form R-matrix, entrywise
TOL_ORACLE = 1e-9       # rmat against rmat_oracle, entrywise
TOL_ALG = 1e-9          # coideal octagon / ribbon / cylinder
TOL_SPAN = 1e-8         # star membership, coideal law, appendix B
TOL_ODE = 1e-7          # KZ identities
TOL_FLAT = 1e-10        # KZ flatness
TOL_UNITARY = 1e-8      # Psi unitarity
TOL_SPREAD = 1e-6       # Psi match-point spread
TOL_SV = 1e-8           # braid singular values
TOL_KSV = 1e-10         # K-matrix singular values
TOL_VOGAN = 1e-10       # Vogan braid scalars
INDICATOR_TOL = 0.5     # pass/fail indicators, left out of the headroom
HEADROOM_CAP = 16.0


class Op:
    """One verification operation of a pass."""

    __slots__ = ("name", "run", "known_fault")

    def __init__(self, name, run, known_fault=False):
        self.name = name
        self.run = run
        self.known_fault = known_fault


class Group:
    """Operations built from one parameter tuple drawn from ``grid``."""

    def __init__(self, name, grid, build):
        self.name = name
        self.grid = grid
        self.build = build


class Pass:
    """State shared by the operations of one pass: the tracer, the inputs
    and drawn parameters, the modules built so far in this pass, and the
    outputs kept for the gate."""

    def __init__(self, tracer, inputs, params):
        self.t = tracer
        self.inputs = inputs
        self.params = params
        self.mods = {}
        self.out = {}

    def irrep(self, datum_key, coords, q):
        key = (datum_key, tuple(coords), q)
        if key not in self.mods:
            datum = self.inputs["data"][datum_key]
            self.mods[key] = self.t.call("uqrep.build_irrep", build_irrep,
                                         datum, datum.weight(list(coords)),
                                         QParams(q))
        return self.mods[key]


def _grid(lo, hi, step):
    n = int(round((hi - lo) / step))
    return [round(lo + k * step, 6) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# rmatrix-highrank
# ---------------------------------------------------------------------------

RM_SETS = {
    # datum: {name: highest-weight coordinates}
    "A1": {"v": (1,)},
    "A2": {"fund": (1, 0), "dual": (0, 1), "adj": (1, 1)},
    "B2": {"spinor": (0, 1), "vector": (1, 0)},
    "C2": {"c1": (1, 0), "c2": (0, 1)},
    "A3": {"fund": (1, 0, 0), "adj": (1, 0, 1)},
}


RM_ANCHOR = ("ribbon", "B2", ("spinor", "vector"), 0.6)   # least headroom


def _rm_plan(size):
    """(kind, datum, module names) in pass order."""
    plan = [("rmat", "A1", ("v", "v")),
            ("rmat", "A2", ("fund", "fund")), ("rmat", "A2", ("fund", "dual")),
            ("ybe", "A2", ("fund",)), ("ybe", "A2", ("dual",)),
            ("hexagon", "A2", ("fund", "dual", "fund")),
            ("ribbon", "A2", ("fund", "dual"))]
    if size == "small":
        return plan
    plan += [("ybe", "A2", ("adj",)), ("ribbon", "A2", ("fund", "adj")),
             ("rmat", "B2", ("spinor", "spinor")),
             ("rmat", "B2", ("spinor", "vector")),
             ("ybe", "B2", ("spinor",)), ("ybe", "B2", ("vector",)),
             ("hexagon", "B2", ("spinor", "vector", "spinor")),
             ("ribbon", "B2", ("spinor", "vector")),
             ("rmat", "C2", ("c1", "c1")), ("rmat", "C2", ("c1", "c2")),
             ("ybe", "C2", ("c1",)), ("ybe", "C2", ("c2",)),
             ("ribbon", "C2", ("c1", "c2")),
             ("rmat", "A3", ("fund", "fund")),
             ("ybe", "A3", ("fund",)),
             ("ribbon", "A3", ("fund", "fund")),
             ("rmat", "A3", ("adj", "adj"))]
    return plan


def _rm_op(kind, dkey, names, q, tag=""):
    label = f"{tag}{kind}[q={q} {dkey} {'x'.join(names)}]"

    def run(p):
        mods = [p.irrep(dkey, RM_SETS[dkey][nm], q) for nm in names]
        t = p.t
        if kind == "rmat":
            r = t.call("rmatrix.rmat", rmat, *mods)
            p.out.setdefault("rmat", []).append((dkey, names, mods, r.matrix))
            return []
        if kind == "ybe":
            return [("ybe", t.call("rmatrix.ybe_residual", ybe_residual,
                                   *mods), TOL_BRAID)]
        if kind == "hexagon":
            r1, r2 = t.call("rmatrix.hexagon_residuals", hexagon_residuals,
                            *mods)
            return [("hexagon-1", r1, TOL_BRAID), ("hexagon-2", r2, TOL_BRAID)]
        return [("ribbon", t.call("rmatrix.ribbon_residual", ribbon_residual,
                                  *mods), TOL_BRAID)]

    return Op(label, run)


def _rm_groups(size):
    def build(params):
        (q,) = params
        return [_rm_op(kind, dkey, names, q)
                for kind, dkey, names in _rm_plan(size)]
    return [Group("q", [(q,) for q in _grid(0.60, 0.95, 0.05)], build),
            Group("fixed", [()], lambda prm: [_rm_op(*RM_ANCHOR,
                                                     tag="anchor:")])]


def _rm_gate(p):
    fails = []
    for dkey, names, mods, mat in p.out.get("rmat", []):
        m, n = mods
        if dkey == "A1":
            q = m.qp.q
            golden = q ** 0.5 * np.array([[1 / q, 0, 0, 0],
                                          [0, 1, 1 / q - q, 0],
                                          [0, 0, 1, 0],
                                          [0, 0, 0, 1 / q]])
            err = float(np.max(np.abs(mat - golden)))
            if not err < TOL_GOLDEN:
                fails.append(f"A1 closed form: {err:.2e}")
        if m.dim * n.dim <= 20:
            ref = rmat_oracle(m, n).matrix
            err = float(np.max(np.abs(mat - ref)))
            if not err < TOL_ORACLE:
                fails.append(f"oracle {dkey} {names}: {err:.2e}")
    return fails, {}


# ---------------------------------------------------------------------------
# coideal-fusion
# ---------------------------------------------------------------------------

def _diagram_cases(size):
    cases = [("SU3", "A2", ((), [[1, 2]]), ((1, 0), (0, 1)))]
    if size == "small":
        return cases
    return cases + [("AIII", "A3", ((2,), [[1, 3]]), ((1, 0, 0), (0, 1, 0))),
                    ("AII", "A3", ((1, 3), None), ((1, 0, 0), (0, 1, 0))),
                    ("B2", "B2", ((), None), ((0, 1), (1, 0)))]


def _co_family(p, q, t):
    key = ("fam", q, t)
    if key not in p.mods:
        p.mods[key] = p.t.call("harness.CoidealRankOneFamily",
                               CoidealRankOneFamily, q, t)
    return p.mods[key]


def _co_pair_op(q, t, kind, a, b, tag=""):
    def run(p):
        fam = _co_family(p, q, t)
        m1, m2 = p.irrep("A1", (a,), q), p.irrep("A1", (b,), q)
        if kind == "octagon":
            return [("octagon", p.t.call("harness.check_octagon_coideal",
                                         check_octagon_coideal, fam, m1, m2),
                     TOL_ALG)]
        if kind == "ribbon":
            return [("ribbon", p.t.call("harness.check_ribbon_coideal",
                                        check_ribbon_coideal, fam, m1, m2),
                     TOL_ALG)]
        res = p.t.call("harness.check_cylinder_coideal",
                       check_cylinder_coideal, fam, m1, m2)
        return [(k, v, TOL_ALG) for k, v in sorted(res.items())]
    return Op(f"{tag}{kind}[q={q} t={t} {a}x{b}]", run)


def _co_kmat_op(q, t, s):
    def run(p):
        fam = _co_family(p, q, t)
        target = p.irrep("A1", (s,), q)
        eta = p.t.call("coideal.kmatrix_solve", kmatrix_solve, fam.diag,
                       fam.params, fam.qp, fam.x0, target, fuse_from=fam.v)
        p.out.setdefault("kmat", []).append((q, t, s, eta))
        return []
    return Op(f"kmatrix[q={q} t={t} spin2={s}]", run)


def _co_family_ops(q, t, size):
    spins = range(1, 3) if size == "small" else range(1, 5)
    derived = range(1, 4) if size == "small" else range(1, 7)
    ops = [_co_pair_op(q, t, kind, a, b)
           for a in spins for b in spins
           for kind in ("octagon", "ribbon", "cylinder")]
    return ops + [_co_kmat_op(q, t, s) for s in derived]


def _co_diagram_ops(q, size):
    ops = []
    for name, dkey, (x_set, _), weights in _diagram_cases(size):
        def star(p, name=name, dkey=dkey, weights=weights):
            diag = p.inputs["diagrams"][name]
            window = [p.irrep(dkey, w, q) for w in weights]
            par = no_parameter(diag, QParams(q))
            res = p.t.call("coideal.star_membership", star_membership, diag,
                           par, QParams(q), window)
            p.out.setdefault("star", []).append((name, diag, par, window))
            return [(f"star[{r}]", v, TOL_SPAN) for r, v in sorted(res.items())]

        def law(p, name=name, dkey=dkey, weights=weights):
            diag = p.inputs["diagrams"][name]
            m0 = p.irrep(dkey, weights[0], q)
            par = no_parameter(diag, QParams(q))
            res = p.t.call("coideal.coideal_law_residual", coideal_law_residual,
                           diag, par, QParams(q), m0, m0)
            return [("coideal-law", res, TOL_SPAN)]

        ops += [Op(f"star[{name}]", star), Op(f"law[{name}]", law)]
        if x_set:
            for level in (1, 2):
                def appb(p, name=name, level=level):
                    diag = p.inputs["diagrams"][name]
                    ctx = BraidContext(diag, QParams(q))
                    sub = p.inputs["subdata"][name]
                    res = p.t.call("lusztig.verify_appB", verify_appB, ctx,
                                   [level] * sub.rank)
                    return [(f"appB-{k}", v, TOL_SPAN)
                            for k, v in sorted(res.items())]
                ops.append(Op(f"appendixB[{name} {level}]", appb))
    return ops


CO_ANCHOR = (0.6, 2.0, "octagon", 4, 4)     # least headroom of the grid


def _co_groups(size):
    qs = [0.6, 0.7, 0.8, 0.9]
    return [
        Group("q,t1", [(q, t) for q in qs for t in (0.1, 0.3, 0.5)],
              lambda prm: _co_family_ops(prm[0], prm[1], size)),
        Group("q,t2", [(q, t) for q in qs for t in (0.8, 1.4, 2.0)],
              lambda prm: _co_family_ops(prm[0], prm[1], size)),
        Group("q", [(q,) for q in qs],
              lambda prm: _co_diagram_ops(prm[0], size)),
        Group("fixed", [()],
              lambda prm: [_co_pair_op(*CO_ANCHOR, tag="anchor:")]),
    ]


def _lambda_of_t(t, q):
    """Invert t = q^{-1/2} (q^{-lam} - q^{lam}) / (q^{-1} - q) for lam >= 0."""
    rhs = t * (1 / q - q) * q ** 0.5
    x = (rhs + math.sqrt(rhs * rhs + 4)) / 2   # q^{-lam}
    return -math.log(x) / math.log(q)


def _co_gate(p):
    fails = []
    for q, t, s, eta in p.out.get("kmat", []):
        if s != 1:
            continue
        lam = _lambda_of_t(t, q)
        sv = sorted(np.linalg.svd(eta, compute_uv=False))
        want = sorted([q ** (lam - 0.5), q ** (-lam - 0.5)])
        err = max(abs(a - b) for a, b in zip(sv, want))
        if not err < TOL_KSV:
            fails.append(f"K-matrix singular values t={t}: {err:.2e}")
    # sensitivity control: a 5% change of c must leave the coideal span
    for name, diag, par, window in p.out.get("star", []):
        r = diag.white[0]
        bad = par.replace(c={r: 1.05 * par.c[r]})
        broken = max(star_membership(diag, bad, window[0].qp,
                                     window).values())
        if not broken > 1e-3:
            fails.append(f"star membership of {name} insensitive: {broken:.2e}")
    return fails, {}


# ---------------------------------------------------------------------------
# kz-monodromy
# ---------------------------------------------------------------------------

KZ_ANCHOR = (0.75, 2.0, 3, 3)       # least headroom of the grid
KZ_FAULT = (0.7, 1.0, 4, 4)         # AccuracyError today


def _hbar(q):
    return -1j * math.log(q) / math.pi


def _kz_ident_ops(q, lam, a, b, tag=""):
    def eg(p):
        ts = p.inputs["tensors"]
        coeffs = p.t.call("kzmono.kz_coeffs", kz_coeffs, ts, lam, a, b,
                          _hbar(q))
        return [("eq:Eg", p.t.call("kzmono.verify_eg", verify_eg, *coeffs),
                 TOL_ODE)]

    def octagon(p):
        ts = p.inputs["tensors"]
        res = p.t.call("kzmono.verify_octagon_kz", verify_octagon_kz, ts, lam,
                       a, b, _hbar(q))
        return [(k, v, TOL_ODE) for k, v in sorted(res.items())]

    return [Op(f"{tag}eg[q={q} lam={lam} {a}x{b}]", eg),
            Op(f"{tag}octagon[q={q} lam={lam} {a}x{b}]", octagon)]


def _kz_seeded_ops(q, size):
    lams = (1.0,) if size == "small" else (0.5, 1.0, 2.0)
    pairs = ((1, 1),) if size == "small" else ((1, 1), (1, 2), (2, 2), (3, 3))
    ops = []
    for lam in lams:
        for a, b in pairs:
            ops += _kz_ident_ops(q, lam, a, b)

    def flat(p):
        res = p.t.call("kzmono.flatness_residuals", flatness_residuals,
                       p.inputs["tensors"], 1.0, [1, 1, 1], _hbar(q))
        return [("flatness", max(res.values()), TOL_FLAT)]

    return ops + [Op(f"flatness[q={q} 1,1,1]", flat)]


def _kz_fixed_ops(size):
    q, lam, a, b = KZ_ANCHOR
    ops = _kz_ident_ops(q, lam, a, b, tag="anchor:")
    big = 2 if size == "small" else 8

    def psi_big(p):
        ts = p.inputs["tensors"]
        a, bp, bm = p.t.call("kzmono.kz_coeffs", kz_coeffs, ts, 1.0, big, big,
                             _hbar(q))
        res = p.t.call("kzmono.psi", psi, MonodromyProblem(a, bp, bm))
        unit = np.linalg.norm(res.psi.conj().T @ res.psi - np.eye(a.shape[0]))
        return [("unitarity", unit, TOL_UNITARY),
                ("spread", res.spread, TOL_SPREAD)]

    ops.append(Op(f"anchor:psi[q={q} spin2={big}x{big}]", psi_big))
    fq, flam, fa, fb = KZ_FAULT

    def fault(p):
        res = p.t.call("kzmono.verify_octagon_kz", verify_octagon_kz,
                       p.inputs["tensors"], flam, fa, fb, _hbar(fq))
        return [(k, v, TOL_ODE) for k, v in sorted(res.items())]

    return ops + [Op(f"known-fault:octagon[q={fq} lam={flam} {fa}x{fb}]",
                     fault, known_fault=True)]


def _kz_groups(size):
    return [Group("q", [(q,) for q in _grid(0.78, 0.90, 0.02)],
                  lambda prm: _kz_seeded_ops(prm[0], size)),
            Group("fixed", [()], lambda prm: _kz_fixed_ops(size))]


def _kz_gate(p):
    fails = []
    (q,) = p.params["q"]
    ts = p.inputs["tensors"]
    for lam in (0.5, 1.0, 2.0):
        sv = sorted(np.linalg.svd(kz_braid(ts, lam, 1, _hbar(q)),
                                  compute_uv=False))
        want = sorted([q ** (lam - 0.5), q ** (-lam - 0.5)])
        err = max(abs(a - b) for a, b in zip(sv, want))
        if not err < TOL_SV:
            fails.append(f"KZ braid singular values lam={lam}: {err:.2e}")
    rng = np.random.default_rng(p.inputs["seed"])
    prob = MonodromyProblem(*[np.diag(rng.normal(size=4) * 0.35)
                              for _ in range(3)])
    err = float(np.linalg.norm(psi(prob).psi - psi_commuting_oracle(prob)))
    if not err < 1e-9:
        fails.append(f"commuting-case Psi against 2^(b_-): {err:.2e}")
    err = mkz_consistency(MonodromyProblem(*kz_coeffs(ts, 1.1, 1, 1,
                                                      _hbar(q))))
    if not err < 1e-8:
        fails.append(f"square-root route (mkz): {err:.2e}")
    return fails, {}


# ---------------------------------------------------------------------------
# vogan-ladder
# ---------------------------------------------------------------------------

VG_ANCHOR = (0.95, 0.1, 80)         # least headroom of the grid
VG_FAULT = (0.3, 0.25, 20)          # vogan-scalars / chain defect fail today
VG_OVERFLOW = (0.95, 0.1, 360)      # scalars overflow to NaN today
VG_GATE_LEVELS = 60                 # every scalar is finite today
R_GRID = _grid(0.1, 1.7, 0.4)


def _report_checks(rep):
    return [(k, v, rep.tolerances[k]) for k, v in sorted(rep.residuals.items())]


def _vg_rank_one_ops(q, r, size):
    levels = 40 if size == "small" else 360

    def run(p):
        rep = p.t.call("harness.run_rank_one", run_rank_one, q, r, levels)
        p.out["rank_one"] = (q, r, levels)
        return _report_checks(rep)
    return [Op(f"rank-one[q={q} r={r} levels={levels}]", run)]


def _axioms_op(q, r, levels, tag=""):
    def run(p):
        rep = p.t.call("harness.run_axioms", run_axioms, "vogan", q, r=r,
                       levels=levels)
        return _report_checks(rep)
    return Op(f"{tag}axioms[q={q} r={r} levels={levels}]", run)


def _vg_axiom_ops(q, r, size):
    levels = (20, 30) if size == "small" else (60, 80)
    return [_axioms_op(q, r, lv) for lv in levels]


def _vogan_scalars(datum, q, r, levels):
    """Deviations of every component scalar at (q, r, levels) from
    q^(-r-3/2) (sub-line) and q^(r+1/2) (quotient); NaN where a scalar is not
    finite.  ``datum`` is A1."""
    qp = QParams(q)
    v = build_irrep(datum, datum.weight([1]), qp)
    with warnings.catch_warnings():
        # the unnormalised ladder chains overflow at high levels
        warnings.simplefilter("ignore", RuntimeWarning)
        scal, _ = e_matrix_component_scalars(build_Mr(r, qp, levels), v, qp)
    return np.array([abs(got - want) for mu, lam in scal.values()
                     for got, want in ((mu, q ** (-r - 1.5)),
                                       (lam, q ** (r + 0.5)))
                     if got is not None])


def _vg_fixed_ops():
    q, r, levels = VG_FAULT

    def fault(p):
        rep = p.t.call("harness.run_rank_one", run_rank_one, q, r, levels)
        return _report_checks(rep)

    def overflow(p):
        dev = _vogan_scalars(p.inputs["data"]["A1"], *VG_OVERFLOW)
        nonfinite = int(np.count_nonzero(~np.isfinite(dev)))
        p.out["scalars_nonfinite"] = nonfinite
        worst = float(np.max(dev)) if nonfinite == 0 else math.inf
        return [("vogan-scalars", worst, TOL_VOGAN),
                ("vogan-scalars-nonfinite", float(nonfinite), 0.0)]

    oq, orr, olv = VG_OVERFLOW
    return [_axioms_op(*VG_ANCHOR, tag="anchor:"),
            Op(f"known-fault:rank-one[q={q} r={r} levels={levels}]", fault,
               known_fault=True),
            Op(f"known-fault:vogan-scalars[q={oq} r={orr} levels={olv}]",
               overflow, known_fault=True)]


def _vg_groups(size):
    return [
        Group("q,r rank-one",
              [(q, r) for q in _grid(0.95, 0.97, 0.005) for r in R_GRID],
              lambda prm: _vg_rank_one_ops(prm[0], prm[1], size)),
        Group("q,r axioms",
              [(q, r) for q in _grid(0.955, 0.97, 0.005) for r in R_GRID],
              lambda prm: _vg_axiom_ops(prm[0], prm[1], size)),
        Group("fixed", [()], lambda prm: _vg_fixed_ops()),
    ]


def _vg_gate(p):
    """Every component scalar of the pass's (q, r) at VG_GATE_LEVELS levels
    (where none overflows today; a NaN fails) against its closed form, and
    the fusion multiplicities at the rank-one's own levels."""
    fails = []
    q, r, levels = p.out["rank_one"]
    datum = p.inputs["data"]["A1"]
    dev = _vogan_scalars(datum, q, r, min(levels, VG_GATE_LEVELS))
    bad = int(np.count_nonzero(~(dev < TOL_VOGAN)))
    if bad:
        fails.append(f"{bad} of {dev.size} Vogan scalars off by more than "
                     f"{TOL_VOGAN:.0e} or not finite (worst {np.max(dev)})")
    qp = QParams(q)
    fus = fusion_check(build_Mr(r, qp, levels),
                       build_irrep(datum, datum.weight([1]), qp), qp)
    if fus != {round(-r - 1, 9): 1, round(-r + 1, 9): 1}:
        fails.append(f"fusion multiplicities {fus}")
    return fails, {"vogan10.component_scalars.nonfinite":
                   p.out["scalars_nonfinite"]}


# ---------------------------------------------------------------------------
# inputs, draws and the gate dispatch
# ---------------------------------------------------------------------------

GROUPS = {"rmatrix-highrank": _rm_groups, "coideal-fusion": _co_groups,
          "kz-monodromy": _kz_groups, "vogan-ladder": _vg_groups}
GATES = {"rmatrix-highrank": _rm_gate, "coideal-fusion": _co_gate,
         "kz-monodromy": _kz_gate, "vogan-ladder": _vg_gate}


def build_inputs(workload, seed, size):
    """Root data, diagrams and split tensors: the set-up part of a pass."""
    data = {key: build_root_datum([(key[0], int(key[1:]))])
            for key in ("A1", "A2", "A3", "B2", "C2")}
    inputs = {"data": data, "seed": seed}
    if workload == "coideal-fusion":
        inputs["diagrams"], inputs["subdata"] = {}, {}
        for name, dkey, (x_set, tau), _ in _diagram_cases(size):
            diag = satake(data[dkey], x_set, tau)
            inputs["diagrams"][name] = diag
            if x_set:
                inputs["subdata"][name] = restrict_datum(data[dkey], x_set)[0]
    if workload == "kz-monodromy":
        inputs["tensors"] = split_tensors()
    return inputs


def draw(workload, seed, size):
    """The seed's parameter tuple for every group, and the operations."""
    rng = random.Random(f"{workload}:{seed}")
    params, ops = {}, []
    for group in GROUPS[workload](size):
        prm = rng.choice(group.grid)
        params[group.name] = prm
        ops += group.build(prm)
    return params, ops


def run_op(op, p):
    """Returns (ok, checks, error)."""
    try:
        checks = op.run(p)
    except Exception as exc:  # a raised check is a failed operation
        return False, [], f"{type(exc).__name__}: {exc}"
    ok = all(res <= tol for _, res, tol in checks)
    return ok, checks, None


def headroom(results):
    """Smallest log10(tol / residual) over passed residual checks, leaving
    out indicator checks and known-fault operations; 0 residuals count as
    HEADROOM_CAP digits."""
    best = HEADROOM_CAP
    for op, ok, checks, _ in results:
        if op.known_fault or not ok:
            continue
        for _, res, tol in checks:
            if tol == INDICATOR_TOL:
                continue
            digits = HEADROOM_CAP if res == 0 else math.log10(tol / res)
            best = min(best, digits, HEADROOM_CAP)
    return best


# gate-side layer counts, reported by every workload (0 where not measured)
GATE_LAYERS = ("vogan10.component_scalars.nonfinite",)


def gate(workload, p):
    """(failure messages, gate-side layer counts)."""
    fails, extra = GATES[workload](p)
    counts = dict.fromkeys(GATE_LAYERS, 0)
    counts.update(extra)
    return fails, counts


def grid_points(workload, size):
    """Every (group, parameter tuple, operations) a seed can draw."""
    for group in GROUPS[workload](size):
        for prm in group.grid:
            yield group.name, prm, group.build(prm)
