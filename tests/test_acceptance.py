"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
from qsp.coideal import (
    CoidealParams,
    character_relations_residual,
    characters,
    no_parameter,
    star_membership,
)
from qsp.diagrams import hermitian_type, satake
from qsp.harness import (
    CoidealRankOneFamily,
    lambda_from_trace,
    run_rank_one,
    t_of_lambda,
)
from qsp.kzmono import (
    MonodromyProblem,
    kz_braid,
    kz_coeffs,
    psi,
    psi_commuting_oracle,
    split_tensors,
    verify_eg,
    verify_octagon_kz,
)
from qsp.kzmono import flatness_residuals as kz_flatness
from qsp.lusztig import BraidContext, verify_appB
from qsp.rmatrix import ribbon_residual, rmat, ybe_residual
from qsp.rootsys import build_root_datum
from qsp.uqrep import QParams, build_irrep
from qsp.vogan10 import (
    build_Mr,
    e_matrix,
    e_matrix_component_scalars,
    fusion_check,
)
from formal_algebra import act
from formal_coideal import conjugate, pi_t_intertwining_residual
from module_helpers import relations_residual, star_residual
from test_vogan10 import e_matrix_block_symbolic

A1 = build_root_datum([("A", 1)])
A2 = build_root_datum([("A", 2)])
A3 = build_root_datum([("A", 3)])
Q = 0.7
QP = QParams(Q)


def _line(num, ok, text):
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_rmatrix_golden():
    v = build_irrep(A1, A1.weight([1]), QP)
    golden = Q ** 0.5 * np.array([
        [1 / Q, 0, 0, 0],
        [0, 1, 1 / Q - Q, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1 / Q]])
    entry = np.max(np.abs(rmat(v, v).matrix - golden))
    ybe = ybe_residual(v)
    _line(1, entry < 1e-12 and ybe < 1e-10,
          f"R-matrix golden entrywise {entry:.2e} (<1e-12), "
          f"YBE {ybe:.2e} (<1e-10)")


def test_criterion_02_ribbon_identity():
    worst = 0.0
    spins = [build_irrep(A1, A1.weight([k]), QP) for k in (1, 2, 3)]
    for a in spins:
        for b in spins:
            worst = max(worst, ribbon_residual(a, b))
    f = build_irrep(A2, A2.weight([1, 0]), QP)
    fb = build_irrep(A2, A2.weight([0, 1]), QP)
    for a in (f, fb):
        for b in (f, fb):
            worst = max(worst, ribbon_residual(a, b))
    _line(2, worst < 1e-10,
          f"ribbon R21 R Delta(v) = v ox v, worst {worst:.2e} (<1e-10)")


def test_criterion_03_star_representation_contract():
    A4 = build_root_datum([("A", 3)])
    cases = [(A1, [k]) for k in (1, 2, 3, 4, 5)]
    cases += [(A2, c) for c in ([1, 0], [0, 1], [1, 1], [2, 0], [0, 2],
                                [3, 0], [0, 3])]
    cases += [(A4, c) for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
    worst = 0.0
    for datum, coords in cases:
        m = build_irrep(datum, datum.weight(coords), QP)
        worst = max(worst, star_residual(m))
        worst = max(worst, max(relations_residual(m).values()))
    _line(3, worst < 1e-9,
          f"defining relations + adjoint law on {len(cases)} irreps, "
          f"worst {worst:.2e} (<1e-9)")


def test_criterion_04_coideal_star_invariance():
    worst = 0.0
    d_su2 = satake(A1, ())
    v12 = build_irrep(A1, A1.weight([1]), QP)
    v1 = build_irrep(A1, A1.weight([2]), QP)
    for t in (0.0, 0.5, 2.0):
        params = CoidealParams({1: Q ** -2}, {1: 1j * t})
        worst = max(worst, max(star_membership(
            d_su2, params, QP, [v12, v1]).values()))
    cases = [
        (satake(A2, (), [[1, 2]]), A2, ([1, 0], [0, 1])),
        (satake(A3, (2,), [[1, 3]]), A3, ([1, 0, 0], [0, 1, 0])),
        (satake(A3, (1, 3)), A3, ([1, 0, 0], [0, 1, 0])),
    ]
    for diag, datum, weights in cases:
        window = [build_irrep(datum, datum.weight(c), QP) for c in weights]
        params = no_parameter(diag, QP)
        worst = max(worst, max(star_membership(
            diag, params, QP, window).values()))
    # sensitivity control: a 5% c-perturbation must break the membership
    diag, datum, weights = cases[-1]
    window = [build_irrep(datum, datum.weight(c), QP) for c in weights]
    params = no_parameter(diag, QP)
    bad = params.replace(c={2: 1.05 * params.c[2]})
    broken = min(star_membership(diag, bad, QP, window).values())
    ok = worst < 1e-8 and broken > 1e-3
    _line(4, ok, f"star membership worst {worst:.2e} (<1e-8), "
                 f"5% perturbation -> {broken:.2e} (>1e-3)")


def test_criterion_05_appendix_b_constants():
    worst = 0.0
    for X, tau in (((2,), [[1, 3]]), ((1, 3), None)):
        ctx = BraidContext(satake(A3, X, tau), QP)
        from qsp.rootsys import restrict_datum
        sub, _, _ = restrict_datum(A3, X)
        for coords in ([1] * sub.rank, [2] * sub.rank):
            worst = max(worst, max(verify_appB(ctx, coords).values()))
    # a_r^+ versus the definitional ratio on faithful modules
    from qsp.algebra import AlgebraElement
    from formal_algebra import a_plus, adjoint_action, z_elements
    from qsp.lusztig import braid_word_on_algebra
    from qsp.rootsys import weyl_act
    ratio_worst = 0.0
    for X, tau, r in (((2,), [[1, 3]], 1), ((1, 3), None, 2)):
        ctx = BraidContext(satake(A3, X, tau), QP)
        lhs_alg = braid_word_on_algebra(A3, QP, ctx.word.letters,
                                        AlgebraElement.e(A3, r))
        varpi = weyl_act(A3, ctx.word, A3.simple_root(r))
        _, zplus = z_elements(ctx, varpi)
        rhs_alg = adjoint_action(zplus, AlgebraElement.e(A3, r))
        for wt in ([1, 0, 0], [0, 1, 0]):
            m = build_irrep(A3, A3.weight(wt), QP)
            lhs = act(m, lhs_alg)
            rhs = a_plus(ctx, r) * act(m, rhs_alg)
            ratio_worst = max(ratio_worst, np.linalg.norm(lhs - rhs)
                              / max(np.linalg.norm(lhs), 1.0))
    ok = worst < 1e-9 and ratio_worst < 1e-8
    _line(5, ok, f"extremal constants {worst:.2e} (<1e-9), "
                 f"a+ ratio {ratio_worst:.2e} (<1e-8)")


def test_criterion_06_monodromy_engine():
    rng = np.random.default_rng(11)
    mats = [np.diag(rng.normal(size=4) * 0.35) for _ in range(3)]
    prob = MonodromyProblem(*mats)
    res = psi(prob)
    comm = np.linalg.norm(res.psi - psi_commuting_oracle(prob))
    ts = split_tensors()
    hbar = -1j * math.log(Q) / math.pi
    a, bp, bm = kz_coeffs(ts, 1.1, 1, 1, hbar)
    res2 = psi(MonodromyProblem(a, bp, bm))
    unit = np.linalg.norm(res2.psi.conj().T @ res2.psi - np.eye(a.shape[0]))
    spread = max(res.spread, res2.spread)
    ok = comm < 1e-9 and unit < 1e-8 and spread < 1e-6
    _line(6, ok, f"commuting-case Psi {comm:.2e} (<1e-9), unitarity "
                 f"{unit:.2e} (<1e-8), spread {spread:.2e} (<1e-6)")


def test_criterion_07_cyclotomic_identities():
    worst_eg, worst_oct = 0.0, 0.0
    for q in (0.5, 0.7, 0.9):
        hbar = -1j * math.log(q) / math.pi
        for lam in (0.0, 1.0):
            a, bp, bm = kz_coeffs(split_tensors(), lam, 1, 1, hbar)
            worst_eg = max(worst_eg, verify_eg(a, bp, bm))
            res = verify_octagon_kz(split_tensors(), lam, 1, 1, hbar)
            worst_oct = max(worst_oct, res["rtkz"])
    flat = max(kz_flatness(split_tensors(), 1.0, [1, 1, 1],
                           -1j * math.log(0.7) / math.pi).values())
    ok = worst_eg < 1e-7 and worst_oct < 1e-7 and flat < 1e-10
    _line(7, ok, f"eq:Eg {worst_eg:.2e} (<1e-7), octagon {worst_oct:.2e} "
                 f"(<1e-7), flatness {flat:.2e} (<1e-10)")


def test_criterion_08_kz_braid_singular_values():
    hbar = -1j * math.log(Q) / math.pi
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        braid = kz_braid(split_tensors(), lam, 1, hbar)
        sv = sorted(np.linalg.svd(braid, compute_uv=False))
        want = sorted([Q ** (lam - 0.5), Q ** (-lam - 0.5)])
        worst = max(worst, max(abs(a - b) for a, b in zip(sv, want)))
    _line(8, worst < 1e-8,
          f"KZ braid singular values vs q^(+-lam-1/2), worst {worst:.2e} (<1e-8)")


def test_criterion_09_vogan_side():
    v = build_irrep(A1, A1.weight([1]), QP)
    worst = 0.0
    for r in (0.25, 1.0, 3.0):
        m = build_Mr(r, QP, 12)
        scal, defect = e_matrix_component_scalars(m, v, QP)
        for mu, lam in scal.values():
            worst = max(worst, abs(mu - Q ** (-r - 1.5)))
            if lam is not None:
                worst = max(worst, abs(lam - Q ** (r + 0.5)))
        worst = max(worst, defect)
        assert fusion_check(m, v, QP) == {round(-r - 1, 9): 1,
                                          round(-r + 1, 9): 1}
    sub_defect, quot_defect = e_matrix_block_symbolic(0)
    symbolic_ok = all(x == 0 for x in sub_defect) and quot_defect == 0
    m10 = build_Mr(0.25, QP, 10)
    m20 = build_Mr(0.25, QP, 20)
    keep = 9 * 2
    trunc = np.max(np.abs(e_matrix(m10, v, QP)[:keep, :keep]
                          - e_matrix(m20, v, QP)[:keep, :keep]))
    ok = worst < 1e-10 and symbolic_ok and trunc < 1e-13
    _line(9, ok, f"braid scalars {worst:.2e} (<1e-10), closed form symbolic, "
                 f"truncation agreement {trunc:.2e} (<1e-13), fusion (1,1)")


def test_criterion_10_characters_conjugation():
    d_su2 = satake(A1, ())
    d_su3 = satake(A2, (), [[1, 2]])
    worst_chi = 0.0
    for diag in (d_su2, d_su3):
        params = no_parameter(diag, QP)
        chi = characters(diag, QP, 0.3)
        worst_chi = max(worst_chi, max(character_relations_residual(
            diag, params, QP, chi).values()))
    v12 = build_irrep(A1, A1.weight([1]), QP)
    v1 = build_irrep(A1, A1.weight([2]), QP)
    res_pi = pi_t_intertwining_residual(d_su2, no_parameter(d_su2, QP), QP,
                                        0.3, v12, v1)
    f = build_irrep(A2, A2.weight([1, 0]), QP)
    fb = build_irrep(A2, A2.weight([0, 1]), QP)
    res_pi = max(res_pi, pi_t_intertwining_residual(
        d_su3, no_parameter(d_su3, QP), QP, 0.3, f, fb))
    round_worst = 0.0
    for diag in (d_su2, d_su3):
        params = no_parameter(diag, QP)
        back = conjugate(diag, conjugate(diag, params, QP, 0.4), QP, -0.4)
        round_worst = max(round_worst, max(
            abs(back.c[r] - params.c[r]) + abs(back.s.get(r, 0)
                                               - params.s.get(r, 0))
            for r in diag.white))
    ok = worst_chi < 1e-10 and res_pi < 1e-9 and round_worst < 1e-12
    _line(10, ok, f"character relations {worst_chi:.2e} (<1e-10), pi_t "
                  f"{res_pi:.2e} (<1e-9), roundtrip {round_worst:.2e} (<1e-12)")


def test_criterion_11_hermitian_classification():
    ok = True
    # AIII, p+q <= 5
    for p, qn in [(1, 1), (2, 2), (1, 2), (1, 3), (1, 4), (2, 3)]:
        n = p + qn - 1
        datum = build_root_datum([("A", n)])
        flip = [[r, n + 1 - r] for r in range(1, (n + 1) // 2 + 1)
                if r != n + 1 - r]
        x_set = tuple(range(p + 1, n - p + 1))
        h = hermitian_type(satake(datum, x_set, flip))
        if p == qn:
            ok = ok and h.kind == "SType" and h.distinguished == p
        else:
            ok = ok and h.kind == "CType" and h.distinguished == p
    # DIII rank <= 6
    h = hermitian_type(satake(build_root_datum([("D", 4)]), (1, 3)))
    ok = ok and h.kind == "SType" and h.distinguished == 4
    h = hermitian_type(satake(build_root_datum([("D", 6)]), (1, 3, 5)))
    ok = ok and h.kind == "SType" and h.distinguished == 6
    h = hermitian_type(satake(build_root_datum([("D", 5)]), (1, 3), [[4, 5]]))
    ok = ok and h.kind == "CType" and h.distinguished == 5
    # BDI q <= 5
    for diag, dist in [
            (satake(build_root_datum([("B", 2)]), ()), 1),
            (satake(build_root_datum([("D", 3)]), (), [[2, 3]]), 1),
            (satake(build_root_datum([("B", 3)]), (3,)), 1)]:
        h = hermitian_type(diag)
        ok = ok and h.kind == "SType" and h.distinguished == dist
    # CI l <= 4
    for ell in (2, 3, 4):
        h = hermitian_type(satake(build_root_datum([("C", ell)]), ()))
        ok = ok and h.kind == "SType" and h.distinguished == ell
    _line(11, ok, "Hermitian classification table (AIII/DIII/BDI/CI) exact")


def test_criterion_12_rank_one_probe():
    sv_worst = 0.0
    hypotheses = []
    for r in (0.25, 1.0):
        rep = run_rank_one(Q, r, levels=12)
        assert rep.passed, rep.residuals
        hypotheses.append(tuple(rep.info["matching_hypotheses"]))
        # (a) coideal vs KZ singular values at the matched parameter
        for lam in (0.5, 1.0, 2.0):
            fam = CoidealRankOneFamily(Q, t_of_lambda(lam, Q))
            sv_c = sorted(np.linalg.svd(fam.braid(fam.v), compute_uv=False))
            hbar = -1j * math.log(Q) / math.pi
            sv_k = sorted(np.linalg.svd(kz_braid(split_tensors(), lam, 1, hbar),
                                        compute_uv=False))
            sv_worst = max(sv_worst,
                           max(abs(a - b) for a, b in zip(sv_c, sv_k)))
            lam_rec = lambda_from_trace(fam.braid(fam.v), Q)
            sv_worst = max(sv_worst, min(abs(g - lam) for g in lam_rec))
    consistent = len(set(hypotheses)) == 1 and len(hypotheses[0]) == 1
    ok = sv_worst < 1e-8 and consistent
    _line(12, ok, f"coideal/KZ spectral match {sv_worst:.2e} (<1e-8); "
                  f"matching hypothesis across r: {hypotheses[0]}")
