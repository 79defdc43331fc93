import itertools
import math

import numpy as np
import pytest

from qsp.coideal import (
    Character,
    CoidealModule,
    kmatrix_solve,
    ribbon_compose,
)
from module_helpers import reference_vogan_axioms
from qsp.blocks import WeightBlocks
from qsp.errors import InputError, ResourceError
import qsp.harness
import qsp.vogan10
from qsp.harness import (
    AXIOM_MIN_LEVELS,
    SNAP_REL,
    CoidealRankOneFamily,
    Report,
    _cylinder_coideal,
    check_cylinder_coideal,
    check_octagon_coideal,
    check_ribbon_coideal,
    chi_n_value,
    lambda_from_trace,
    lambda_of_t,
    octagon_characters,
    run_axioms,
    run_kz_suite,
    run_rank_one,
    scalar_deviation,
    t_of_lambda,
    vogan_axioms,
)
from qsp.rmatrix import op_on_legs, r21, rmat
from qsp.rootsys import build_root_datum
from qsp.uqrep import QParams, build_irrep, tensor
from qsp.vogan10 import (
    build_Mr,
    coaction_tensor,
    e_matrix,
    interior_indices,
    nu_module,
)

Q = 0.7


def test_report_pass_semantics():
    rep = Report("x", {}, {"a": 1e-12, "b": 2e-3}, {"a": 1e-9, "b": 1e-2})
    assert rep.passed
    rep2 = Report("x", {}, {"a": 1e-6}, {"a": 1e-9})
    assert not rep2.passed
    js = rep.to_json()
    assert js["pass"] and "residuals" in js


def test_lambda_from_trace_roundtrip():
    for lam in (0.5, 1.0, 2.0):
        fam = CoidealRankOneFamily(Q, t_of_lambda(lam, Q))
        c = fam.braid(fam.v)
        got = lambda_from_trace(c, Q)
        assert min(abs(g - lam) for g in got) < 1e-9
        assert got[0] == -got[1]


def test_lambda_from_trace_scalar_flagged():
    with pytest.raises(InputError):
        lambda_from_trace(0.1 * np.eye(2), Q)


def test_t_lambda_inverse():
    for lam in (0.3, 1.7):
        t = t_of_lambda(lam, Q)
        assert t == pytest.approx(
            Q ** -0.5 * (Q ** -lam - Q ** lam) / (1 / Q - Q))
    assert t_of_lambda(0.0, Q) == 0.0


def test_lambda_of_t_inverts_t_of_lambda():
    for q in (0.2, 0.7, 0.95):
        for lam in (-1.3, 0.0, 0.25, 1.0, 2.0, 4.5):
            assert lambda_of_t(t_of_lambda(lam, q), q) == pytest.approx(
                lam, rel=1e-12, abs=1e-12)
        for t in (0.1, 0.8, 2.0):
            assert t_of_lambda(lambda_of_t(t, q), q) == pytest.approx(
                t, rel=1e-12)


def test_chi_n_value_recursion():
    # chi_0 at lambda equals the ev_{it} value i t
    lam = 0.9
    assert chi_n_value(0, lam, Q) == pytest.approx(1j * t_of_lambda(lam, Q))


@pytest.fixture(scope="module")
def fam():
    return CoidealRankOneFamily(Q, 0.3)


def test_coideal_octagon(fam):
    v = fam.module(1)
    assert check_octagon_coideal(fam, v, v) < 1e-9
    assert check_octagon_coideal(fam, fam.module(2), v) < 1e-9


@pytest.mark.parametrize("q", [0.2, 0.4, 0.6, 0.8, 0.95])
def test_octagon_characters_lie_at_their_closed_form(q):
    for t in (0.1, 0.8, 2.0):
        fam = CoidealRankOneFamily(q, t)
        lam = lambda_of_t(t, q)
        for twice_spin in range(1, 9):
            m = fam.module(twice_spin)
            closed = [chi_n_value(n, lam, q)
                      for n in range(-twice_spin, twice_spin + 1, 2)]
            b_mat = fam.x0.generator_matrices(m)[("B", 1)]
            raw = sorted(np.linalg.eigvals(b_mat), key=lambda z: z.imag)
            for got, want in zip(raw, sorted(closed, key=lambda z: z.imag)):
                assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
            pairs, dist, unsnapped = octagon_characters(fam, m)
            assert unsnapped == 0 and dist <= SNAP_REL
            # n = 0 snaps to the counit value i t itself
            snapped = [1j * t if n == 0 else chi for n, chi in
                       zip(range(-twice_spin, twice_spin + 1, 2), closed)]
            assert sorted(chi.imag for _, chi in pairs) == \
                sorted(chi.imag for chi in snapped)


def _octagon_raw_characters(fam, m1, m2):
    """The octagon check with the raw eigenvalues of B as characters."""
    composite = ribbon_compose(fam.diag, np.eye(m1.dim), m1, fam.braid(m2), m2)
    b_mat = fam.x0.generator_matrices(m1)[("B", 1)]
    evals, evecs = np.linalg.eig(b_mat)
    worst = 0.0
    for c in range(len(evals)):
        vec = evecs[:, c] / np.linalg.norm(evecs[:, c])
        chi_mod = CoidealModule(fam.diag, fam.params, fam.qp,
                                Character({1: complex(evals[c])}, {1: 0.0}))
        eta_c = kmatrix_solve(fam.diag, fam.params, fam.qp, chi_mod, m2,
                              fuse_from=fam.v)
        lift = np.kron(vec.reshape(-1, 1), np.eye(m2.dim))
        block = lift.conj().T @ composite @ lift
        diff = min(np.linalg.norm(block - eta_c), np.linalg.norm(block + eta_c))
        worst = max(worst, diff / max(np.linalg.norm(eta_c), 1e-30))
    return worst


@pytest.mark.parametrize("q, t", [(0.6, 2.0), (0.9, 0.1)])
def test_octagon_snapped_matches_raw_characters(q, t):
    fam = CoidealRankOneFamily(q, t)
    for a in range(1, 5):
        for b in range(1, 5):
            m1, m2 = fam.module(a), fam.module(b)
            got = check_octagon_coideal(fam, m1, m2)
            want = _octagon_raw_characters(fam, m1, m2)
            assert abs(got - want) <= 1e-12, (a, b, got, want)


# the (q, t) grid of the coideal-fusion benchmark workload
CO_GRID = [(q, t) for q in (0.6, 0.7, 0.8, 0.9)
           for t in (0.1, 0.3, 0.5, 0.8, 1.4, 2.0)]


@pytest.mark.parametrize("q, t", CO_GRID)
def test_octagon_zero_character_is_the_counit_value(q, t):
    # chi_n_value(0, lambda_of_t(t, q), q) misses i t by a last bit at most
    # of these points; the snapped n = 0 value is the family's own i t
    fam = CoidealRankOneFamily(q, t)
    for twice_spin in (2, 4):
        m1 = fam.module(twice_spin)
        values = [chi for _, chi in octagon_characters(fam, m1)[0]]
        near = min(values, key=lambda chi: abs(chi - 1j * t))
        assert near == 1j * t and near == fam.params.s[1]
        got = check_octagon_coideal(fam, m1, fam.v)
        want = _octagon_raw_characters(fam, m1, fam.v)
        assert abs(got - want) <= 1e-12, (twice_spin, got, want)


def test_run_axioms_reports_character_snap():
    rep = run_axioms("coideal", Q, t=0.3)
    assert 0.0 <= rep.info["octagon-character-snap"] <= SNAP_REL
    assert rep.info["octagon-characters-unsnapped"] == 0
    assert rep.passed


def test_coideal_ribbon(fam):
    v = fam.module(1)
    assert check_ribbon_coideal(fam, v, v) < 1e-9
    assert check_ribbon_coideal(fam, fam.module(2), v) < 1e-9


def test_coideal_cylinder(fam):
    v = fam.module(1)
    res = check_cylinder_coideal(fam, v, v)
    assert max(res.values()) < 1e-9


# The cylinder right sides in their braided form, kept as the reference:
# beta = P R maps A ox B onto B ox A, so the middle factors act on X ox V ox U.

def _beta_ref(ma, mb):
    """P R(A, B): the rows of R reordered from A ox B to B ox A."""
    return rmat(ma, mb).matrix.reshape(ma.dim, mb.dim, -1) \
        .transpose(1, 0, 2).reshape(ma.dim * mb.dim, -1)


def _cylinder_rhs1_ref(theta_u, theta_v, m1, m2, x0d, twist):
    """(X . beta_{V,U}) (theta_V ox U) (X . beta_{U,sV}) (theta_U ox sV)."""
    tv = twist(m2)
    step1 = np.kron(theta_u, np.eye(m2.dim))
    b_usv = np.kron(np.eye(x0d), _beta_ref(m1, tv))
    step3 = op_on_legs(theta_v, [x0d, m2.dim, m1.dim], (0, 1))
    b_vu = np.kron(np.eye(x0d), _beta_ref(m2, m1))
    return b_vu @ step3 @ b_usv @ step1


def _cylinder_rhs2_ref(theta_u, theta_v, m1, m2, x0d, twist):
    """(theta_U ox V) (X . beta_{V,sU}) (theta_V ox sU) (X . beta_{sU,sV})."""
    tu, tv = twist(m1), twist(m2)
    b_ss = np.kron(np.eye(x0d), _beta_ref(tu, tv))
    step2 = op_on_legs(theta_v, [x0d, m2.dim, m1.dim], (0, 1))
    b_vsu = np.kron(np.eye(x0d), _beta_ref(m2, tu))
    step4 = np.kron(theta_u, np.eye(m2.dim))
    return step4 @ b_vsu @ step2 @ b_ss


@pytest.mark.parametrize("spins", [(1, 1), (1, 2), (2, 1), (1, 3)])
@pytest.mark.parametrize("q", [0.6, 0.95])
def test_coideal_cylinder_sides_match_braided_form(q, spins):
    fam = CoidealRankOneFamily(q, 0.3)
    m1, m2 = (fam.module(s) for s in spins)
    theta_u, theta_v = fam.braid(m1), fam.braid(m2)
    theta_uv, rhs1, rhs2 = _cylinder_coideal(fam, m1, m2)
    np.testing.assert_array_equal(theta_uv, fam.braid_on_tensor(m1, m2))
    for got, ref in ((rhs1, _cylinder_rhs1_ref), (rhs2, _cylinder_rhs2_ref)):
        want = ref(theta_u, theta_v, m1, m2, 1, lambda m: m)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the first side is the ribbon composite of the coideal braids
    ribbon = ribbon_compose(fam.diag, theta_u, m1, theta_v, m2)
    np.testing.assert_array_equal(rhs1, ribbon)
    # the same products as the factors placed on X0 ox U ox V, whose X0
    # leg has dimension 1
    dims = [1, m1.dim, m2.dim]
    th_u = op_on_legs(theta_u, dims, (0, 1))
    th_v = op_on_legs(theta_v, dims, (0, 2))
    r21_23 = op_on_legs(r21(m1, m2), dims, (1, 2))
    r_23 = op_on_legs(rmat(m1, m2).matrix, dims, (1, 2))
    np.testing.assert_array_equal(rhs1, r21_23 @ th_v @ r_23 @ th_u)
    np.testing.assert_array_equal(rhs2, th_u @ r21_23 @ th_v @ r_23)


def test_vogan_checks():
    qp = QParams(Q)
    datum = build_root_datum([("A", 1)])
    m = build_Mr(0.25, qp, 14)
    v = build_irrep(datum, datum.weight([1]), qp)
    assert max(vogan_axioms(m, v, v, qp)[0].values()) < 1e-9


# The dense Vogan checks the weight blocks replaced, kept as the reference:
# every composite a (4 levels)^2 matrix, every factor placed on its legs by
# op_on_legs and the interior cut out by index.

def _mask_ref(mat, module, n_uq_legs_dim):
    idx = interior_indices(module, n_uq_legs_dim, 4)
    return mat[np.ix_(idx, idx)]


def _ratio_ref(diff, ref, module, cut_dim):
    return np.linalg.norm(_mask_ref(diff, module, cut_dim)) / max(
        np.linalg.norm(_mask_ref(ref, module, cut_dim)), 1e-30)


def _octagon_dense(module, m1, m2, qp):
    lhs = e_matrix(coaction_tensor(module, m1), m2, qp)
    dims = [module.dim, m1.dim, m2.dim]
    r32 = op_on_legs(r21(m1, m2), dims, (1, 2))
    e13 = op_on_legs(e_matrix(module, m2, qp), dims, (0, 2))
    rtw23 = op_on_legs(rmat(m1, nu_module(m2)).matrix, dims, (1, 2))
    return lhs, r32 @ e13 @ rtw23


def _ribbon_dense(module, m1, m2, qp):
    lhs = e_matrix(module, tensor(m1, m2), qp)
    rhs = e_matrix(coaction_tensor(module, m1), m2, qp) \
        @ op_on_legs(e_matrix(module, m1, qp),
                     [module.dim, m1.dim, m2.dim], (0, 1))
    return lhs, rhs


def _cylinder_dense(module, m1, m2, qp):
    theta_u = e_matrix(module, m1, qp)
    theta_v = e_matrix(module, m2, qp)
    theta_uv = e_matrix(module, tensor(m1, m2), qp)
    rhs1 = _cylinder_rhs1_ref(theta_u, theta_v, m1, m2, module.dim, nu_module)
    rhs2 = _cylinder_rhs2_ref(theta_u, theta_v, m1, m2, module.dim, nu_module)
    return theta_uv, rhs1, rhs2


def _vogan_residuals_dense(module, m1, m2, qp):
    cut = m1.dim * m2.dim
    out = {}
    for key, sides in (("EqOct2", _octagon_dense(module, m1, m2, qp)),
                       ("EqRB2", _ribbon_dense(module, m1, m2, qp))):
        lhs, rhs = sides
        out[key] = _ratio_ref(lhs - rhs, rhs, module, cut)
    theta_uv, rhs1, rhs2 = _cylinder_dense(module, m1, m2, qp)
    out["cyl-tw-eq"] = _ratio_ref(theta_uv - rhs1, theta_uv, module, cut)
    out["cyl-tw-eq-2"] = _ratio_ref(theta_uv - rhs2, theta_uv, module, cut)
    out["cyl-rhs-agree"] = _ratio_ref(rhs1 - rhs2, theta_uv, module, cut)
    return out


@pytest.mark.parametrize("levels", [5, 14, 60, 80])
@pytest.mark.parametrize("q", [0.5, 0.7, 0.9, 0.95, 0.97])
def test_vogan_blocks_match_dense_reference(q, levels):
    qp = QParams(q)
    datum = build_root_datum([("A", 1)])
    v = build_irrep(datum, datum.weight([1]), qp)
    for r in (0.1, 1.3):
        m = build_Mr(r, qp, levels)
        blocks = vogan_axioms(m, v, v, qp)[1]
        dense = [*_octagon_dense(m, v, v, qp), *_ribbon_dense(m, v, v, qp),
                 *_cylinder_dense(m, v, v, qp)]
        for got, want in zip(blocks, dense):
            assert got.off_block == 0.0
            assert np.linalg.norm(got.dense() - want) \
                <= 1e-12 * np.linalg.norm(want), r
        got = vogan_axioms(m, v, v, qp)[0]
        want = _vogan_residuals_dense(m, v, v, qp)
        assert list(got) == list(want)
        for key, val in want.items():
            assert abs(got[key] - val) <= max(0.01 * val, 1e-15), \
                (r, key, got[key], val)


def test_vogan_axioms_need_an_interior():
    # the mask drops the top four levels: below five nothing is checked
    for levels in range(2, AXIOM_MIN_LEVELS):
        with pytest.raises(InputError):
            run_axioms("vogan", 0.7, levels=levels)
    assert run_axioms("vogan", 0.7, levels=AXIOM_MIN_LEVELS).passed


def test_vogan_axioms_build_each_braid_once(monkeypatch):
    # a braid build indexes its product once; on the Vogan axioms nothing
    # else in vogan10 does
    built = []
    index = qsp.vogan10.product_blocks

    def counting(*legs):
        built.append(tuple(leg.dim for leg in legs))
        return index(*legs)

    monkeypatch.setattr(qsp.vogan10, "product_blocks", counting)
    run_axioms("vogan", 0.96, levels=20, r=0.5)
    # M ox V, (M ox V) ox V and M ox (V ox V)
    assert sorted(built) == [(20, 2), (20, 4), (40, 2)]


def test_vogan_axioms_report_their_blocks():
    rep = run_axioms("vogan", 0.95, levels=30, r=0.1)
    # weights -r - 2 .. -r + 2 levels on M ox V ox V, blocks of size 1, 3, 4
    assert rep.info["vogan-weight-blocks"] == 32
    assert rep.info["vogan-largest-block"] == 4
    assert rep.info["vogan-off-block-max"] == 0.0


@pytest.mark.parametrize("spins", [(1, 2), (2, 1), (1, 3)])
@pytest.mark.parametrize("q", [0.7, 0.95])
def test_vogan_cylinder_on_unequal_modules_matches_dense_reference(q, spins):
    # the braided reference passes through M ox V ox U, on other weight
    # blocks; the weight-block sides never leave M ox U ox V
    qp = QParams(q)
    datum = build_root_datum([("A", 1)])
    m1, m2 = (build_irrep(datum, datum.weight([s]), qp) for s in spins)
    m = build_Mr(0.25, qp, 14)
    for got, want in zip(vogan_axioms(m, m1, m2, qp)[1][4:],
                         _cylinder_dense(m, m1, m2, qp)):
        assert got.off_block == 0.0
        assert np.linalg.norm(got.dense() - want) \
            <= 1e-12 * np.linalg.norm(want)
    got = vogan_axioms(m, m1, m2, qp)[0]
    want = _vogan_residuals_dense(m, m1, m2, qp)
    for key in ("cyl-tw-eq", "cyl-tw-eq-2", "cyl-rhs-agree"):
        assert abs(got[key] - want[key]) <= max(0.01 * want[key], 1e-15), key


_SPIN_PAIRS = [(1, 1), (1, 2), (2, 1), (1, 3)]


@pytest.mark.parametrize("q", [0.5, 0.7, 0.83, 0.95, 0.97])
def test_vogan_axioms_match_the_three_builders_bit_for_bit(q):
    # one product index and each factor placed once, against the three
    # builders it replaced; where they gave NaN it raises ResourceError
    qp = QParams(q)
    datum = build_root_datum([("A", 1)])
    raised = []
    for spins in _SPIN_PAIRS:
        m1, m2 = (build_irrep(datum, datum.weight([s]), qp) for s in spins)
        for r, levels in itertools.product((0.1, 0.25, 1.3), (5, 14, 60, 80)):
            m = build_Mr(r, qp, levels)
            try:
                got, sides = vogan_axioms(m, m1, m2, qp)
            except ResourceError:
                raised.append((spins, r, levels))
                continue
            want, ref_sides = reference_vogan_axioms(m, m1, m2, qp)
            assert list(got.items()) == list(want.items())
            assert len(sides) == len(ref_sides) == 7
            for side, ref in zip(sides, ref_sides):
                assert side.data.tobytes() == ref.data.tobytes()
                assert side.off_block == ref.off_block
    assert raised == ([((1, 3), r, 80) for r in (0.1, 0.25, 1.3)]
                      if q == 0.5 else [])


def test_vogan_axioms_place_each_factor_once(monkeypatch):
    qp = QParams(0.9)
    datum = build_root_datum([("A", 1)])
    v = build_irrep(datum, datum.weight([1]), qp)
    m = build_Mr(0.25, qp, 20)
    vogan_axioms(m, v, v, qp)   # builds and keeps the braids
    calls = []

    def counting(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("product_blocks", "leg_blocks", "e_matrix"):
        monkeypatch.setattr(qsp.harness, name,
                            counting(name, getattr(qsp.harness, name)))
    monkeypatch.setattr(WeightBlocks, "__matmul__",
                        counting("matmul", WeightBlocks.__matmul__))
    vogan_axioms(m, v, v, qp)
    assert {name: calls.count(name) for name in set(calls)} == {
        "product_blocks": 1, "leg_blocks": 6, "e_matrix": 2, "matmul": 7}


@pytest.mark.parametrize("q, levels", [(0.5, 200), (0.5, 280)])
def test_vogan_axioms_past_double_precision_raise_resource_error(q, levels):
    # at 200 levels the masked norms overflow, at 280 the braid blocks;
    # neither is a NaN residual or a RuntimeWarning
    with pytest.raises(ResourceError, match="overflow"):
        run_axioms("vogan", q, r=0.1, levels=levels)


def test_axiom_suites_pass():
    for source, kw in (("coideal", {"t": 0.3}), ("kz", {"t": 1.0}),
                       ("vogan", {"r": 0.25})):
        rep = run_axioms(source, Q, **kw)
        assert rep.passed, (source, rep.residuals)


def test_axiom_unknown_source():
    with pytest.raises(InputError):
        run_axioms("nope", Q)


def test_kz_suite():
    rep = run_kz_suite(Q)
    assert rep.passed, rep.residuals


def test_rank_one_probe():
    rep = run_rank_one(Q, 0.25)
    assert rep.passed, rep.residuals
    assert rep.info["matching_hypotheses"] == ["r+1"]
    assert rep.info["lambda_of_r"] == pytest.approx(1.25)
    assert rep.info["fusion"] == {"-1.25": 1, "0.75": 1}


def test_scalar_deviation_counts_nonfinite_as_inf():
    scal = {-1.25: (2.0, None), 0.75: (2.5, 0.5), 2.75: (2.0, 0.25)}
    assert scalar_deviation(scal, 2.0, 0.5) == 0.5
    for bad in (float("nan"), complex("nan+0j"), float("inf")):
        assert scalar_deviation({**scal, 4.75: (bad, 0.5)}, 2.0, 0.5) \
            == math.inf
        assert scalar_deviation({**scal, 4.75: (2.0, bad)}, 2.0, 0.5) \
            == math.inf


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_rank_one_probe_over_levels(q):
    for r in (0.1, 0.25, 1.3):
        for levels in (5, 20, 60, 360):
            if q <= 0.3 and levels == 360:   # the F ladder overflows
                with pytest.raises(ResourceError):
                    run_rank_one(q, r, levels)
                continue
            rep = run_rank_one(q, r, levels)
            assert rep.passed, (r, levels, rep.residuals)
            assert rep.info["vogan-nonfinite-scalars"] == 0


def test_run_all_aggregates():
    from module_helpers import reports_to_json, run_all
    import json
    reports = run_all(q=0.7, r=0.25, levels=10)
    assert len(reports) == 5
    assert all(rep.passed for rep in reports)
    payload = json.loads(reports_to_json(reports))
    assert {p["case"] for p in payload} == {
        "axioms[coideal]", "axioms[kz]", "axioms[vogan]", "kz-suite",
        "rank-one"}


def test_rank_one_fusion_q_independent():
    rep1 = run_rank_one(0.7, 1.0, levels=10)
    rep2 = run_rank_one(0.55, 1.0, levels=10)
    assert rep1.info["fusion"] == rep2.info["fusion"]
    assert rep1.info["matching_hypotheses"] == rep2.info["matching_hypotheses"]


def test_residual_keys_are_paper_tags():
    # every residual key carries a recognizable equation tag
    known = ("EqOct2", "EqRB2", "eq:Eg", "eq:RTKZ", "cyl-", "flatness",
             "sv[", "eig[", "trace-lambda", "vogan-", "exactly-one",
             "fusion", "character")
    for source, kw in (("coideal", {"t": 0.3}), ("kz", {}), ("vogan", {})):
        rep = run_axioms(source, Q, **kw)
        for key in rep.residuals:
            assert any(key.startswith(tag) or tag in key for tag in known), key
    rep = run_rank_one(Q, 0.25, levels=10)
    for key in rep.residuals:
        assert any(key.startswith(tag) or tag in key for tag in known), key


@pytest.mark.parametrize("q, t", [(0.7, 0.3), (0.9, 1.4), (0.6, 2.0)])
def test_coideal_axioms_at_high_spin(q, t):
    # derived braids reach these spins by fusion from the fundamental module
    fam = CoidealRankOneFamily(q, t)
    for twice_spin in (9, 10, 12):
        u = fam.module(twice_spin)
        assert check_octagon_coideal(fam, fam.v, u) < 1e-9
        assert check_ribbon_coideal(fam, fam.v, u) < 1e-9
        assert max(check_cylinder_coideal(fam, fam.v, u).values()) < 1e-9
