import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, schur

from qsp.blocks import pattern_blocks
from qsp.errors import (AccuracyError, InputError, ResonanceError,
                        ResourceError)
from qsp import kzmono
from qsp.harness import TOL_ODE
from qsp.kzmono import (
    _PSI_MEMO,
    _RESIDUE_MEMO,
    ATOL,
    DELTA,
    MATCH_POINTS,
    RTOL,
    SIGMA,
    TAIL_TARGET,
    MonodromyProblem,
    _decompose,
    _expm,
    _herm_form,
    _hermitian,
    _job_at_one,
    _job_at_zero,
    _orthonormalize,
    _psi_key,
    _resonant_pairs,
    _rhs_ode,
    _star_coeffs,
    _sylvester_series,
    a02_coeff,
    d_coeff,
    flatness_residuals,
    kz_braid,
    kz_coeffs,
    leg_coeff,
    mkz_consistency,
    psi,
    psi_commuting_oracle,
    psi_pairs,
    resonance_check,
    spin_matrices,
    split_tensors,
    verify_eg,
    verify_octagon_kz,
)
from qsp.uqrep import intertwiners

TS = split_tensors()


def hbar_of(q):
    return -1j * math.log(q) / math.pi


def test_spin_matrices_relations():
    for j2 in (1, 2, 3):
        e, f, h = spin_matrices(j2)
        np.testing.assert_allclose(h @ e - e @ h, 2 * e, atol=1e-12)
        np.testing.assert_allclose(e @ f - f @ e, h, atol=1e-12)
        np.testing.assert_allclose(e.T, f, atol=1e-12)


def test_split_tensors_golden():
    e, f, h = TS.rep(1)
    np.testing.assert_allclose(TS.t_k(1, 1), -np.kron(f - e, f - e) / 2,
                               atol=1e-14)
    np.testing.assert_allclose(
        TS.t_m(1, 1), np.kron(h, h) / 2 + np.kron(e + f, e + f) / 2,
        atol=1e-14)
    np.testing.assert_allclose(
        TS.t_full(1, 1),
        np.kron(e, f) + np.kron(f, e) + np.kron(h, h) / 2, atol=1e-14)


def test_t_splits():
    for j2a, j2b in [(1, 1), (1, 2), (2, 2)]:
        np.testing.assert_allclose(
            TS.t_full(j2a, j2b), TS.t_k(j2a, j2b) + TS.t_m(j2a, j2b),
            atol=1e-13)


def test_casimir_on_fundamental():
    # full Casimir t-contraction acts as (varpi, varpi + 2rho) = 3/2
    e, f, h = TS.rep(1)
    cas = e @ f + f @ e + h @ h / 2
    np.testing.assert_allclose(cas, 1.5 * np.eye(2), atol=1e-13)


def _bracket(x, y):
    """[x, y] of coefficient vectors over (e, f, h), from [h,e] = 2e,
    [h,f] = -2f and [e,f] = h."""
    e1, f1, h1 = x
    e2, f2, h2 = y
    return np.array([2 * (h1 * e2 - e1 * h2), -2 * (h1 * f2 - f1 * h2),
                     e1 * f2 - f1 * e2])


def test_sigma_is_an_involutive_star_automorphism():
    np.testing.assert_array_equal(SIGMA @ SIGMA, np.eye(3))
    e, f, h = np.eye(3)
    assert np.array_equal(_bracket(h, e), 2 * e)
    assert np.array_equal(_bracket(h, f), -2 * f)
    assert np.array_equal(_bracket(e, f), h)
    for x in np.eye(3):
        for y in np.eye(3):
            np.testing.assert_array_equal(SIGMA @ _bracket(x, y),
                                          _bracket(SIGMA @ x, SIGMA @ y))
        np.testing.assert_array_equal(_star_coeffs(SIGMA @ x),
                                      SIGMA @ _star_coeffs(x))


def test_sigma_involutive_and_conjugation():
    for j2 in (0, 1, 2, 3, 4):
        s = TS.sigma_matrix(j2)
        np.testing.assert_allclose(s @ s, np.eye(j2 + 1), atol=1e-12)
        e, f, h = TS.rep(j2)
        np.testing.assert_allclose(s @ e @ np.linalg.inv(s), -f, atol=1e-10)
        np.testing.assert_allclose(s @ h @ np.linalg.inv(s), -h, atol=1e-10)


def test_kz_coeffs_skew_hermitian():
    a, bp, bm = kz_coeffs(TS, 0.7, 1, 2, hbar_of(0.7))
    for m in (a, bp, bm):
        assert np.linalg.norm(m + m.conj().T) < 1e-12
    with pytest.raises(InputError):
        kz_coeffs(TS, 0.7, 1, 1, 0.3)


def test_d_commutes(q=0.7):
    a, bp, bm = kz_coeffs(TS, 1.0, 1, 1, hbar_of(q))
    d = d_coeff(TS, 1.0, 1, 1, hbar_of(q))
    for m in (a, bp, bm):
        assert np.linalg.norm(d @ m - m @ d) < 1e-12


def _resonance_loop(mat, tol=1e-6):
    """The double loop resonance_check replaced, kept as the reference."""
    evals = np.linalg.eigvals(mat)
    flags = []
    for i in range(len(evals)):
        for j in range(len(evals)):
            diff = evals[i] - evals[j]
            nearest = round(diff.real)
            if nearest != 0 and abs(diff - nearest) < tol:
                flags.append((i, j, nearest))
    return flags


@pytest.mark.parametrize("spectrum", [
    [0.3, 1.3, 2.3 + 1e-8, -0.7, 5.0],          # resonant chain
    [0.5, 0.5, 0.5, 1.5, 1.5],                  # degenerate, resonant
    [0.5, 0.5, 2.0 + 0.5j, 2.0 + 0.5j],         # degenerate only
    [0.1, 0.35, 0.6 + 0.2j, -0.9, 2.45],        # distinct
    [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],             # half-integer ties
])
def test_resonance_check_matches_double_loop(spectrum):
    rng = np.random.default_rng(len(spectrum))
    basis = rng.normal(size=(len(spectrum),) * 2)
    mat = basis @ np.diag(spectrum) @ np.linalg.inv(basis)
    got = resonance_check(mat)
    assert got == _resonance_loop(mat)
    assert all(type(x) is int for flag in got for x in flag)


def test_resonance_check():
    flags = resonance_check(np.diag([0.3, 1.3]))
    assert (1, 0, 1) in flags and len(flags) == 2  # both orderings reported
    assert resonance_check(np.diag([0.3, 0.9])) == []
    assert resonance_check(np.diag([0.5, 0.5])) == []  # zero difference ok


def test_psi_resonant_error():
    a = np.diag([0.0, 1.0])
    z = np.zeros((2, 2))
    with pytest.raises(ResonanceError):
        psi(MonodromyProblem(a, z, z))


def test_commuting_case():
    rng = np.random.default_rng(7)
    mats = [np.diag(rng.normal(size=3) * 0.4) for _ in range(3)]
    prob = MonodromyProblem(*mats)
    res = psi(prob)
    assert np.linalg.norm(res.psi - psi_commuting_oracle(prob)) < 1e-9
    assert res.spread < 1e-6


def test_zero_coefficients():
    z = np.zeros((3, 3))
    res = psi(MonodromyProblem(z, z, z))
    np.testing.assert_allclose(res.psi, np.eye(3), atol=1e-12)


def test_unitarity_skew_hermitian():
    a, bp, bm = kz_coeffs(TS, 1.2, 1, 1, hbar_of(0.55))
    res = psi(MonodromyProblem(a, bp, bm))
    n = a.shape[0]
    assert np.linalg.norm(res.psi.conj().T @ res.psi - np.eye(n)) < 1e-8


def test_shift_invariance():
    # Psi(a + D, b+, b-) = Psi(a, b+, b-) for D commuting with everything
    a, bp, bm = kz_coeffs(TS, 0.6, 1, 1, hbar_of(0.7))
    d = d_coeff(TS, 0.6, 1, 1, hbar_of(0.7))
    p1 = psi(MonodromyProblem(a, bp, bm)).psi
    p2 = psi(MonodromyProblem(a + d, bp, bm)).psi
    assert np.linalg.norm(p1 - p2) < 1e-7


def test_match_point_independence_reported():
    a, bp, bm = kz_coeffs(TS, 0.9, 1, 1, hbar_of(0.6))
    res = psi(MonodromyProblem(a, bp, bm))
    assert res.spread < 1e-6


def test_mkz_cross_route():
    a, bp, bm = kz_coeffs(TS, 0.8, 1, 1, hbar_of(0.7))
    assert mkz_consistency(MonodromyProblem(a, bp, bm)) < 1e-8


def _eigenbasis_series(res_mat, rhs_fn, order):
    """The eigenvector-basis Sylvester solver the Schur solve replaced, with
    the full re-summed right-hand sides, kept as the reference."""
    n = res_mat.shape[0]
    evals, vecs = np.linalg.eig(res_mat)
    vinv = np.linalg.inv(vecs)
    coeffs = [np.eye(n, dtype=complex)]
    for m in range(1, order + 1):
        rt = vinv @ rhs_fn(m, coeffs) @ vecs
        denom = m - evals[:, None] + evals[None, :]
        coeffs.append(vecs @ (rt / denom) @ vinv)
    return coeffs


def _reference_series(prob, orders):
    """Coefficients of the series at 0 and at 1 up to the given orders."""
    a, bp, bm = prob.a, prob.b_plus, prob.b_minus

    def rhs0(m, coeffs):
        return sum(((-1) ** (m - 1 - k) * bm - bp) @ coeffs[k]
                   for k in range(m))

    def rhs1(m, coeffs):
        return sum(-(a + 2.0 ** (-(m - k)) * bm) @ coeffs[k]
                   for k in range(m))

    return (_eigenbasis_series(a, rhs0, orders[0]),
            _eigenbasis_series(bp, rhs1, orders[1]))


def _horner(coeffs, x):
    """sum c_m x^m by Horner's rule."""
    out = coeffs[-1].copy()
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def _random_nonnormal(rng, n):
    """Upper-triangular-heavy, non-normal, with a spread-out spectrum so the
    eigenbasis reference stays well conditioned."""
    diag = np.diag(rng.uniform(-0.45, 0.45, n) + 1j * rng.uniform(-1, 1, n))
    upper = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
    lower = np.tril(rng.normal(size=(n, n)), -1)
    return diag + 0.3 * upper + 0.02 * lower


def _problems():
    for j2a, j2b in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
        yield f"kz{j2a}x{j2b}", MonodromyProblem(
            *kz_coeffs(TS, 0.8, j2a, j2b, hbar_of(0.7)))
    rng = np.random.default_rng(11)
    for n in (3, 5, 8):
        yield f"nonnormal{n}", MonodromyProblem(
            *[_random_nonnormal(rng, n) for _ in range(3)])


@pytest.mark.parametrize("name,prob", list(_problems()),
                         ids=[name for name, _ in _problems()])
def test_sylvester_series_matches_eigenbasis_reference(name, prob):
    # one batch: the series at 0 summed at +-x, the series at 1 at 1 - x
    jobs = [_job_at_zero(prob, [s * x for s in (1.0, -1.0)
                                for x in MATCH_POINTS]), _job_at_one(prob)]
    index, found = _sylvester_series(jobs, prob.series_order)
    assert not any(isinstance(f, Exception) for f in found)
    refs = _reference_series(prob, [order for _, order, _ in found])
    for (_, z, _, points), (sums, order, tail), ref in zip(jobs, found, refs):
        assert len(sums) == len(points)
        for x, got in zip(points, sums):
            want = _horner(ref, x)
            back = z @ index.scatter(got) @ z.conj().T
            assert np.linalg.norm(back - want) <= 1e-12 * np.linalg.norm(want)
        # the stop rule and the tail bound read the Frobenius norm in the
        # Schur basis
        far = max(abs(x) for x in points)
        tails = [np.linalg.norm(c) * far ** m / (1 - far)
                 for m, c in enumerate(ref)]
        assert np.isclose(tail, tails[-1], rtol=1e-12, atol=0)
        below = [t < TAIL_TARGET for t in tails]
        assert below[-2:] == [True, True]
        assert not any(x and y for x, y in zip(below[:-2], below[1:-1]))


def test_psi_memoised_read_only():
    a, bp, bm = kz_coeffs(TS, 0.45, 1, 1, hbar_of(0.66))
    res = psi(MonodromyProblem(a, bp, bm))
    assert psi(MonodromyProblem(a.copy(), bp.copy(), bm.copy())) is res
    changed = a.copy()
    changed[0, 0] += 1e-9j
    assert psi(MonodromyProblem(changed, bp, bm)) is not res
    with pytest.raises(ValueError):
        res.psi[0, 0] = 0.0


def test_eig_condition_is_residue_eigenvector_condition():
    a, bp, bm = kz_coeffs(TS, 1.0, 2, 3, hbar_of(0.8))
    res = psi(MonodromyProblem(a, bp, bm))
    want = max(np.linalg.cond(np.linalg.eig(m)[1]) for m in (a, bp))
    assert res.eig_condition == pytest.approx(want, rel=1e-12)


def test_tail_control_raises_when_impossible():
    big = 40.0 * np.eye(2)
    z = np.zeros((2, 2))
    with pytest.raises((AccuracyError, ResonanceError)):
        psi(MonodromyProblem(z, big, z, series_order=3))


def _ode_psi(problem):
    """The Runge-Kutta connection matrix the series evaluation replaced,
    kept as the reference: each series summed at distance delta, halved
    until it meets the tail target by order 40, then DOP853 from both ends
    through the sorted match points."""
    from scipy.integrate import solve_ivp

    fn = _rhs_ode(problem)

    def start(job, residue):
        delta = DELTA
        while isinstance((found := _sylvester_series(
                [(*job[:3], [delta])], 40))[1][0], AccuracyError):
            delta /= 2
        index, [((sums,), _, _)] = found
        z = job[1]
        return delta, z @ index.scatter(sums) @ z.conj().T @ expm(
            math.log(delta) * residue)

    def chain(w, h, points):
        out = {}
        for p in points:
            sol = solve_ivp(fn, (w, p), h.reshape(-1), method="DOP853",
                            rtol=RTOL, atol=ATOL)
            assert sol.success, sol.message
            w, h = p, sol.y[:, -1].reshape(h.shape)
            out[p] = h
        return out

    delta0, h0 = start(_job_at_zero(problem, [DELTA]), problem.a)
    delta1, h1 = start(_job_at_one(problem), problem.b_plus)
    points = sorted(MATCH_POINTS)
    h0s = chain(delta0, h0, points)
    h1s = chain(1 - delta1, h1, points[::-1])
    p = MATCH_POINTS[0]
    return np.linalg.solve(h1s[p], h0s[p])


def _psi_cases():
    for q in (0.5, 0.7, 0.9):
        for j2 in (1, 2, 3, 4):
            yield f"kz{j2}x{j2}-q{q}", MonodromyProblem(
                *kz_coeffs(TS, 1.0, j2, j2, hbar_of(q)))
    for name, prob in _problems():
        if name.startswith("nonnormal"):
            yield name, prob


@pytest.mark.parametrize("name,prob", list(_psi_cases()),
                         ids=[name for name, _ in _psi_cases()])
def test_series_psi_matches_ode_chain(name, prob):
    res = psi(prob)
    ref = _ode_psi(prob)
    assert np.linalg.norm(res.psi - ref) <= 1e-9 * np.linalg.norm(ref)
    assert res.tail_bound < TAIL_TARGET
    if name.startswith("kz"):
        assert res.spread < 1e-12


def test_series_order_ceiling_too_low_raises():
    a, bp, bm = kz_coeffs(TS, 1.0, 1, 1, hbar_of(0.7))
    with pytest.raises(AccuracyError, match="series_order"):
        psi(MonodromyProblem(a, bp, bm, series_order=20))
    assert psi(MonodromyProblem(a, bp, bm)).tail_bound < 1e-12


def _mirror_cases():
    for lam in (0.5, 2.0):
        for j2a, j2b in ((1, 2), (3, 3)):
            yield f"kz-lam{lam}-{j2a}x{j2b}", kz_coeffs(TS, lam, j2a, j2b,
                                                        hbar_of(0.8))
    # a non-normal a takes the scipy.linalg.schur route
    rng = np.random.default_rng(11)
    yield "nonnormal3", [_random_nonnormal(rng, 3) for _ in range(3)]


def _same_result(got, want):
    # all five fields of MonodromyResult, bit for bit
    assert got.psi.tobytes() == want.psi.tobytes()
    for name in ("spread", "tail_bound", "eig_condition"):
        assert np.float64(getattr(got, name)).tobytes() \
            == np.float64(getattr(want, name)).tobytes(), name
    assert got.orders == want.orders


@pytest.mark.parametrize("name,coeffs", list(_mirror_cases()),
                         ids=[name for name, _ in _mirror_cases()])
def test_psi_pair_is_psi_on_both_orientations_bit_for_bit(name, coeffs):
    a, bp, bm = coeffs
    _PSI_MEMO.clear()
    singles = [psi(MonodromyProblem(a, bp, bm)),
               psi(MonodromyProblem(a, bm, bp))]
    _PSI_MEMO.clear()
    (pair,) = psi_pairs([a], bp, bm)
    for got, want in zip(pair, singles):
        _same_result(got, want)
    # psi on either orientation now reads the memo
    assert psi(MonodromyProblem(a, bp, bm)) is pair[0]
    assert psi(MonodromyProblem(a, bm, bp)) is pair[1]
    assert all(x is y for x, y in zip(psi_pairs([a], bp, bm)[0], pair))
    # with only the first orientation memoised, the mirror still comes from
    # the series at zero evaluated at -x
    _PSI_MEMO.clear()
    first = psi(MonodromyProblem(a, bp, bm))
    (got,) = psi_pairs([a], bp, bm)
    assert got[0] is first
    _same_result(got[1], singles[1])


def test_psi_pair_memoises_first_orientation_before_mirror_error():
    # b_- is resonant, so only the mirror (a, b_-, b_+) fails its check
    a, bp, bm = np.zeros((2, 2)), np.zeros((2, 2)), np.diag([0.0, 1.0])
    first = MonodromyProblem(a, bp, bm)
    _PSI_MEMO.clear()
    with pytest.raises(ResonanceError, match=r"a -> \[\], "
                       r"b_\+ -> \[\(0, 1, -1\), \(1, 0, 1\)\]"):
        psi_pairs([a], bp, bm)
    res = _PSI_MEMO[_psi_key(first)]
    assert psi(first) is res
    assert np.linalg.norm(res.psi - psi_commuting_oracle(first)) < 1e-12
    with pytest.raises(ResonanceError):
        psi(MonodromyProblem(a, bm, bp))


def _pairs_cases():
    # the mirror cases with c = -a - b_+ - b_-, then the (a, c) and (a, a02)
    # batches of verify_eg and verify_octagon_kz
    for name, (a, bp, bm) in _mirror_cases():
        yield f"{name}-a,c", (a, -a - bp - bm), bp, bm
    for j2 in range(1, 5):
        a, bp, bm = kz_coeffs(TS, 1.0, j2, j2, hbar_of(0.8))
        yield f"kz{j2}x{j2}-a,c", (a, -a - bp - bm), bp, bm
        yield f"kz{j2}x{j2}-a,a02", (
            a, a02_coeff(TS, 1.0, j2, j2, hbar_of(0.8))), bp, bm


@pytest.mark.parametrize("name,residues,bp,bm", list(_pairs_cases()),
                         ids=[case[0] for case in _pairs_cases()])
def test_psi_pairs_is_one_residue_at_a_time_bit_for_bit(name, residues, bp,
                                                         bm):
    singles = []
    for x in residues:
        _PSI_MEMO.clear()
        singles += psi_pairs([x], bp, bm)
    _PSI_MEMO.clear()
    pairs = psi_pairs(residues, bp, bm)
    assert len(pairs) == len(singles) == 2
    for got, want in zip(pairs, singles):
        assert len(got) == 2
        for x, y in zip(got, want):
            _same_result(x, y)
    # a warm memo returns the same results
    again = psi_pairs(residues, bp, bm)
    assert all(x is y for p, q in zip(again, pairs) for x, y in zip(p, q))


def test_psi_pairs_memoises_first_residue_before_resonant_second():
    a, resonant = np.zeros((2, 2)), np.diag([0.0, 1.0])
    bp, bm = np.diag([0.1, 0.3]), np.diag([-0.2, 0.05])
    _PSI_MEMO.clear()
    with pytest.raises(ResonanceError, match=r"a -> \[\(0, 1, -1\), "
                       r"\(1, 0, 1\)\], b_\+ -> \[\]"):
        psi_pairs([a, resonant], bp, bm)
    assert len(_PSI_MEMO) == 2
    for prob in (MonodromyProblem(a, bp, bm), MonodromyProblem(a, bm, bp)):
        res = _PSI_MEMO[_psi_key(prob)]
        assert psi(prob) is res
        assert np.linalg.norm(res.psi - psi_commuting_oracle(prob)) < 1e-12
    for b in ((bp, bm), (bm, bp)):
        assert _psi_key(MonodromyProblem(resonant, *b)) not in _PSI_MEMO


def test_each_kz_identity_runs_one_series_batch(monkeypatch):
    # the jobs per _sylvester_series call: a series at zero per residue and
    # a series at one per orientation not yet memoised
    series, calls = kzmono._sylvester_series, []

    def counted(jobs, order):
        calls.append(len(jobs))
        return series(jobs, order)

    def jobs_of(fn, *args):
        calls.clear()
        fn(*args)
        return list(calls)

    monkeypatch.setattr(kzmono, "_sylvester_series", counted)
    point = (TS, 1.0, 2, 2, hbar_of(0.8))
    coeffs = kz_coeffs(*point)
    _PSI_MEMO.clear()
    assert jobs_of(verify_eg, *coeffs) == [6]
    _PSI_MEMO.clear()
    assert jobs_of(verify_octagon_kz, *point) == [6]
    # after verify_eg, only a02's pair is left: its series at zero and its
    # two series at one
    _PSI_MEMO.clear()
    assert jobs_of(verify_eg, *coeffs) == [6]
    assert jobs_of(verify_octagon_kz, *point) == [3]
    assert jobs_of(verify_eg, *coeffs) == []
    assert jobs_of(verify_octagon_kz, *point) == []


def _cold_peak(fn, *args):
    """The tracemalloc peak of fn(*args) with both memos empty."""
    import tracemalloc

    _PSI_MEMO.clear()
    _RESIDUE_MEMO.clear()
    tracemalloc.start()
    try:
        res = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak


def test_psi_peak_memory_at_twice_spin_eight():
    # no coefficient list is kept: the series are summed as they run, and a
    # batch keeps its matrices and sums only in packed slots
    coeffs = kz_coeffs(TS, 1.0, 8, 8, hbar_of(0.75))
    res, peak = _cold_peak(psi, MonodromyProblem(*coeffs))
    assert res.spread < 1e-6
    assert peak <= 5e6, peak
    # the six series of verify_eg in one batch
    residual, peak = _cold_peak(verify_eg, *coeffs)
    assert math.isfinite(residual)
    assert peak <= 6.0e6, peak


def _per_order_resonance(res_mat, order):
    """The order at which the per-order check |m + gap| < 1e-9, run before
    every order, stopped the series; None when it did not."""
    t = _decompose(res_mat)[0]
    diag = np.diag(t)
    gap = diag[None, :] - diag[:, None]
    for m in range(1, order + 1):
        if np.min(np.abs(m + gap)) < 1e-9:
            return m
    return None


@pytest.mark.parametrize("shift", [1e-10, -1e-10, 1e-10j, 1e-8, -1e-8,
                                   1e-8j])
@pytest.mark.parametrize("base,order,near,far", [
    ((0.0, 3.0), 10, 3, None),            # gap 3 + shift
    ((0.0, 3.0), 2, None, None),          # ... past the last order
    ((0.25, 3.25, 5.25), 10, 2, 2),       # an exact gap 2 comes first
    ((0.0, 2.5, 5.5), 10, 3, 3)])         # exact gap 3, shifted 2.5, 5.5
def test_resonance_order_matches_per_order_reference(shift, base, order,
                                                     near, far):
    # psi's resonance_check would refuse these residues first, so the
    # series is called directly; the shift moves every entry but the first
    a = np.diag([base[0]] + [x + shift for x in base[1:]])
    rng = np.random.default_rng(7)
    bp, bm = (0.1 * rng.normal(size=a.shape) for _ in range(2))
    prob = MonodromyProblem(a, bp, bm, series_order=order)
    want = _per_order_resonance(prob.a, order)
    assert want == (near if abs(shift) < 1e-9 else far)
    _, (found,) = _sylvester_series([_job_at_zero(prob, MATCH_POINTS)],
                                    order)
    if want is None:
        # no resonance: the series runs to its ceiling
        assert isinstance(found, AccuracyError)
        assert f"by order {order};" in str(found)
    else:
        assert isinstance(found, ResonanceError)
        assert f"at order {want} " in str(found)


def test_match_points_inside_the_interval():
    assert all(0 < p < 1 for p in MATCH_POINTS)


@pytest.mark.parametrize("q,lam,j2", [(0.6, 2.0, 3), (0.7, 1.0, 4)])
def test_octagon_walls_moved_by_series_psi(q, lam, j2):
    # ribbon read 1.7e-7 and 2.0e-7 here with the Runge-Kutta psi
    res = verify_octagon_kz(TS, lam, j2, j2, hbar_of(q))
    assert max(res.values()) < 1e-7, res


@pytest.mark.parametrize("q", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_eg_identity(q, lam):
    a, bp, bm = kz_coeffs(TS, lam, 1, 1, hbar_of(q))
    assert verify_eg(a, bp, bm) < 1e-7


@pytest.mark.parametrize("q", [0.5, 0.7, 0.9])
@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_octagon_suite(q, lam):
    res = verify_octagon_kz(TS, lam, 1, 1, hbar_of(q))
    assert res["rtkz"] < 1e-7
    assert res["octagon"] < 1e-7
    assert res["ribbon"] < 1e-7
    assert res["sigma_conj"] < 1e-9


@pytest.mark.parametrize("q", [0.62, 0.93])
def test_octagon_suite_outside_grid_band(q):
    # these q raised "series tail bound not reached" with the eigenvector-
    # basis series (the residue b_+ on 2 ox 2 is degenerate)
    res = verify_octagon_kz(TS, 1.0, 2, 2, hbar_of(q))
    assert res["rtkz"] < 1e-7
    assert res["octagon"] < 1e-7
    assert res["ribbon"] < 1e-7
    assert res["sigma_conj"] < 1e-9


def test_flatness():
    assert max(flatness_residuals(TS, 1.0, [1, 1], hbar_of(0.7)).values()) < 1e-10
    assert max(flatness_residuals(TS, 0.4, [1, 1, 1], hbar_of(0.7)).values()) < 1e-10


def test_kz_braid_golden():
    # q^{-1/2} [[i sinh', cosh'], [-cosh', i sinh']] after composing with g,
    # with sinh' = (q^lam - q^-lam)/2; the bare exponential is the
    # g-precomposed form with the same singular values.  The closed form is
    # in the standard basis of V_{1/2}: the braid is taken there through
    # the leg rotation W_{1/2}
    q, lam = 0.7, 0.8
    w = _leg_rotation(1)
    braid = w @ kz_braid(TS, lam, 1, hbar_of(q)) @ w.conj().T
    g = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sh = (q ** lam - q ** -lam) / 2
    ch = (q ** lam + q ** -lam) / 2
    disp = q ** -0.5 * np.array([[1j * sh, ch], [-ch, 1j * sh]])
    got = braid @ g
    assert min(np.linalg.norm(got - disp), np.linalg.norm(got + disp)) < 1e-12


def test_inner_sigma_in_the_k_weight_basis():
    # harness.run_rank_one composes the KZ braid with diag(i, -i), which is
    # g = [[0, 1], [-1, 0]] of the standard basis seen through W_{1/2}, and
    # i times the implementation of sigma on V_{1/2}
    w = _leg_rotation(1)
    g = np.array([[0.0, 1.0], [-1.0, 0.0]])
    inner = np.diag([1j, -1j])
    assert np.linalg.norm(w.conj().T @ g @ w - inner) < 1e-15
    assert min(np.linalg.norm(1j * sign * TS.sigma_matrix(1) - inner)
               for sign in (1, -1)) < 1e-15


def test_kz_braid_lambda_zero():
    q = 0.7
    braid = kz_braid(TS, 0.0, 1, hbar_of(q))
    np.testing.assert_allclose(braid, q ** -0.5 * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_kz_braid_singular_values(lam):
    q = 0.7
    braid = kz_braid(TS, lam, 1, hbar_of(q))
    sv = sorted(np.linalg.svd(braid, compute_uv=False))
    want = sorted([q ** (lam - 0.5), q ** (-lam - 0.5)])
    np.testing.assert_allclose(sv, want, atol=1e-10)


def kz_braid_commutes_with_k(tensors, lam, j2, hbar):
    """Residual of the braid commuting with the diagonal action of the
    fixed subalgebra."""
    braid = kz_braid(tensors, lam, j2, hbar)
    worst = 0.0
    for val, vec in zip(tensors.character_values(lam), tensors.plus_basis):
        diag = val * np.eye(j2 + 1) + tensors.vec_matrix(vec, j2)
        worst = max(worst, np.linalg.norm(braid @ diag - diag @ braid))
    return worst


def test_kz_braid_commutes_with_k():
    assert kz_braid_commutes_with_k(TS, 0.9, 1, hbar_of(0.7)) < 1e-12
    assert kz_braid_commutes_with_k(TS, 0.9, 2, hbar_of(0.7)) < 1e-12


def _leg_reference(lam, j2):
    """t^k_0 on one spin, assembled independently of kzmono.leg_coeff."""
    tk0 = np.zeros((j2 + 1, j2 + 1), dtype=complex)
    for val, vec in zip(TS.character_values(lam), TS.plus_basis):
        c = _herm_form(_star_coeffs(vec), TS.plus_basis[0])
        tk0 += (c * val) * TS.vec_matrix(vec, j2)
    return tk0


@pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("j2a,j2b", [(1, 1), (1, 2), (2, 3)])
def test_leg_coefficients_unchanged(lam, j2a, j2b):
    hbar = hbar_of(0.7)
    da, db = j2a + 1, j2b + 1
    tk01, tk02 = _leg_reference(lam, j2a), _leg_reference(lam, j2b)
    a = hbar * (2 * np.kron(tk01, np.eye(db))
                + np.kron(TS.casimir_k(j2a), np.eye(db)))
    a02 = hbar * (2 * np.kron(np.eye(da), tk02)
                  + np.kron(np.eye(da), TS.casimir_k(j2b)))
    np.testing.assert_array_equal(kz_coeffs(TS, lam, j2a, j2b, hbar)[0], a)
    np.testing.assert_array_equal(a02_coeff(TS, lam, j2a, j2b, hbar), a02)
    np.testing.assert_array_equal(d_coeff(TS, lam, j2a, j2b, hbar),
                                  a + a02 + 2 * (hbar * TS.t_k(j2a, j2b)))
    braid = _expm(-1j * math.pi * hbar * (2 * tk01 + TS.casimir_k(j2a)))
    np.testing.assert_array_equal(kz_braid(TS, lam, j2a, hbar), braid)


def test_sigma_matrix_on_spin_zero():
    # every generator acts by 0, so the intertwining system is all zero and
    # its kernel is the whole 1 x 1 space
    np.testing.assert_array_equal(TS.sigma_matrix(0), [[1.0]])


# the standard-basis assembly the k-weight basis replaced, kept as the
# reference: the spin matrices of ``spin_matrices`` and LAPACK's eigenvectors
# of SIGMA, orthonormalized for the invariant form

def _standard_split():
    evals, evecs = np.linalg.eig(SIGMA)
    plus, minus = [], []
    for i in range(3):
        (plus if abs(evals[i] - 1) < 1e-9 else minus).append(evecs[:, i])
    return _orthonormalize(plus), _orthonormalize(minus)


def _standard_vec(vec, j2):
    e, f, h = spin_matrices(j2)
    return vec[0] * e + vec[1] * f + vec[2] * h


def _standard_pair(basis, j2a, j2b):
    return sum(np.kron(_standard_vec(_star_coeffs(v), j2a),
                       _standard_vec(v, j2b)) for v in basis)


def _standard_leg(lam, j2):
    plus, _ = _standard_split()
    ref = np.array([-1.0, 1.0, 0.0]) / math.sqrt(2)
    chi = 1j * lam / math.sqrt(2) * _herm_form(plus[0], ref)
    c = _herm_form(_star_coeffs(plus[0]), plus[0])
    tk0 = (c * chi) * _standard_vec(plus[0], j2)
    cas = _standard_vec(_star_coeffs(plus[0]), j2) @ _standard_vec(plus[0],
                                                                    j2)
    return 2 * tk0 + cas


def _standard_coeffs(lam, j2a, j2b, hbar):
    """a, b_+, b_-, a_02 and d in the standard basis."""
    plus, minus = _standard_split()
    da, db = j2a + 1, j2b + 1
    a = hbar * np.kron(_standard_leg(lam, j2a), np.eye(db))
    a02 = hbar * np.kron(np.eye(da), _standard_leg(lam, j2b))
    tk = _standard_pair(plus, j2a, j2b)
    tm = _standard_pair(minus, j2a, j2b)
    return (a, hbar * _standard_pair(plus + minus, j2a, j2b),
            hbar * (tk - tm), a02, a + a02 + 2 * hbar * tk)


def _leg_rotation(j2):
    """The unitary W with TS.rep(j2) = W^H spin_matrices(j2) W, from the
    intertwiners, made exactly unitary by its polar factor."""
    (w,) = intertwiners(list(zip(TS.rep(j2), spin_matrices(j2))), 1e-9)
    u, _, vh = np.linalg.svd(w)
    return u @ vh


@pytest.mark.parametrize("lam", [0.0, 0.7, 2.0])
def test_k_weight_coefficients_are_the_standard_ones_rotated(lam):
    hbar = hbar_of(0.6)
    for j2a in range(9):
        wa = _leg_rotation(j2a)
        braid = wa @ kz_braid(TS, lam, j2a, hbar) @ wa.conj().T
        exponent = -1j * math.pi * hbar * _standard_leg(lam, j2a)
        want = _expm(exponent)
        # the reference's own roundoff grows with its exponent's norm (the
        # relative condition number of exp), 23 at j2 = 8, lam = 0.7
        assert np.linalg.norm(braid - want) <= 1e-14 * max(
            1.0, np.linalg.norm(exponent, 1)) * np.linalg.norm(want)
        for j2b in range(9):
            w = np.kron(wa, _leg_rotation(j2b))
            got = (*kz_coeffs(TS, lam, j2a, j2b, hbar),
                   a02_coeff(TS, lam, j2a, j2b, hbar),
                   d_coeff(TS, lam, j2a, j2b, hbar))
            for mat, ref in zip(got, _standard_coeffs(lam, j2a, j2b, hbar)):
                back = w @ mat @ w.conj().T
                assert np.linalg.norm(back - ref) \
                    <= 1e-14 * max(np.linalg.norm(ref), 1e-300), (j2a, j2b)


def _k_weights(j2):
    """The k-weights of the basis of spin j2, as integers: (f - e)/sqrt(2)
    acts diagonally, by -i m/sqrt(2)."""
    k = TS.vec_matrix(TS.plus_basis[0], j2)
    np.testing.assert_array_equal(k, np.diag(np.diag(k)))
    return np.rint((1j * math.sqrt(2) * np.diag(k)).real).astype(int)


def test_split_tensors_are_written_out_eigenvectors():
    for vecs, sign in ((TS.plus_basis, 1), (TS.minus_basis, -1)):
        for v in vecs:
            np.testing.assert_array_equal(SIGMA @ v, sign * v)
    # rep is a *-representation of sl2 with f - e acting by -ih
    for j2 in range(6):
        e, f, h = TS.rep(j2)
        np.testing.assert_array_equal(e.conj().T, f)
        np.testing.assert_array_equal(f - e, -1j * spin_matrices(j2)[2])
        np.testing.assert_allclose(h @ e - e @ h, 2 * e, atol=1e-12)
        np.testing.assert_allclose(e @ f - f @ e, h, atol=1e-12)


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.5])
def test_kz_coefficients_are_exactly_k_weight_blocks(lam):
    # the structure the block route of psi reads: a diagonal, and b_+, b_-
    # exactly 0.0 between product vectors of different total k-weight
    for j2a in range(9):
        for j2b in range(9):
            a, bp, bm = kz_coeffs(TS, lam, j2a, j2b, hbar_of(0.7))
            total = np.add.outer(_k_weights(j2a), _k_weights(j2b)).ravel()
            apart = total[:, None] != total[None, :]
            assert np.count_nonzero(a - np.diag(np.diag(a))) == 0
            for mat in (bp, bm, a02_coeff(TS, lam, j2a, j2b, hbar_of(0.7)),
                        d_coeff(TS, lam, j2a, j2b, hbar_of(0.7))):
                assert np.count_nonzero(mat[apart]) == 0, (j2a, j2b)


def test_kz_tensors_are_kept_read_only():
    ts = split_tensors()
    for get, args in ((ts.t_full, (1, 2)), (ts.t_k, (2, 2)), (ts.t_m, (1, 3)),
                      (ts.casimir_k, (3,)), (ts.sigma_matrix, (2,))):
        mat = get(*args)
        assert get(*args) is mat
        assert not mat.flags.writeable
    leg = leg_coeff(ts, 0.7, 2)
    assert leg_coeff(ts, 0.7, 2) is leg and not leg.flags.writeable
    assert all(not m.flags.writeable for m in ts.rep(2))


def _components_reference(pattern):
    """Connected components by breadth-first search."""
    adj = pattern | pattern.T
    seen, out = set(), []
    for start in range(len(adj)):
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            i = todo.pop()
            for j in np.flatnonzero(adj[i]):
                if int(j) not in comp:
                    comp.add(int(j))
                    todo.append(int(j))
        seen |= comp
        out.append(sorted(comp))
    return out


def _blocks(pattern):
    """The blocks of ``pattern_blocks`` as index arrays, in their order."""
    index = pattern_blocks(pattern)
    return [index.members[start:start + size]
            for start, size in zip(index.starts, index.sizes)]


@pytest.mark.parametrize("n,density", [(1, 0.0), (7, 0.0), (12, 0.08),
                                       (30, 0.03), (30, 0.3), (40, 1.0)])
def test_blocks_are_connected_components(n, density):
    rng = np.random.default_rng(n)
    pattern = rng.random((n, n)) < density
    got = [block.tolist() for block in _blocks(pattern)]
    # numbered by size, then by first appearance
    assert got == sorted(_components_reference(pattern), key=len)
    # a path through every index, in shuffled order, is one block
    perm = rng.permutation(n)
    chain = np.zeros((n, n), dtype=bool)
    chain[perm[:-1], perm[1:]] = True
    assert [b.tolist() for b in _blocks(chain)] == [list(range(n))]


def _fill_pattern(prob, seed):
    """The problem conjugated by a random unitary U, which fills every zero
    of the coefficients, so that it runs as one block; returns (U, U^H P U)."""
    rng = np.random.default_rng(seed)
    n = prob.a.shape[0]
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    mats = [u.conj().T @ m @ u for m in (prob.a, prob.b_plus, prob.b_minus)]
    assert all(np.count_nonzero(m) == n * n for m in mats)
    return u, MonodromyProblem(*mats, prob.series_order)


@pytest.mark.parametrize("name,prob", list(_psi_cases()),
                         ids=[name for name, _ in _psi_cases()])
def test_block_route_is_the_one_block_route_conjugated(name, prob):
    u, full = _fill_pattern(prob, len(name))
    res, ref = psi(prob), psi(full)
    want = u.conj().T @ res.psi @ u
    assert np.linalg.norm(ref.psi - want) <= 1e-10 * np.linalg.norm(want)
    assert res.orders == ref.orders
    assert len(_blocks(full.a != 0)) == 1


@pytest.mark.parametrize("q,lam,j2", [(0.5, 1.0, 4), (0.3, 0.5, 3)])
def test_eg_identity_past_the_octagon_walls(q, lam, j2):
    # the standard-basis route read eq:Eg 7.7e-3 and 3.6e-3 here; the
    # octagon residuals at these points stay walls (tests/walls.py)
    coeffs = kz_coeffs(TS, lam, j2, j2, hbar_of(q))
    assert verify_eg(*coeffs) < TOL_ODE


def _kz_residues(q):
    """Every matrix kzmono exponentiates or puts in Schur form at q: the
    coefficients a, b_+, b_-, a_02, d and -a - b_+ - b_- on each spin pair
    of the benchmark grid, for three characters."""
    hbar = hbar_of(q)
    for lam in (0.5, 1.0, 2.0):
        for j2a, j2b in ((1, 1), (1, 2), (2, 2), (3, 3)):
            a, bp, bm = kz_coeffs(TS, lam, j2a, j2b, hbar)
            yield from (a, bp, bm, a02_coeff(TS, lam, j2a, j2b, hbar),
                        d_coeff(TS, lam, j2a, j2b, hbar), -a - bp - bm)


def _assert_expm_matches_scipy(mat):
    want = expm(mat)
    got = _expm(mat)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
@pytest.mark.parametrize("n", [2, 5, 9])
def test_expm_matches_scipy_random(norm, n):
    rng = np.random.default_rng(n)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    _assert_expm_matches_scipy(mat * (norm / np.linalg.norm(mat, 1)))


@pytest.mark.parametrize("mat", [
    np.triu(np.random.default_rng(4).normal(size=(6, 6)), 1) * 3,
    np.triu(np.random.default_rng(5).normal(size=(9, 9)), 1) * 0.7,
    np.diag([0.5, -2.0 + 1j, 3j]),
    np.array([[2.0 - 0.5j]]),
    np.zeros((3, 3), dtype=complex),
], ids=["upper6", "upper9", "diagonal", "1x1", "zero"])
def test_expm_matches_scipy_structured(mat):
    _assert_expm_matches_scipy(mat)


@pytest.mark.parametrize("q", [0.5, 0.75, 0.9])
def test_expm_matches_scipy_on_kz_exponents(q):
    # e^{+-i pi m} in the identity suites, x^m in the Frobenius solutions
    for mat in _kz_residues(q):
        for scale in (1j * math.pi, -1j * math.pi, math.log(0.4),
                      math.log(0.6)):
            _assert_expm_matches_scipy(scale * mat)


def test_psi_exponent_overflow_is_a_resource_error():
    # x^a from the diagonal Schur form of a overflows at the match points;
    # the series at one, batched with the series at zero, overflows too, but
    # x^a comes first, as it did when each series ran on its own
    a, zero = np.diag([-2000.5, 0.0]), np.zeros((2, 2))
    _PSI_MEMO.clear()
    with pytest.raises(ResourceError, match="a matrix exponent overflows"):
        psi(MonodromyProblem(a, zero, zero))


def test_kz_overflow_is_a_resource_error_without_warnings():
    # lambda = 1e300 puts entries of 1e299 into a: the series at one
    # overflows at its first order and stops there, and no floating-point
    # warning (from kzmono or from numpy under it) comes before the error
    coeffs = kz_coeffs(TS, 1e300, 1, 1, hbar_of(0.7))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ResourceError, match="series overflows double "
                                                "precision at order 1$"):
            verify_eg(*coeffs)
    assert [str(w.message) for w in caught] == []


def test_expm_of_hermitian_is_hermitian():
    a = kz_coeffs(TS, 1.0, 2, 2, hbar_of(0.7))[0]
    out = _expm(1j * math.pi * a)
    np.testing.assert_array_equal(out, out.conj().T)


@pytest.mark.parametrize("q", [0.5, 0.75, 0.9])
def test_schur_of_kz_residues_is_eigh(q):
    for res in _kz_residues(q):
        t, z = _decompose(res)[:2]
        n = res.shape[0]
        np.testing.assert_array_equal(t, np.diag(np.diag(t)))
        assert np.linalg.norm(z.conj().T @ z - np.eye(n)) <= 1e-14
        back = z @ t @ z.conj().T
        assert np.linalg.norm(back - res) <= 1e-14 * np.linalg.norm(res)


def _decompose_reference(res):
    """(T, Z, resonance pairs, condition) of a normal residue by ``eigh`` on
    each connected block of its nonzero pattern, one block at a time."""
    skew = not _hermitian(res)
    herm = -1j * res if skew else res
    vals, z, cond = np.empty(len(res)), np.zeros_like(herm), 1.0
    for idx in map(np.array, _components_reference(res != 0)):
        if len(idx) == 1:
            vals[idx], z[idx, idx] = herm[idx, idx].real, 1.0
            continue
        vals[idx], zb = np.linalg.eigh(herm[np.ix_(idx, idx)])
        z[np.ix_(idx, idx)] = zb
        cond = max(cond, np.linalg.cond(zb))
    vals = 1j * vals if skew else vals.astype(complex)
    return np.diag(vals), z, _resonant_pairs(vals), cond


@pytest.mark.parametrize("q", [0.3, 0.75])
def test_stacked_eigh_is_the_per_block_loop_bit_for_bit(q):
    # every KZ residue (skew-Hermitian) and i times it (Hermitian)
    for lam in (0.5, 1.0, 2.0):
        for j2a in range(1, 9):
            for j2b in range(j2a, 9):
                for res in kz_coeffs(TS, lam, j2a, j2b, hbar_of(q)):
                    for mat in (res, 1j * res):
                        got, want = _decompose(mat), _decompose_reference(mat)
                        for x, y in zip(got[:2], want[:2]):
                            assert x.tobytes() == y.tobytes()
                        assert got[2:] == want[2:]


def _packed_reference(pattern):
    """Flat gather indices of the connected blocks of a pattern, packed
    first-fit, largest first, into slots padded to the largest block."""
    n, blocks = len(pattern), _components_reference(pattern)
    size, bins = max(map(len, blocks)), []
    for block in sorted(blocks, key=len, reverse=True):
        fit = next((b for b in bins if len(b) + len(block) <= size), [])
        if not fit:
            bins.append(fit)
        fit.extend(block)
    idx = np.array([[*b, *[n] * (size - len(b))] for b in bins])
    rows, cols = idx[:, :, None], idx[:, None, :]
    return np.where((rows < n) & (cols < n), rows * n + cols, n * n)


def test_packed_slots_of_the_psi_pair_batch():
    # the 8 x 8 batch of psi_pairs on one residue: the series at 0 and at 1
    # of both orientations
    a, bp, bm = kz_coeffs(TS, 1.0, 8, 8, hbar_of(0.75))
    prob = MonodromyProblem(a, bp, bm)
    mirror = MonodromyProblem(a, bm, bp)
    jobs = [_job_at_zero(prob, [s * x for s in (1.0, -1.0)
                                for x in MATCH_POINTS]),
            _job_at_one(prob), _job_at_one(mirror)]
    mats = [s * (z.conj().T @ m @ z) for _, z, terms, _ in jobs
            for s, m, _ in terms]
    pattern = np.any([t != 0 for t, *_ in jobs] + [m != 0 for m in mats], 0)
    index = pattern_blocks(pattern)
    want = _packed_reference(pattern)
    assert index.packed.dtype == want.dtype
    np.testing.assert_array_equal(index.packed, want)
    assert index.packed.shape == (9, 9, 9)   # 17 blocks fill 9 slots
    for mat in mats:
        np.testing.assert_array_equal(index.scatter(index.gather(mat)), mat)


def test_schur_of_nonnormal_residues_is_scipy():
    for name, prob in _problems():
        if not name.startswith("nonnormal"):
            continue
        for res in (prob.a, prob.b_plus, prob.b_minus):
            t, z = _decompose(res)[:2]
            want_t, want_z = schur(res, output="complex")
            np.testing.assert_array_equal(t, want_t)
            np.testing.assert_array_equal(z, want_z)


@pytest.mark.parametrize("mats", [
    [np.zeros((2, 3))] * 3,
    [np.zeros(3)] * 3,
    [np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros((2, 2)),
     np.zeros((2, 2))],
    [np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), np.inf)],
], ids=["2x3", "1-D", "nan", "inf"])
def test_problem_rejects_malformed_coefficients(mats):
    with pytest.raises(InputError):
        MonodromyProblem(*mats)
