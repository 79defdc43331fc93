"""Frozen enumeration goldens and error-path coverage."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsp.coideal import (
    CoidealParams,
    counit_module,
    kmatrix_solve,
    no_parameter,
)
from qsp.diagrams import enumerate_admissible, satake
from qsp.errors import AmbiguityError, InputError
from qsp.kzmono import MonodromyProblem, psi
from qsp.rootsys import build_root_datum, qint, weyl_act
from qsp.uqrep import QParams, build_irrep

# admissible-pair counts per simple type; the enumeration keeps
# diagram-automorphism conjugates (e.g. the triality triples on D4), which
# is why D4 counts 10 over its 5 involution classes.  Past rank 4 the
# counts are Araki's: B_n has n, C_n has 1 + n // 2, and D_n has
# so(p, 2n - p) for p = 1..n plus so*(2n), two conjugate diagrams at even n.
# Parameters follow the dict order, so new entries go last and the ids
# (spec0, spec1, ...) of the earlier ones stay put.
GOLDEN_COUNTS = {
    ("A", 1): 1, ("A", 2): 2, ("A", 3): 4, ("A", 4): 3,
    ("B", 2): 2, ("B", 3): 3, ("B", 4): 4,
    ("C", 2): 2, ("C", 3): 2, ("C", 4): 3,
    ("D", 3): 4, ("D", 4): 10,
    ("E", 6): 4, ("E", 7): 3, ("F", 4): 2, ("G", 2): 1,
    ("A", 5): 5, ("A", 6): 4, ("B", 5): 5, ("B", 6): 6,
    ("C", 5): 3, ("C", 6): 4, ("D", 5): 6, ("D", 6): 8, ("D", 8): 10,
    ("E", 8): 2,
}


@pytest.mark.parametrize("spec,count", GOLDEN_COUNTS.items())
def test_enumeration_counts(spec, count):
    datum = build_root_datum([spec])
    assert len(enumerate_admissible(datum)) == count


def test_d4_triality_classes():
    datum = build_root_datum([("D", 4)])
    diags = enumerate_admissible(datum)
    keyed = {}
    for d in diags:
        has_orbit = any(d.tau_of(r) != r for r in datum.vertices)
        keyed.setdefault((len(d.X), has_orbit), []).append(d)
    assert {k: len(v) for k, v in keyed.items()} == {
        (0, False): 1, (0, True): 3, (2, False): 3, (3, True): 3}


def test_f4_split_and_rank_one_restricted():
    datum = build_root_datum([("F", 4)])
    diags = enumerate_admissible(datum)
    sizes = sorted(len(d.X) for d in diags)
    assert sizes == [0, 3]
    big = next(d for d in diags if len(d.X) == 3)
    assert big.X == (1, 2, 3)


def test_g2_fundamental_irrep():
    datum = build_root_datum([("G", 2)])
    from module_helpers import relations_residual, star_residual
    m = build_irrep(datum, datum.weight([1, 0]), QParams(0.6))
    assert m.dim == 7
    assert star_residual(m) < 1e-9
    assert max(relations_residual(m).values()) < 1e-9


def test_kmatrix_general_rank_reports_ambiguity():
    # su4 with the two-orbit twist: the solver must not guess.  On the
    # fundamental there is no trivial component in u ox u to pin the scale;
    # on the self-dual middle module both roots of the ribbon-unit
    # quadratic survive.  Either way the ambiguity is reported.
    A3 = build_root_datum([("A", 3)])
    diag = satake(A3, (1, 3))
    qp = QParams(0.7)
    params = no_parameter(diag, qp)
    x0 = counit_module(diag, params, qp)
    for coords in ([1, 0, 0], [0, 1, 0]):
        v = build_irrep(A3, A3.weight(coords), qp)
        with pytest.raises(AmbiguityError):
            kmatrix_solve(diag, params, qp, x0, v)


def test_monodromy_dimension_mismatch():
    with pytest.raises(InputError):
        MonodromyProblem(np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))


def test_build_irrep_rejects_nondominant():
    A1 = build_root_datum([("A", 1)])
    with pytest.raises(InputError):
        build_irrep(A1, A1.weight([-1]), QParams(0.7))
    with pytest.raises(InputError):
        build_irrep(A1, A1.weight([Fraction(1, 2)]), QParams(0.7))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8),
       st.fractions(min_value=Fraction(1, 7), max_value=Fraction(6, 7)))
def test_qint_addition_property(m, n, q):
    # [m+n] = q^{-n} [m] + q^{m} [n]
    if q in (0, 1):
        return
    lhs = qint(m + n, q)
    rhs = q ** -n * qint(m, q) + q ** m * qint(n, q)
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.permutations([1, 2, 3]))
def test_weyl_action_is_isometric(c1, c2, word):
    datum = build_root_datum([("B", 3)])
    mu = datum.weight(c1)
    nu = datum.weight(c2)
    wmu = weyl_act(datum, list(word), mu)
    wnu = weyl_act(datum, list(word), nu)
    assert wmu.pairing(wnu) == mu.pairing(nu)
    # the reversed word is the inverse element
    back = weyl_act(datum, list(reversed(word)), wmu)
    assert back.coords == mu.coords


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3))
def test_single_reflection_involutive(r, c):
    datum = build_root_datum([("C", 3)])
    mu = datum.weight([c, -c, c])
    assert mu.reflect(r).reflect(r).coords == mu.coords


def test_commuting_psi_matches_closed_form_random_seeds():
    rng = np.random.default_rng(3)
    for _ in range(3):
        d = [np.diag(rng.normal(size=3) * 0.3) for _ in range(3)]
        prob = MonodromyProblem(*d)
        got = psi(prob).psi
        import scipy.linalg
        want = scipy.linalg.expm(np.log(2.0) * d[2])
        assert np.linalg.norm(got - want) < 1e-9


def test_rank_one_probe_other_q():
    from qsp.harness import run_rank_one
    rep = run_rank_one(0.5, 0.5, levels=10)
    assert rep.passed, rep.residuals
    assert rep.info["matching_hypotheses"] == ["r+1"]


def test_su2_kmatrix_other_q():
    A1 = build_root_datum([("A", 1)])
    for q in (0.5, 0.9):
        qp = QParams(q)
        diag = satake(A1, ())
        params = CoidealParams({1: q ** -2}, {1: 0.6j})
        x0 = counit_module(diag, params, qp)
        v = build_irrep(A1, A1.weight([1]), qp)
        eta = kmatrix_solve(diag, params, qp, x0, v)
        c_mat = np.array([[0.6j * (1 / q - q), -q ** -0.5], [q ** -0.5, 0]])
        diff = min(np.max(np.abs(eta - c_mat)), np.max(np.abs(eta + c_mat)))
        assert diff < 1e-10, q
