import pytest

from qsp.diagrams import (
    check_admissible,
    choose_z,
    classify_sets,
    diagram_from_json,
    enumerate_admissible,
    hermitian_type,
    satake,
)
from qsp.errors import InputError
from qsp.rootsys import build_root_datum

A1 = build_root_datum([("A", 1)])
A2 = build_root_datum([("A", 2)])
A3 = build_root_datum([("A", 3)])


def test_admissible_basic_cases():
    ok, _ = check_admissible(A1, (), None)
    assert ok
    ok, _ = check_admissible(A2, (), [[1, 2]])
    assert ok
    ok, _ = check_admissible(A3, (1, 3), None)
    assert ok  # (alpha_2, rho_X^vee) = -1 is integral


def test_admissible_rejects():
    ok, violations = check_admissible(A2, (1,), None)
    assert not ok and violations
    ok, _ = check_admissible(A3, (1, 2, 3), None)
    assert not ok  # X = I excluded
    with pytest.raises(InputError):
        check_admissible(A2, (), {1: 1, 2: 1})  # not a bijection/involution


@pytest.mark.parametrize("vertex", [5, 0, -1])
def test_out_of_range_vertex_in_x_is_an_input_error(vertex):
    for call in (lambda: check_admissible(A3, (vertex,), None),
                 lambda: satake(A3, (vertex,)),
                 lambda: choose_z(A3, (2, vertex), None)):
        with pytest.raises(InputError, match=f"vertex {vertex} not in datum"):
            call()


def test_theta_action():
    d = satake(A1, ())
    a = A1.simple_root(1)
    assert d.theta(a).coords == (-a).coords

    d2 = satake(A2, (), [[1, 2]])
    assert d2.theta(A2.simple_root(1)).coords == (-A2.simple_root(2)).coords

    d3 = satake(A3, (1, 3))
    for r in A3.vertices:
        mu = A3.simple_root(r)
        assert d3.theta(d3.theta(mu)).coords == mu.coords


def test_theta_involutive_on_all_enumerated():
    for datum in [A2, A3, build_root_datum([("B", 2)]), build_root_datum([("C", 3)])]:
        for diag in enumerate_admissible(datum):
            for r in datum.vertices:
                mu = datum.fundamental_weight(r)
                assert diag.theta(diag.theta(mu)).coords == mu.coords


def test_choose_z_trivial_when_no_orbits():
    assert choose_z(A1, (), None) == (0,)
    assert choose_z(A3, (1, 3), None) == (0, 0, 0)


def test_choose_z_a3_orbit():
    # A3, X = {2}, tau = (1 3): (alpha_1, rho_X^vee) = -1/2, so z_1 = i
    exps = choose_z(A3, (2,), [[1, 3]])
    assert exps == (1, 0, 3)
    diag = satake(A3, (2,), [[1, 3]])
    assert diag.z(1) == 1j and diag.z(3) == -1j and diag.z(2) == 1


@pytest.mark.parametrize("tau, message", [
    ({1: 7}, "automorphism image out of range"),
    ([[1, 2]], "map is not a diagram automorphism"),
], ids=["image-out-of-range", "not-an-automorphism"])
def test_choose_z_checks_tau(tau, message):
    # a direct caller gets the checks satake makes before it calls choose_z
    with pytest.raises(InputError, match=message):
        choose_z(A3, (), tau)


def test_z_equation_exact_on_enumeration():
    for datum in [A2, A3, build_root_datum([("D", 4)])]:
        from qsp.rootsys import rho_check
        for diag in enumerate_admissible(datum):
            rho_x = rho_check(datum, diag.X)
            for r in datum.vertices:
                two = 2 * datum.simple_root(r).pairing(rho_x)
                lhs = diag.z(r) * diag.z(diag.tau_of(r)).conjugate()
                assert lhs == (-1) ** int(two)


def test_enumerate_counts():
    assert len(enumerate_admissible(A1)) == 1
    assert len(enumerate_admissible(A2)) == 2
    assert len(enumerate_admissible(A3)) == 4
    assert len(enumerate_admissible(build_root_datum([("B", 2)]))) == 2


def test_enumerate_a2_contains_swap():
    diags = enumerate_admissible(A2)
    assert any(d.X == () and d.tau == (2, 1) for d in diags)


def test_classify_sets_su2():
    diag = satake(A1, ())
    i_c, i_ns, i_s, j = classify_sets(diag)
    assert i_c == () and i_ns == (1,) and i_s == (1,) and j == (1,)


def test_classify_sets_a2_swap():
    diag = satake(A2, (), [[1, 2]])
    i_c, i_ns, i_s, j = classify_sets(diag)
    assert i_ns == () and i_s == ()
    assert j == (1, 2)  # X empty: J = I


def test_classify_sets_J_equals_I_when_X_empty():
    diag = satake(A3, (), [[1, 3]])
    assert classify_sets(diag)[3] == (1, 2, 3)


# ---------------------------------------------------------------------------
# Hermitian classification against the standard family tables
# ---------------------------------------------------------------------------

def aiii(p, q):
    """Satake data of s(u_p + u_q) in su_{p+q}: flip, middle blackened."""
    n = p + q - 1
    datum = build_root_datum([("A", n)])
    flip = [[r, n + 1 - r] for r in range(1, (n + 1) // 2 + 1) if r != n + 1 - r]
    X = tuple(range(p + 1, n - p + 1))
    return satake(datum, X, flip)


def test_aiii_table():
    # p = q: S-type at alpha_p
    for p in (1, 2):
        h = hermitian_type(aiii(p, p))
        assert h.kind == "SType" and h.distinguished == p
    # p < q: C-type with orbit {alpha_p, alpha_q}, representative alpha_p
    for p, q in [(1, 2), (1, 3), (1, 4), (2, 3)]:
        h = hermitian_type(aiii(p, q))
        assert h.kind == "CType"
        assert h.orbit == (p, q)
        assert h.distinguished == p


def test_bdi_table():
    # so_2 + so_q in so_{2+q}: S-type at alpha_1
    cases = [
        satake(build_root_datum([("B", 2)]), ()),                     # q = 3
        satake(build_root_datum([("D", 3)]), (), [[2, 3]]),           # q = 4
        satake(build_root_datum([("B", 3)]), (3,)),                   # q = 5
    ]
    for diag in cases:
        h = hermitian_type(diag)
        assert h.kind == "SType" and h.distinguished == 1


def test_ci_table():
    # u_l in sp_l: all white, S-type at alpha_l
    for l in (2, 3, 4):
        diag = satake(build_root_datum([("C", l)]), ())
        h = hermitian_type(diag)
        assert h.kind == "SType" and h.distinguished == l


def test_diii_table():
    # u_{2p} in so_{4p}: S-type at alpha_{2p}
    d4 = satake(build_root_datum([("D", 4)]), (1, 3))
    h = hermitian_type(d4)
    assert h.kind == "SType" and h.distinguished == 4
    d6 = satake(build_root_datum([("D", 6)]), (1, 3, 5))
    h = hermitian_type(d6)
    assert h.kind == "SType" and h.distinguished == 6
    # u_5 in so_10: C-type with orbit {alpha_4, alpha_5}, representative alpha_5
    d5 = satake(build_root_datum([("D", 5)]), (1, 3), [[4, 5]])
    h = hermitian_type(d5)
    assert h.kind == "CType" and h.orbit == (4, 5) and h.distinguished == 5


def test_eiii_evii_table():
    e6 = satake(build_root_datum([("E", 6)]), (3, 4, 5), [[1, 6], [3, 5]])
    h = hermitian_type(e6)
    assert h.kind == "CType" and h.orbit == (1, 6) and h.distinguished == 1
    e7 = satake(build_root_datum([("E", 7)]), (2, 3, 4, 5))
    h = hermitian_type(e7)
    assert h.kind == "SType" and h.distinguished == 7


def test_non_hermitian_cases():
    assert hermitian_type(satake(A3, (1, 3))).kind == "NonHermitian"  # AII
    assert hermitian_type(satake(A2, ())).kind == "NonHermitian"      # AI su3
    assert hermitian_type(satake(A3, ())).kind == "NonHermitian"      # AI su4


def test_s_and_c_exclusive_everywhere():
    for datum in [A2, A3, build_root_datum([("B", 3)]),
                  build_root_datum([("C", 3)]), build_root_datum([("D", 4)])]:
        for diag in enumerate_admissible(datum):
            h = hermitian_type(diag)  # raises if both types detected
            assert h.kind in ("NonHermitian", "SType", "CType")


def test_hermitian_requires_irreducible():
    d = build_root_datum([("A", 1), ("A", 1)])
    diag = satake(d, ())
    with pytest.raises(InputError):
        hermitian_type(diag)


def test_json_format():
    diag = diagram_from_json(
        {"type": "A", "rank": 3, "X": [2], "tau": [[1, 3]]})
    assert diag.X == (2,) and diag.tau_of(1) == 3
    again = diagram_from_json(diag.to_json())
    assert again.X == diag.X and again.tau == diag.tau and again.z_exp == diag.z_exp
