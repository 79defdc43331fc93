import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qsp

from qsp.algebra import AlgebraElement
from qsp.coideal import (
    CoidealModule,
    CoidealParams,
    _fusion_table,
    _generator_mats,
    _monomial_span,
    character_relations_residual,
    characters,
    coideal_law_residual,
    counit_module,
    direct_sum_module,
    kmatrix_solve,
    no_parameter,
    ribbon_compose,
    star_membership,
    theta_fixed_basis,
    twisted_pairs,
    validate_star,
)
from qsp.diagrams import satake
from qsp.errors import AmbiguityError, InputError, NoKMatrixError
from qsp.rmatrix import rmat
from qsp.rootsys import build_root_datum
from qsp.uqrep import QParams, build_irrep, decompose, tensor

from formal_algebra import act
from formal_coideal import (
    b_generators,
    coideal_coproduct_parts,
    conjugate,
    formal_coideal_law_residual,
    formal_star_membership,
    gamma_twist_residual,
    omega0_gamma,
    pi_t_intertwining_residual,
    sequential_law_residual,
    sequential_monomial_span,
    tail_b_matrix,
    theta_q,
)
from module_helpers import trivial_module

A1 = build_root_datum([("A", 1)])
A2 = build_root_datum([("A", 2)])
A3 = build_root_datum([("A", 3)])
QP = QParams(0.7)
Q = 0.7

D_SU2 = satake(A1, ())
D_SU3 = satake(A2, (), [[1, 2]])
D_SU4_AIII = satake(A3, (2,), [[1, 3]])
D_SU4_AII = satake(A3, (1, 3))


def su2_params(t):
    return CoidealParams({1: Q ** -2}, {1: 1j * t})


@pytest.fixture(scope="module")
def v12():
    return build_irrep(A1, A1.weight([1]), QP)


@pytest.fixture(scope="module")
def v1():
    return build_irrep(A1, A1.weight([2]), QP)


def test_theta_q_su2(v12):
    fk = AlgebraElement.f(A1, 1) * AlgebraElement.k_alpha(A1, 1)
    img = theta_q(D_SU2, QP, fk)
    assert np.max(np.abs(act(v12, img) + act(v12, AlgebraElement.e(A1, 1)))) < 1e-14


def test_theta_q_cartan():
    chi = A2.weight([1, 2])
    img = theta_q(D_SU3, QP, AlgebraElement.k(A2, chi))
    want = AlgebraElement.k(A2, D_SU3.theta(chi))
    f = build_irrep(A2, A2.weight([1, 0]), QP)
    np.testing.assert_allclose(act(f, img), act(f, want), atol=1e-12)


def test_theta_q_fixes_subsystem():
    # theta_q is the identity on the X-subsystem generators, as operators
    m = build_irrep(A3, A3.weight([1, 0, 0]), QP)
    for x in [AlgebraElement.e(A3, 2), AlgebraElement.f(A3, 2)]:
        img = theta_q(D_SU4_AIII, QP, x)
        assert np.linalg.norm(act(m, img) - act(m, x)) < 1e-10


def test_b_generator_golden(v12):
    t = 0.3
    b = b_generators(D_SU2, su2_params(t), QP)[1]
    got = act(v12, b)
    want = np.array([[1j * t / Q, -Q ** -0.5], [Q ** -0.5, 1j * t * Q]])
    np.testing.assert_allclose(got, want, atol=1e-13)
    # B_t^* = -B_t
    np.testing.assert_allclose(got.conj().T, -got, atol=1e-13)


def test_b_generator_param_validation():
    with pytest.raises(InputError):
        b_generators(D_SU2, CoidealParams({1: 0.0}, {1: 0.0}), QP)
    # s must vanish off I_S: su3 AIII has I_S empty
    with pytest.raises(InputError):
        b_generators(D_SU3, CoidealParams({1: 1.0, 2: 1.0}, {1: 1j}), QP)


def test_no_parameter_values():
    assert no_parameter(D_SU2, QP).c[1] == pytest.approx(Q ** -2)
    npar = no_parameter(D_SU3, QP)
    assert npar.c[1] == pytest.approx(Q ** -0.5)
    assert npar.c[2] == pytest.approx(Q ** -0.5)
    npar4 = no_parameter(D_SU4_AII, QP)
    assert npar4.c[2] == pytest.approx(Q ** -1)


def test_validate_star():
    ok, _ = validate_star(D_SU2, su2_params(0.5), QP)
    assert ok
    ok, viol = validate_star(D_SU2, CoidealParams({1: Q ** -2}, {1: 0.5}), QP)
    assert not ok and any("imaginary" in v for v in viol)
    ok, _ = validate_star(D_SU2, CoidealParams({1: 1.05 * Q ** -2}, {1: 0.0}), QP)
    assert not ok
    # C-type one-parameter freedom: c_p = q^l c0, c_{tau p} = q^{-l} c0 passes
    c0 = no_parameter(D_SU3, QP).c[1]
    lam = 0.37
    params = CoidealParams({1: c0 * Q ** lam, 2: c0 * Q ** -lam},
                           {1: 0.0, 2: 0.0})
    ok, viol = validate_star(D_SU3, params, QP)
    assert ok, viol


def test_theta_fixed_basis_su2_empty():
    assert theta_fixed_basis(D_SU2) == []
    basis = theta_fixed_basis(D_SU4_AII)
    for w in basis:
        assert D_SU4_AII.theta(w).coords == w.coords


def test_theta_fixed_basis_is_a_fresh_list():
    basis = theta_fixed_basis(D_SU4_AII)
    again = theta_fixed_basis(D_SU4_AII)
    assert basis and again == basis and again is not basis
    basis.clear()
    assert theta_fixed_basis(D_SU4_AII) == again


def test_star_membership_su2(v12, v1):
    for t in (0.0, 0.5, 2.0):
        res = star_membership(D_SU2, su2_params(t), QP, [v12, v1])
        assert res[1] < 1e-8
    bad = CoidealParams({1: 1.05 * Q ** -2}, {1: 0.5j})
    res = star_membership(D_SU2, bad, QP, [v12, v1])
    assert res[1] > 1e-3


def test_star_membership_b2_mixed_lengths():
    # so(2,3): both root lengths enter the star exponent and theta_q
    B2 = build_root_datum([("B", 2)])
    diag = satake(B2, ())
    npar = no_parameter(diag, QP)
    assert npar.c[1] == pytest.approx(Q ** -4)
    assert npar.c[2] == pytest.approx(Q ** -2)
    spinor = build_irrep(B2, B2.weight([0, 1]), QP)
    vector = build_irrep(B2, B2.weight([1, 0]), QP)
    res = star_membership(diag, npar, QP, [spinor, vector])
    assert max(res.values()) < 1e-8
    bad = npar.replace(c={1: 1.05 * npar.c[1]})
    assert star_membership(diag, bad, QP, [spinor, vector])[1] > 1e-3
    assert gamma_twist_residual(diag, QP, spinor) < 1e-8
    assert coideal_law_residual(diag, npar, QP, spinor, spinor) < 1e-8


def test_star_membership_higher_rank():
    f = build_irrep(A2, A2.weight([1, 0]), QP)
    fb = build_irrep(A2, A2.weight([0, 1]), QP)
    res = star_membership(D_SU3, no_parameter(D_SU3, QP), QP, [f, fb])
    assert max(res.values()) < 1e-8
    w1 = build_irrep(A3, A3.weight([1, 0, 0]), QP)
    w2 = build_irrep(A3, A3.weight([0, 1, 0]), QP)
    for diag in (D_SU4_AIII, D_SU4_AII):
        res = star_membership(diag, no_parameter(diag, QP), QP, [w1, w2])
        assert max(res.values()) < 1e-8, (diag.X, res)


def test_coideal_coproduct_structure():
    # tail first legs stay in U_q(g_X)^+ K; raises otherwise
    for diag in (D_SU2, D_SU3, D_SU4_AIII, D_SU4_AII):
        params = no_parameter(diag, QP)
        for r in diag.white:
            coideal_coproduct_parts(diag, params, QP, r)


def test_coideal_law_on_modules(v12, v1):
    res = coideal_law_residual(D_SU2, su2_params(0.5), QP, v12, v12)
    assert res < 1e-8
    f = build_irrep(A2, A2.weight([1, 0]), QP)
    res = coideal_law_residual(D_SU3, no_parameter(D_SU3, QP), QP, f, f)
    assert res < 1e-8


B2 = build_root_datum([("B", 2)])
D_B2 = satake(B2, ())
D_B3_X23 = satake(build_root_datum([("B", 3)]), (2, 3))
D_C3_X13 = satake(build_root_datum([("C", 3)]), (1, 3))


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("q", [0.6, 0.9])
@pytest.mark.parametrize("diag, s, weights", [
    (D_SU2, None, [[1], [2], [3]]),
    (D_SU2, 0.7j, [[1], [2], [3]]),
    (D_SU3, None, [[1, 0], [0, 1], [1, 1]]),
    (D_SU4_AIII, None, [[1, 0, 0], [0, 1, 0]]),
    (D_SU4_AII, None, [[1, 0, 0], [0, 1, 0]]),
    (D_B2, None, [[0, 1], [1, 0]]),
    (D_B3_X23, None, [[1, 0, 0]]),
    (D_C3_X13, None, [[1, 0, 0]]),
], ids=["A1", "A1-s", "SU3", "AIII", "AII", "B2", "B3-X23", "C3-X13"])
def test_counit_b_matrices_are_the_direct_action(q, diag, s, weights):
    # (eps ox id) Delta(B_r) = B_r: the module route of the counit module
    # gives the matrices of the formal B_r, on irreps and on m ox m
    qp = QParams(q)
    params = no_parameter(diag, qp) if s is None \
        else CoidealParams({1: q ** -2}, {1: s})
    x0 = counit_module(diag, params, qp)
    bgen = b_generators(diag, params, qp)
    first = build_irrep(diag.datum, diag.datum.weight(weights[0]), qp)
    mods = [build_irrep(diag.datum, diag.datum.weight(coords), qp)
            for coords in weights] + [tensor(first, first)]
    for w in mods:
        mats = x0.generator_matrices(w)
        for r, b in bgen.items():
            assert _rel(mats[("B", r)], act(w, b)) <= 1e-13, (w.label, r)


@pytest.mark.parametrize("q", [0.6, 0.9])
@pytest.mark.parametrize("diag, s, weights", [
    (D_SU2, 0.7j, [[1], [2]]),
    (D_SU3, None, [[1, 0], [1, 1]]),
    (D_SU4_AIII, None, [[1, 0, 0], [0, 1, 0]]),
], ids=["A1-S", "SU3-C", "AIII-C"])
def test_character_b_matrices_match_the_formal_tail(q, diag, s, weights):
    # S- and C-type characters: chi(B_r) and chi(K_kappa) against the
    # first-leg Cartan terms of the formal coproduct tail
    qp = QParams(q)
    params = no_parameter(diag, qp) if s is None \
        else CoidealParams({1: q ** -2}, {1: s})
    x0 = CoidealModule(diag, params, qp, characters(diag, qp, 0.4))
    first = build_irrep(diag.datum, diag.datum.weight(weights[0]), qp)
    mods = [build_irrep(diag.datum, diag.datum.weight(coords), qp)
            for coords in weights] + [tensor(first, first)]
    for w in mods:
        mats = x0.generator_matrices(w)
        for r in diag.white:
            assert _rel(mats[("B", r)], tail_b_matrix(x0, r, w)) <= 1e-13, \
                (w.label, r)


@pytest.mark.parametrize("diag, params, weights", [
    (D_SU2, su2_params(0.5), [[1], [2]]),
    (D_SU2, CoidealParams({1: 1.05 * Q ** -2}, {1: 0.5j}), [[1], [2]]),
    (D_SU3, None, [[1, 0], [0, 1]]),
    (D_SU4_AIII, None, [[1, 0, 0], [0, 1, 0]]),
    (D_SU4_AII, None, [[1, 0, 0]]),
    (D_B2, None, [[0, 1], [1, 0]]),
    (D_C3_X13, None, [[1, 0, 0]]),
], ids=["A1", "A1-off-class", "SU3", "AIII", "AII", "B2", "C3-X13"])
def test_star_and_coideal_law_match_the_formal_route(diag, params, weights):
    params = params or no_parameter(diag, QP)
    mods = [build_irrep(diag.datum, diag.datum.weight(coords), QP)
            for coords in weights]
    got = star_membership(diag, params, QP, mods)
    want = formal_star_membership(diag, params, QP, mods)
    for r in diag.white:
        assert abs(got[r] - want[r]) <= 1e-13 * max(want[r], 1.0), r
    got = coideal_law_residual(diag, params, QP, mods[0], mods[-1])
    want = formal_coideal_law_residual(diag, params, QP, mods[0], mods[-1])
    assert abs(got - want) <= 1e-13 * max(want, 1.0)


@pytest.mark.parametrize("q", [0.6, 0.9])
@pytest.mark.parametrize("diag, weights", [
    (D_SU3, [[1, 0], [0, 1]]),
    (D_SU4_AIII, [[1, 0, 0], [0, 1, 0]]),
    (D_SU4_AII, [[1, 0, 0], [0, 1, 0]]),
    (D_B2, [[0, 1], [1, 0]]),
], ids=["SU3", "AIII", "AII", "B2"])
def test_block_span_matches_the_sequential_reference(diag, weights, q):
    # the benchmark's star and law windows: the block projection spans the
    # same monomials as the one-vector-at-a-time reference and measures
    # the same distances, on an orthonormal basis
    qp = QParams(q)
    par = no_parameter(diag, qp)
    x0 = counit_module(diag, par, qp)
    mods = [build_irrep(diag.datum, diag.datum.weight(c), qp) for c in weights]
    window, first = direct_sum_module(mods), mods[0]
    for mod in (window, first):
        gens = _generator_mats(x0, mod)
        span = _monomial_span(gens, mod.dim)
        ref = sequential_monomial_span(gens, mod.dim)
        assert span.size == len(ref.vectors) > 1
        basis = span.basis[:, :span.size]
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(span.size)) \
            <= 1e-13
    gens = _generator_mats(x0, window)
    ref = sequential_monomial_span(gens, window.dim)
    got = star_membership(diag, par, qp, mods)
    for r, b in zip(diag.white, gens):
        want = ref.distance(b.conj().T) / np.linalg.norm(b)
        assert abs(got[r] - want) <= 1e-12, r
        assert got[r] < 1e-8
    both = tensor(first, first)
    mats = [x0._b_matrix(r, both) for r in diag.white]
    mats += [m for s in diag.X for m in (both.E[s], both.F[s])]
    mats += [both.k_matrix(w) for w in theta_fixed_basis(diag)]
    ref = sequential_monomial_span(_generator_mats(x0, first), first.dim)
    want = sequential_law_residual(ref, mats, first.dim, first.dim)
    got = coideal_law_residual(diag, par, qp, first, first)
    assert abs(got - want) <= 1e-12 and got < 1e-8
    # a 5% change of c leaves the span on both routes
    r = diag.white[0]
    bad = par.replace(c={r: 1.05 * par.c[r]})
    assert max(star_membership(diag, bad, qp, mods).values()) > 1e-3
    gens = _generator_mats(counit_module(diag, bad, qp), window)
    ref = sequential_monomial_span(gens, window.dim)
    assert max(ref.distance(b.conj().T) / np.linalg.norm(b)
               for b in gens[:len(diag.white)]) > 1e-3


def test_omega0_properties():
    for diag in (D_SU2, D_SU3, D_SU4_AIII, D_SU4_AII):
        omega0, _ = omega0_gamma(diag, QP)  # internal assertions run
        assert diag.theta(omega0).coords == (-omega0).coords


def test_gamma_twist(v12):
    assert gamma_twist_residual(D_SU2, QP, v12) < 1e-8
    f = build_irrep(A2, A2.weight([1, 0]), QP)
    assert gamma_twist_residual(D_SU3, QP, f) < 1e-8
    m = build_irrep(A3, A3.weight([1, 0, 0]), QP)
    assert gamma_twist_residual(D_SU4_AII, QP, m) < 1e-8


def test_kmatrix_su2_golden(v12):
    t = 0.3
    params = su2_params(t)
    x0 = counit_module(D_SU2, params, QP)
    eta = kmatrix_solve(D_SU2, params, QP, x0, v12)
    c_mat = np.array([[1j * t * (1 / Q - Q), -Q ** -0.5], [Q ** -0.5, 0]])
    diff = min(np.max(np.abs(eta - c_mat)), np.max(np.abs(eta + c_mat)))
    assert diff < 1e-10


def test_kmatrix_trivial_module():
    params = su2_params(0.3)
    x0 = counit_module(D_SU2, params, QP)
    eta = kmatrix_solve(D_SU2, params, QP, x0, trivial_module(A1, QP))
    np.testing.assert_allclose(eta, [[1.0]], atol=1e-10)


def test_kmatrix_rejects_a_module_over_other_parameters(v12):
    # the linear system comes from x0: it must be the coideal of the
    # arguments, not one with another s
    x0 = counit_module(D_SU2, su2_params(1.5), QP)
    with pytest.raises(InputError, match="another coideal"):
        kmatrix_solve(D_SU2, su2_params(0.3), QP, x0, v12)


def test_kmatrix_singular_values(v12):
    for t in (0.5, 1.3):
        params = su2_params(t)
        x0 = counit_module(D_SU2, params, QP)
        eta = kmatrix_solve(D_SU2, params, QP, x0, v12)
        lam = _lambda_t(t, Q)
        sv = sorted(np.linalg.svd(eta, compute_uv=False))
        want = sorted([Q ** (lam - 0.5), Q ** (-lam - 0.5)])
        np.testing.assert_allclose(sv, want, atol=1e-10)


def _lambda_t(t, q):
    # t = q^{-1/2} (q^{-l} - q^l) / (q^{-1} - q)
    rhs = t * (1 / q - q) * q ** 0.5
    x = (rhs + math.sqrt(rhs * rhs + 4)) / 2  # q^{-lambda}
    return -math.log(x) / math.log(q)


def test_kmatrix_ambiguity_and_derivation(v12, v1):
    params = su2_params(0.3)
    x0 = counit_module(D_SU2, params, QP)
    with pytest.raises(AmbiguityError):
        kmatrix_solve(D_SU2, params, QP, x0, v1)
    eta = kmatrix_solve(D_SU2, params, QP, x0, v1, fuse_from=v12)
    assert eta.shape == (3, 3)
    assert np.linalg.cond(eta) < 1e6


def test_kmatrix_octagon_and_ribbon(v12, v1):
    # the solved family satisfies the coproduct laws as matrix identities
    params = su2_params(0.4)
    x0 = counit_module(D_SU2, params, QP)
    eta_v = kmatrix_solve(D_SU2, params, QP, x0, v12)
    for u_mod in (v12, v1):
        eta_u = kmatrix_solve(D_SU2, params, QP, x0, u_mod, fuse_from=v12)
        # ribbon: eta at u ox v equals the composite
        comp = ribbon_compose(D_SU2, eta_u, u_mod, eta_v, v12)
        # derived braid at the tensor module via embeddings of components
        uv = tensor(u_mod, v12)
        from qsp.uqrep import decompose
        for wt, _, embs in decompose(uv):
            model = build_irrep(A1, wt, QP)
            eta_m = kmatrix_solve(D_SU2, params, QP, x0, model, fuse_from=v12)
            for emb in embs:
                got = emb.conj().T @ comp @ emb
                diff = np.max(np.abs(got - eta_m))
                assert diff < 1e-8, (u_mod.label, tuple(wt.coords), diff)


def test_ribbon_compose_reuses_the_plain_r_matrix(monkeypatch, v12, v1):
    # sigma = tau tau_0 is the identity on su2: the composite takes rmat on
    # the module pair itself, not on a twisted copy of the second module
    calls = []

    def spy(m, n):
        calls.append((m, n))
        return rmat(m, n)

    monkeypatch.setattr(qsp.coideal, "rmat", spy)
    comp = ribbon_compose(D_SU2, np.eye(v1.dim), v1, np.eye(v12.dim), v12)
    assert len(calls) == 1 and calls[0][0] is v1 and calls[0][1] is v12
    assert comp.shape == (v1.dim * v12.dim,) * 2


def _tensor_power_braid(u, generator, eta_g):
    """Reference route: the ribbon composite on the tensor powers of the
    generator, restricted to the first copy of u in the first power that
    contains it."""
    power, eta_power = generator, eta_g
    for _ in range(8):
        if power.highest is not None:
            same = power.highest.coords == u.highest.coords
            emb = np.eye(power.dim) if same else None
        else:
            emb = next((embs[0] for wt, _, embs in decompose(power)
                        if wt.coords == u.highest.coords), None)
        if emb is not None:
            return emb.conj().T @ eta_power @ emb
        eta_power = ribbon_compose(D_SU2, eta_power, power, eta_g, generator)
        power = tensor(power, generator)
    raise AssertionError("target not reached")


@pytest.mark.parametrize("q, t", [(0.6, 2.0), (0.7, 0.3), (0.9, 0.1)])
def test_derived_kmatrix_matches_tensor_power_route(q, t):
    qp = QParams(q)
    params = CoidealParams({1: q ** -2}, {1: 1j * t})
    x0 = counit_module(D_SU2, params, qp)
    v = build_irrep(A1, A1.weight([1]), qp)
    eta_v = kmatrix_solve(D_SU2, params, qp, x0, v)
    for twice_spin in range(2, 7):
        u = build_irrep(A1, A1.weight([twice_spin]), qp)
        got = kmatrix_solve(D_SU2, params, qp, x0, u, fuse_from=v)
        want = _tensor_power_braid(u, v, eta_v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), \
            twice_spin


def test_kmatrix_solve_memo_returns_same_read_only_array(v12, v1):
    # an equal input built from fresh objects is the same key: parameters,
    # QParams and characters compare and hash by value
    for u, fuse in ((v12, None), (v1, v12)):
        x0 = counit_module(D_SU2, su2_params(0.45), QP)
        first = kmatrix_solve(D_SU2, su2_params(0.45), QP, x0, u,
                              fuse_from=fuse)
        x0_again = counit_module(D_SU2, su2_params(0.45), QParams(Q))
        again = kmatrix_solve(D_SU2, su2_params(0.45), QParams(Q), x0_again,
                              u, fuse_from=fuse)
        assert again is first
        assert not first.flags.writeable


def test_kmatrix_solve_forms_the_generators_once_when_the_twist_is_trivial(
        v12, monkeypatch):
    # tau tau_0 is the identity on A1, so the twisted module is v12 itself
    calls = []
    real = CoidealModule.generator_matrices
    monkeypatch.setattr(CoidealModule, "generator_matrices",
                        lambda self, w: calls.append(w) or real(self, w))
    params = su2_params(0.55)
    x0 = counit_module(D_SU2, params, QP)
    kmatrix_solve(D_SU2, params, QP, x0, v12)
    assert calls == [v12]


_BRAIDS_SCRIPT = """
import json, sys
from qsp.coideal import (CoidealParams, _derived_braid, counit_module,
                         kmatrix_solve)
from qsp.diagrams import satake
from qsp.rootsys import build_root_datum
from qsp.uqrep import QParams, build_irrep
q, t, spins = json.loads(sys.argv[1])
a1 = build_root_datum([("A", 1)])
diag, qp = satake(a1, ()), QParams(q)
params = CoidealParams({1: q ** -2}, {1: 1j * t})
x0 = counit_module(diag, params, qp)
v = build_irrep(a1, a1.weight([1]), qp)
out = []
for s in spins:
    u = build_irrep(a1, a1.weight([s]), qp)
    # the trivial module is solved directly by kmatrix_solve; only the
    # table of derived braids reaches it by fusion
    eta = (_derived_braid(diag, params, qp, x0, u, v) if s == 0
           else kmatrix_solve(diag, params, qp, x0, u, fuse_from=v))
    out.append([[[z.real, z.imag] for z in row] for row in eta.tolist()])
print(json.dumps(out))
"""


def _braids_in_fresh_process(q, t, spins):
    """Braids at the given twice-spins, solved in this order by a fresh
    interpreter: every cache starts empty there, which no fresh object
    achieves here (equal inputs are equal keys)."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(qsp.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _BRAIDS_SCRIPT, json.dumps([q, t, spins])],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return [np.array(m)[..., 0] + 1j * np.array(m)[..., 1]
            for m in json.loads(proc.stdout)]


def test_braid_table_extends_in_any_order():
    # 0 first: twice-spin 2 lies above the bound of the trivial target, so
    # the generator stays pending with its bound and a later, higher target
    # must expand it again
    q, t = 0.65, 0.8
    cold = {s: _braids_in_fresh_process(q, t, [s])[0] for s in range(1, 7)}
    for order in ([1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [2, 6], [0, 2, 6]):
        got = _braids_in_fresh_process(q, t, order)
        for s, eta in zip(order, got):
            if s == 0:
                continue
            assert np.linalg.norm(eta - cold[s]) \
                <= 1e-12 * np.linalg.norm(cold[s]), (order, s)


def _fused(typ, x, tau, target):
    """The no-parameter coideal of a Satake diagram at q = 0.6, its counit
    module, the generator V(omega_2) and the irrep ``target``."""
    datum, qp = build_root_datum(typ), QParams(0.6)
    diag = satake(datum, x, tau)
    params = no_parameter(diag, qp)
    return (diag, params, qp, counit_module(diag, params, qp),
            build_irrep(datum, datum.fundamental_weight(2), qp),
            build_irrep(datum, datum.weight(target), qp))


def test_derived_braid_keeps_a_skipped_module_pending():
    # V(omega_2) ox V(omega_2) on A3 has components above the bound of
    # V[2,0,0]: they are skipped, and their module stays pending with it
    diag, params, qp, x0, gen, u = _fused("A3", (2,), [[1, 3]], [2, 0, 0])
    eta = kmatrix_solve(diag, params, qp, x0, u, fuse_from=gen)
    assert max(np.linalg.norm(eta @ tw - plain @ eta) / np.linalg.norm(plain)
               for tw, plain in twisted_pairs(x0, u)) <= 1e-10
    pending = _fusion_table(gen, diag, params, qp, x0)["pending"]
    assert any(bound is not None for _, _, bound in pending)


def test_derived_braid_reports_an_unreachable_target():
    # the tensor powers of V(omega_2), the vector representation of
    # so(5) = sp(4), never contain the spin module V[1,1]; the search skips
    # components above the bound until no pending module is left
    diag, params, qp, x0, gen, u = _fused("C2", (1,), None, [1, 1])
    with pytest.raises(NoKMatrixError, match="not reached"):
        kmatrix_solve(diag, params, qp, x0, u, fuse_from=gen)


def test_characters_and_relations():
    chi = characters(D_SU2, QP, 0.5)
    assert chi.b_values[1] == 0.5j
    res = character_relations_residual(D_SU2, no_parameter(D_SU2, QP), QP, chi)
    assert max(res.values()) < 1e-10
    chi3 = characters(D_SU3, QP, 0.4)
    assert all(v == 0 for v in chi3.b_values.values())
    assert chi3.k_value(A2, QP, A2.simple_root(1)) == pytest.approx(Q ** 0.4)
    res3 = character_relations_residual(D_SU3, no_parameter(D_SU3, QP), QP, chi3)
    assert max(res3.values()) < 1e-10


def test_characters_t0_is_counit_like():
    chi = characters(D_SU2, QP, 0.0)
    assert chi.b_values[1] == 0
    chi3 = characters(D_SU3, QP, 0.0)
    assert chi3.k_value(A2, QP, A2.fundamental_weight(1)) == 1.0


def test_characters_non_hermitian():
    with pytest.raises(InputError):
        characters(D_SU4_AII, QP, 0.5)
    chi = characters(D_SU4_AII, QP, 0.0)
    assert all(v == 0 for v in chi.b_values.values())


def test_conjugate_group_action():
    npar = no_parameter(D_SU2, QP)
    p = conjugate(D_SU2, npar, QP, 0.7)
    assert p.s[1] == pytest.approx(0.7j)
    back = conjugate(D_SU2, p, QP, -0.7)
    assert abs(back.s[1]) < 1e-12
    assert conjugate(D_SU2, npar, QP, 0.0).s == npar.s
    # C-type: EqC preserved, q^{+-t} scaling
    npar3 = no_parameter(D_SU3, QP)
    p3 = conjugate(D_SU3, npar3, QP, 0.9)
    assert p3.c[1] == pytest.approx(Q ** -0.9 * npar3.c[1])
    assert p3.c[2] == pytest.approx(Q ** 0.9 * npar3.c[2])
    assert p3.c[1] * p3.c[2] == pytest.approx(npar3.c[1] * npar3.c[2])
    back3 = conjugate(D_SU3, p3, QP, -0.9)
    assert back3.c[1] == pytest.approx(npar3.c[1], abs=1e-12)


def test_pi_t_intertwining(v12, v1):
    res = pi_t_intertwining_residual(D_SU2, no_parameter(D_SU2, QP), QP,
                                     0.3, v12, v1)
    assert res < 1e-9
    f = build_irrep(A2, A2.weight([1, 0]), QP)
    fb = build_irrep(A2, A2.weight([0, 1]), QP)
    res = pi_t_intertwining_residual(D_SU3, no_parameter(D_SU3, QP), QP,
                                     0.3, f, fb)
    assert res < 1e-9
