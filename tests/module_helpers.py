"""Modules, residuals and suite runs that only the tests use."""

import json

import numpy as np

from qsp.blocks import leg_blocks, product_blocks
from qsp.errors import InputError
from qsp.harness import (_cylinder_residuals, run_axioms, run_kz_suite,
                         run_rank_one)
from qsp.rmatrix import rmat
from qsp.rootsys import alpha_coefficients, qfact, read_only
from qsp.uqrep import (WeightModule, _ef_residual, build_irrep, relative,
                       tensor)
from qsp.vogan10 import (_total_h, _weight_key, braid_blocks, coaction_tensor,
                         e_matrix, interior_indices, nu_module)


def trivial_module(datum, qp):
    """The one-dimensional module of weight zero, its E and F read-only as
    on every module the program builds."""
    verts = datum.vertices
    z = np.zeros((1, 1), dtype=complex)
    return WeightModule(datum, qp, [datum.zero_weight()],
                        {r: read_only(z.copy()) for r in verts},
                        {r: read_only(z.copy()) for r in verts},
                        highest=datum.zero_weight(), label="trivial")


def star_residual(module):
    """max_r ||E_r^dagger - F_r K_r|| / max(||E_r||, 1e-30)."""
    worst = 0.0
    for r in module.datum.vertices:
        e = module.E[r]
        frkr = module.F[r] @ module.k_matrix(module.datum.simple_root(r))
        scale = max(np.linalg.norm(e), 1e-30)
        worst = max(worst, np.linalg.norm(e.conj().T - frkr) / scale)
    return worst


# The defining relations of U_q on a weight module and of the truncated
# ladders of ``qsp.vogan10``, as residuals.

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
            out[f"KE[{s},{r}]"] = relative(lhs - rhs, rhs)
            if r != s:
                out[f"SerreE[{r},{s}]"] = _serre(module, r, s, module.E)
                out[f"SerreF[{r},{s}]"] = _serre(module, r, s, module.F)
                lhs = er @ module.F[s] - module.F[s] @ er
                out[f"EF[{r},{s}]"] = np.linalg.norm(lhs) / max(
                    np.linalg.norm(er) * np.linalg.norm(module.F[s]), 1e-30)
    return out


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


def qbinom(m, n, q):
    """Gaussian binomial [m choose n]_q."""
    if n < 0 or n > m:
        raise InputError("q-binomial out of range")
    return qfact(m, q) / (qfact(n, q) * qfact(m - n, q))


def ladder_relations_residual(module):
    """Residuals of the three defining relations on the interior."""
    q = module.qp.q
    k = np.diag(module.k_diag)
    f = module.f_mat
    fs = f.conj().T
    idx = interior_indices(module, 1, 2)
    out = {}

    def cut(m):
        return m[np.ix_(idx, idx)]

    lhs = k @ f - q ** -2 * f @ k
    out["KF"] = np.linalg.norm(cut(lhs))
    lhs = k @ fs - q ** 2 * fs @ k
    out["KF*"] = np.linalg.norm(cut(lhs))
    lhs = fs @ f - q ** 2 * f @ fs
    rhs = (np.eye(module.dim) + np.diag(module.k_diag ** -2)) / (q - 1 / q)
    out["F*F"] = np.linalg.norm(cut(lhs - rhs)) / np.linalg.norm(cut(rhs))
    return out


def _weight_groups(h):
    """Indices of a basis with H-eigenvalues h, grouped by weight (keyed by
    ``_weight_key``, in order of first appearance)."""
    groups = {}
    for i, hval in enumerate(h.tolist()):
        groups.setdefault(_weight_key(hval), []).append(i)
    return groups


def weight_blocks(module, v):
    """Total-weight spaces of module ox V, a ladder of ``qsp.vogan10`` times
    a weight module, as index lists keyed by the H-eigenvalue."""
    return _weight_groups(_total_h(module, v))


def run_all(q=0.7, r=0.25, levels=14):
    """The reports of the five suites: the coideal, KZ and Vogan axioms, the
    KZ suite and the rank-one probe."""
    return [
        run_axioms("coideal", q, t=0.3),
        run_axioms("kz", q, t=1.0),
        run_axioms("vogan", q, r=r, levels=levels),
        run_kz_suite(q),
        run_rank_one(q, r, levels),
    ]


def reports_to_json(reports):
    return json.dumps([rep.to_json() for rep in reports],
                      indent=2, sort_keys=True)


def reference_grow_embedding(module, varpi, hw_vec, qp):
    """``uqrep._grow_embedding`` before its transport maps were kept per
    model irrep: the level split, the (r, j) pairs and the pseudo-inverse of
    each span map are formed again on every call."""
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
        w = np.linalg.pinv(span)
        images = np.column_stack([module.F[r] @ emb[:, j] for (r, j) in pairs])
        emb[:, nxt] = images @ w
    return emb


# ``harness.vogan_axioms`` before its single assembly: three builders, each
# on its own product index and placing its factors again.

def reference_octagon_vogan(module, m1, m2, qp):
    """Both sides of the octagon on M ox U ox V, as WeightBlocks; R32 is
    R(V, U) on the legs (2, 1)."""
    index = product_blocks(module, m1, m2)
    lhs = braid_blocks(coaction_tensor(module, m1), m2, qp)
    r32 = leg_blocks(index, [((2, 1), rmat(m2, m1).matrix)])
    e13 = leg_blocks(index, [((0, 2), e_matrix(module, m2, qp))])
    rtw23 = leg_blocks(index, [((1, 2), rmat(m1, nu_module(m2)).matrix)])
    return lhs, r32 @ e13 @ rtw23


def reference_ribbon_vogan(module, m1, m2, qp):
    """Both sides of the ribbon equation on M ox U ox V, as WeightBlocks."""
    index = product_blocks(module, m1, m2)
    lhs = braid_blocks(module, tensor(m1, m2), qp)
    e12 = leg_blocks(index, [((0, 1), e_matrix(module, m1, qp))])
    return lhs, braid_blocks(coaction_tensor(module, m1), m2, qp) @ e12


def reference_cylinder_vogan(module, m1, m2, qp):
    """theta_{U ox V} and the right sides of both cylinder twist equations,
    as WeightBlocks on M ox U ox V, sU = nu(U), sV = nu(V)."""
    index = product_blocks(module, m1, m2)

    def place(legs, mat):
        return leg_blocks(index, [(legs, mat)])

    e_u = place((0, 1), e_matrix(module, m1, qp))
    e_v = place((0, 2), e_matrix(module, m2, qp))
    tu, tv = nu_module(m1), nu_module(m2)
    rhs1 = place((2, 1), rmat(m2, m1).matrix) @ e_v \
        @ place((1, 2), rmat(m1, tv).matrix) @ e_u
    rhs2 = e_u @ place((2, 1), rmat(m2, tu).matrix) @ e_v \
        @ place((1, 2), rmat(tu, tv).matrix)
    return braid_blocks(module, tensor(m1, m2), qp), rhs1, rhs2


def reference_vogan_axioms(module, m1, m2, qp):
    """(residuals, sides) as the three builders above give them."""
    n_interior = len(interior_indices(module, m1.dim * m2.dim, 4))

    def ratio(diff, ref):
        return diff.masked_norm(n_interior) / max(
            ref.masked_norm(n_interior), 1e-30)

    sides = [reference_octagon_vogan(module, m1, m2, qp),
             reference_ribbon_vogan(module, m1, m2, qp)]
    residuals = {key: ratio(lhs - rhs, rhs)
                 for key, (lhs, rhs) in zip(("EqOct2", "EqRB2"), sides)}
    cyl = reference_cylinder_vogan(module, m1, m2, qp)
    residuals.update(_cylinder_residuals(*cyl, ratio))
    return residuals, [*sides[0], *sides[1], *cyl]
