"""R-matrices on pairs of weight modules.

Construction: the quasi factor, an ordered product over positive roots,

    Qt = prod_k  sum_n  (q_b^{-1}-q_b)^n q_b^{-n(n-1)/2} / [n]_{q_b}!
                 (E_{beta_k})^n ox (F_{beta_k})^n,

composed with the Cartan factor q^{-(wt ox wt)}.  The root vectors are
computed on the module itself along the canonical reduced word
r_1 ... r_N of w_0: with T = T_{r_1} ... T_{r_{k-1}} the product of the
module braid operators, E_{beta_k} = T E_{r_k} T^{-1} and
F_{beta_k} = T F_{r_k} T^{-1}.

One convention is built and pinned by two checks on the result: it acts by
q^{-(wt xi, wt eta)} on (E-singular) ox (F-singular) vectors, which the
quasi factor fixes, and it intertwines the coproduct with its opposite on
every generator, both taken as leg matrices from ``uqrep.coproduct_terms``,
the one place the coproduct is written.  ``rmat(m, n)`` keeps its
result, with a read-only matrix, in ``m.cache`` per n: a cached R-matrix
is one that passed both checks.
Tensor legs are moved by reshape and transpose, never by a permutation
matrix: ``apply_on_legs`` applies an operator on some legs to a block of
columns, and the YBE and hexagon checks apply R leg by leg to column
blocks of the identity, so they never hold an N x N operator on a triple
product beyond the R-matrices they compare against.

Independent oracle: solve the intertwining linear system, with Delta and
Delta^op formed as dense matrices, and pin the isotypic-block scalars by
the same normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, UnsupportedOracleError
from .lusztig import braid_on_module
from .rootsys import beta_sequence, longest_element, qint
from .uqrep import (casimir_scalar, coproduct_terms, decompose, kron_sum,
                    read_only, ribbon_diag, tensor)

_PIN_TOL = 1e-9


def _pairings(m, n):
    """(wt_i, wt_j) over m ox n as doubles (``WeightModule.pairings``)."""
    return np.array(n.pairings(*m.numerators()))


def _cartan_factor(m, n, sign=-1):
    """q^{sign (wt_i, wt_j)} on m ox n, flattened."""
    return (m.qp.q ** (sign * _pairings(m, n))).reshape(-1)


def _root_vector_mats(module):
    """(beta_k, E_beta_k, F_beta_k) along the canonical w_0 word, kept in
    the module's cache."""
    cached = module.cache.get("root_vectors")
    if cached is not None:
        return cached
    datum = module.datum
    word = longest_element(datum, datum.vertices)
    betas = beta_sequence(datum, word)
    braids = {r: braid_on_module(module, r) for r in set(word.letters[:-1])}
    t = np.eye(module.dim, dtype=complex)
    out = []
    for k, (beta, r) in enumerate(zip(betas, word.letters)):
        if k:
            t = t @ braids[word.letters[k - 1]]
        t_inv = np.linalg.inv(t)
        out.append((beta, t @ module.E[r] @ t_inv, t @ module.F[r] @ t_inv))
    module.cache["root_vectors"] = out
    return out


def _quasi_factor(m, n):
    """Ordered product of per-root exponential series on m ox n."""
    qp = m.qp
    roots_m = _root_vector_mats(m)
    roots_n = _root_vector_mats(n)
    total = np.eye(m.dim * n.dim, dtype=complex)
    # the beta_M factor sits leftmost; the opposite order breaks the
    # generator intertwining already for the two fundamentals of A2
    for (beta, e_m, _), (_, _, f_n) in reversed(list(zip(roots_m, roots_n))):
        qb = qp.qpow(beta.pairing(beta) / 2)
        coeff = 1.0
        acc = np.eye(m.dim * n.dim, dtype=complex)
        e_pow = np.eye(m.dim, dtype=complex)
        f_pow = np.eye(n.dim, dtype=complex)
        for k in range(1, m.dim + n.dim + 1):
            e_pow = e_pow @ e_m
            f_pow = f_pow @ f_n
            if np.linalg.norm(e_pow) < 1e-300 or np.linalg.norm(f_pow) < 1e-300:
                break
            coeff *= (1.0 / qb - qb) * qb ** (-(k - 1)) / qint(k, qb)
            acc = acc + coeff * np.kron(e_pow, f_pow)
        total = total @ acc
    return total


@dataclass
class RMatrix:
    matrix: np.ndarray
    convention: str


def _intertwining_residual(mat, m, n):
    """max over generators of ||R Delta(x) - Delta^op(x) R|| (relative),
    with Delta^op on m ox n the flipped ``coproduct_terms(n, m, r)``.

    Each coproduct term a ox b is applied to the legs of R in turn, never
    formed as a dense Kronecker product, on blocks of rows of both sides
    that share their first-leg indices: no array of the size of R is
    formed besides R."""
    dm, dn = m.dim, n.dim
    size = dm * dn
    step = max(1, _BLOCK_COLS // dn)
    worst = 0.0
    for r in m.datum.vertices:
        for delta, delta_op in zip(coproduct_terms(m, n, r),
                                   coproduct_terms(n, m, r)):
            sq = np.zeros(3)  # squared norms of lhs, rhs and lhs - rhs
            for i in range(0, dm, step):
                rows = mat[i * dn:(i + step) * dn]
                k = rows.shape[0]
                # R (a ox b), a on m, b on n
                lhs = sum(((rows.reshape(k, dm, dn) @ b).transpose(0, 2, 1) @ a)
                          .transpose(0, 2, 1).reshape(k, size) for a, b in delta)
                # (a ox b) R: rows i.. of a on the first leg, b on the second
                rhs = sum((b @ (a[i:i + step] @ mat.reshape(dm, dn * size))
                           .reshape(-1, dn, size)).reshape(k, size)
                          for b, a in delta_op)
                sq += [np.linalg.norm(x) ** 2 for x in (lhs, rhs, lhs - rhs)]
            lhs_n, rhs_n, diff_n = np.sqrt(sq)
            worst = max(worst, diff_n / max(lhs_n, rhs_n, 1e-30))
    return worst


def _singular_indices(module):
    """(E-singular indices, F-singular indices)."""
    e_sing, f_sing = [], []
    for i in range(module.dim):
        if all(np.linalg.norm(module.E[r][:, i]) < 1e-10
               for r in module.datum.vertices):
            e_sing.append(i)
        if all(np.linalg.norm(module.F[r][:, i]) < 1e-10
               for r in module.datum.vertices):
            f_sing.append(i)
    return e_sing, f_sing


def _normalization_residual(mat, m, n):
    """Deviation from R(xi ox eta) = q^{-(wt xi, wt eta)} xi ox eta over all
    E-singular xi in m and F-singular eta in n."""
    qp = m.qp
    e_sing, _ = _singular_indices(m)
    _, f_sing = _singular_indices(n)
    if not e_sing or not f_sing:
        raise ConsistencyError("no extremal vectors to pin the convention")
    worst = 0.0
    for i in e_sing:
        for j in f_sing:
            idx = i * n.dim + j
            want = qp.qpow(-m.weights[i].pairing(n.weights[j]))
            col = mat[:, idx].copy()
            got = col[idx]
            col[idx] = 0.0
            dev = max(abs(got - want), np.max(np.abs(col)))
            worst = max(worst, dev)
    return worst


def rmat(m, n):
    """R-matrix on m ox n: quasi factor times Cartan factor, checked
    against the extremal normalization and the generator intertwining."""
    key = ("rmat", n)
    if key in m.cache:
        return m.cache[key]
    mat = read_only(_quasi_factor(m, n) * _cartan_factor(m, n))
    norm = _normalization_residual(mat, m, n)
    inter = _intertwining_residual(mat, m, n)
    if not (norm < _PIN_TOL and inter < _PIN_TOL):
        raise ConsistencyError(
            f"R-matrix on {m.label} ox {n.label} fails its checks: "
            f"normalization residual {norm:.3g}, intertwining residual "
            f"{inter:.3g} (tolerance {_PIN_TOL:g})")
    out = m.cache[key] = RMatrix(mat, "R")
    return out


def r21(m, n):
    """R21 on m ox n: rmat(n, m) conjugated by the flip of the two legs."""
    dm, dn = m.dim, n.dim
    return rmat(n, m).matrix.reshape(dn, dm, dn, dm).transpose(1, 0, 3, 2) \
        .reshape(dm * dn, dm * dn)


def rmat_oracle(m, n):
    """Independent construction: nullspace of the intertwining system plus
    the extremal normalization; multiplicity-free pairs only."""
    dec = decompose(tensor(m, n))
    if any(mult > 1 for _, mult, _ in dec):
        raise UnsupportedOracleError("tensor product is not multiplicity-free")
    dim = m.dim * n.dim
    rows = []
    for r in m.datum.vertices:
        for delta, delta_op in zip(coproduct_terms(m, n, r),
                                   coproduct_terms(n, m, r)):
            d = kron_sum(delta)
            dop = kron_sum([(a, b) for b, a in delta_op])
            # T d - dop T = 0 as linear operator on T (vectorized)
            rows.append(np.kron(np.eye(dim), d.T) - np.kron(dop, np.eye(dim)))
    system = np.vstack(rows)
    _, s, vh = np.linalg.svd(system)
    null_dim = int(np.sum(s < 1e-8 * s[0]))
    if null_dim == 0:
        raise ConsistencyError("intertwining system has no solution")
    basis = vh.conj().T[:, -null_dim:]
    # pin by the normalization on extremal vectors
    e_sing, _ = _singular_indices(m)
    _, f_sing = _singular_indices(n)
    eqs, rhs = [], []
    qp = m.qp
    for i in e_sing:
        for j in f_sing:
            idx = i * n.dim + j
            want = qp.qpow(-m.weights[i].pairing(n.weights[j]))
            for out in range(dim):
                row = basis[out * dim + idx, :]
                eqs.append(row)
                rhs.append(want if out == idx else 0.0)
    sol, *_ = np.linalg.lstsq(np.array(eqs), np.array(rhs), rcond=None)
    mat = (basis @ sol).reshape(dim, dim)
    resid = _normalization_residual(mat, m, n)
    if resid > 1e-7:
        raise ConsistencyError(f"oracle normalization residual {resid}")
    return RMatrix(mat, "oracle")


_BLOCK_COLS = 64


def apply_on_legs(mat, x, dims, legs):
    """(mat on the given legs, in order, ox 1 on the rest) @ x for an N x k
    block x, N = prod(dims): one contraction of mat's input legs with those
    legs of x, then the output legs moved back into place.  The embedded
    N x N operator is never formed."""
    n_legs = len(legs)
    sizes = [dims[i] for i in legs]
    t = np.tensordot(mat.reshape(sizes + sizes),
                     x.reshape(list(dims) + [-1]),
                     axes=(list(range(n_legs, 2 * n_legs)), list(legs)))
    return np.moveaxis(t, list(range(n_legs)), list(legs)) \
        .reshape(x.shape[0], -1)


def op_on_legs(mat, dims, legs):
    """The dense N x N operator mat ox 1 on the given legs (a subset, in
    order) of a tensor product with the given leg dimensions: apply_on_legs
    on the identity."""
    n = int(np.prod(dims))
    return apply_on_legs(
        mat, np.eye(n, dtype=np.result_type(mat.dtype, np.float64)),
        dims, legs)


def _column_blocks(n):
    """(column slice, those columns of the n x n identity), in blocks of at
    most _BLOCK_COLS columns."""
    for start in range(0, n, _BLOCK_COLS):
        cols = slice(start, min(start + _BLOCK_COLS, n))
        block = np.zeros((n, cols.stop - start), dtype=complex)
        block[cols] = np.eye(cols.stop - start)
        yield cols, block


def _relative(diff_sq, ref_norm):
    return np.sqrt(diff_sq) / max(ref_norm, 1e-30)


def ybe_residual(m):
    """||R12 R13 R23 - R23 R13 R12|| on m ox m ox m (relative), both sides
    applied leg by leg to column blocks of the identity."""
    r = rmat(m, m).matrix
    dims = [m.dim] * 3
    diff_sq = ref_sq = 0.0
    for _, x in _column_blocks(m.dim ** 3):
        lhs = rhs = x
        for legs in ((1, 2), (0, 2), (0, 1)):
            lhs = apply_on_legs(r, lhs, dims, legs)
        for legs in ((0, 1), (0, 2), (1, 2)):
            rhs = apply_on_legs(r, rhs, dims, legs)
        diff_sq += np.linalg.norm(lhs - rhs) ** 2
        ref_sq += np.linalg.norm(lhs) ** 2
    return _relative(diff_sq, np.sqrt(ref_sq))


def hexagon_residuals(m, n, p):
    """Residuals of (Delta ox id)(R) = R13 R23 and (id ox Delta)(R) = R13 R12,
    the right sides applied leg by leg to column blocks of the identity."""
    dims = [m.dim, n.dim, p.dim]
    lhs1 = rmat(tensor(m, n), p).matrix
    lhs2 = rmat(m, tensor(n, p)).matrix
    r12, r13, r23 = rmat(m, n).matrix, rmat(m, p).matrix, rmat(n, p).matrix
    diff1 = diff2 = 0.0
    for cols, x in _column_blocks(m.dim * n.dim * p.dim):
        rhs1 = apply_on_legs(r13, apply_on_legs(r23, x, dims, (1, 2)),
                             dims, (0, 2))
        rhs2 = apply_on_legs(r13, apply_on_legs(r12, x, dims, (0, 1)),
                             dims, (0, 2))
        diff1 += np.linalg.norm(lhs1[:, cols] - rhs1) ** 2
        diff2 += np.linalg.norm(lhs2[:, cols] - rhs2) ** 2
    return (_relative(diff1, np.linalg.norm(lhs1)),
            _relative(diff2, np.linalg.norm(lhs2)))


def ribbon_residual(m, n):
    """|| R21 R Delta(v) - v ox v || with v the ribbon element acting by
    q^{(mu, mu + 2 rho)} per isotypic block."""
    qp = m.qp
    r = rmat(m, n).matrix
    mn = tensor(m, n)
    delta_v = ribbon_diag(mn)
    if m.highest is None or n.highest is None:
        raise ConsistencyError("ribbon check needs irreducible factors")
    scal = qp.qpow(casimir_scalar(m.datum, m.highest)
                   + casimir_scalar(n.datum, n.highest))
    lhs = r21(m, n) @ r @ delta_v
    return np.linalg.norm(lhs - scal * np.eye(mn.dim)) / abs(scal)

