"""R-matrices on pairs of weight modules.

Construction: the quasi factor, an ordered product over positive roots
of the series Qt_k = sum_n c_n (E_{beta_k})^n ox (F_{beta_k})^n of
``blocks.series_blocks`` at q_b = q^{(beta_k, beta_k)/2}, composed with
the Cartan factor q^{-(wt ox wt)}.  The root vectors are
computed on the module itself along the canonical reduced word
r_1 ... r_N of w_0: with T = T_{r_1} ... T_{r_{k-1}} the product of the
module braid operators, E_{beta_k} = T E_{r_k} T^{-1} and
F_{beta_k} = T F_{r_k} T^{-1}.

R and every factor of the quasi R-matrix preserve total weight, so R is
built per total-weight block of m ox n (``qsp.blocks``): the series are
gathered and multiplied as stacked blocks.  ``RMatrix.matrix`` is the
read-only dense matrix with the blocks scattered into it; a product past
``uqrep.PRODUCT_DIM_CAP`` is refused before anything is allocated.

One convention is built and pinned by two checks on the result: it acts by
q^{-(wt xi, wt eta)} on (E-singular) ox (F-singular) vectors, which the
quasi factor fixes, and it intertwines the coproduct with its opposite on
every generator, both taken as leg matrices from ``uqrep.coproduct_terms``,
the one place the coproduct is written.  The intertwining check runs on the
blocks of R; R is scattered from them, so it has no entry between them.
``rmat(m, n)`` is kept in ``m.cache`` per n (``rootsys.kept``): a kept
R-matrix is one that passed both checks.  The YBE, hexagon and ribbon
checks multiply their sides per block of the triple or double product,
with no operator on the product formed, R21 among them as R(n, m)
gathered on the legs in reversed order; ``op_on_legs`` is
``blocks.leg_entries`` at every entry.

Independent oracle: solve the intertwining linear system, with Delta and
Delta^op formed as dense matrices, and pin the isotypic-block scalars by
the same normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (WeightBlocks, leg_blocks, leg_entries, product_blocks,
                     series_blocks, shape_runs, stack)
from .errors import ConsistencyError, UnsupportedOracleError
from .lusztig import braid_on_module
from .rootsys import beta_sequence, kept, longest_element, read_only
from .uqrep import (casimir_scalar, coproduct_terms, decompose, kron,
                    kron_sum, relative, require_product_dim, ribbon_diag,
                    tensor)

_PIN_TOL = 1e-9


def _pairings(m, n):
    """(wt_i, wt_j) over m ox n as doubles (``WeightModule.pairings``)."""
    return np.array(n.pairings(*m.numerators()))


def _cartan_factor(m, n):
    """q^{-(wt_i, wt_j)} on m ox n, flattened."""
    return (m.qp.q ** -_pairings(m, n)).reshape(-1)


@kept(lambda module: "root_vectors")
def _root_vector_mats(module):
    """(beta_k, E_beta_k, F_beta_k) along the canonical w_0 word, kept
    read-only in the module's cache."""
    datum = module.datum
    word = longest_element(datum, datum.vertices)
    betas = beta_sequence(datum, word)
    braids = {r: braid_on_module(module, r) for r in set(word.letters[:-1])}
    t = np.eye(module.dim, dtype=complex)
    out = []
    for k, (beta, r) in enumerate(zip(betas, word.letters)):
        if not k:   # T = 1
            out.append((beta, module.E[r], module.F[r]))
            continue
        t = t @ braids[word.letters[k - 1]]
        t_inv = np.linalg.inv(t)
        out.append((beta, t @ module.E[r] @ t_inv, t @ module.F[r] @ t_inv))
    return tuple(out)


def _quasi_factor(m, n):
    """Ordered product of the per-root series (``blocks.series_blocks``)
    on m ox n, as ``WeightBlocks``."""
    index = product_blocks(m, n)
    total = None
    # the beta_M factor sits leftmost; the opposite order breaks the
    # generator intertwining already for the two fundamentals of A2
    for (beta, e_m, _), (_, _, f_n) in reversed(list(zip(
            _root_vector_mats(m), _root_vector_mats(n)))):
        factor = series_blocks(index, e_m, f_n,
                               m.qp.qpow(beta.pairing(beta) / 2))
        total = factor if total is None else total @ factor
    return total


@dataclass
class RMatrix:
    matrix: np.ndarray
    convention: str


def _intertwining_residual(mat, index, m, n):
    """The max over generators x of ||R Delta(x) - Delta^op(x) R||
    (relative) on the blocks ``index`` of m ox n, with Delta^op on m ox n
    the flipped ``coproduct_terms(n, m, r)``.

    Delta(x) maps the block of weight mu to the block of mu + wt x, so on
    each such pair the sides are R_{mu + wt x} Delta(x)_{mu + wt x, mu} and
    Delta^op(x)_{mu + wt x, mu} R_mu, with every coproduct term a ox b
    gathered on the pair's entries; the pairs of one shape are stacked."""
    worst = 0.0
    for r in m.datum.vertices:
        # alpha_r: column r of the Cartan matrix, over the keys' denominator
        alpha = np.array([row[r - 1] * index.den for row in m.datum.cartan])
        # zip stops before Delta(K_r): it is one scalar on each block, so
        # only entries outside the blocks could break its intertwining
        for delta, delta_op, shift in zip(coproduct_terms(m, n, r),
                                          coproduct_terms(n, m, r),
                                          (alpha, -alpha)):
            tgt, src = index.shifted(shift)
            # the entries of the pairs (tgt, src), then of the blocks tgt
            # and src, in that order
            e_rows, e_cols, _, at = index.pair_entries(
                np.concatenate([tgt, tgt, src]),
                np.concatenate([src, tgt, src]))
            vals = mat[e_rows, e_cols]
            n_pairs, n_d = len(tgt), at[len(tgt)]
            on = (index.dims, e_rows[:n_d], e_cols[:n_d])
            d = leg_entries(*on, *([((0,), a), ((1,), b)]
                                   for a, b in delta))
            d_op = leg_entries(*on, *([((0,), a), ((1,), b)]
                                      for b, a in delta_op))
            lhs, rhs = np.empty_like(vals[:n_d]), np.empty_like(vals[:n_d])
            for p, count, x, y in shape_runs(index.sizes[tgt],
                                             index.sizes[src]):
                np.matmul(stack(vals, at[n_pairs + p], count, x, x),
                          stack(d, at[p], count, x, y),
                          out=stack(lhs, at[p], count, x, y))
                np.matmul(stack(d_op, at[p], count, x, y),
                          stack(vals, at[2 * n_pairs + p], count, y, y),
                          out=stack(rhs, at[p], count, x, y))
            scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-30)
            worst = max(worst, np.linalg.norm(lhs - rhs) / scale)
    return float(worst)


@kept(lambda module, gens: ("killed", gens))
def _killed(module, gens):
    """Indices of the basis vectors that every matrix of ``gens`` (E or F)
    kills, kept in the module's cache: the E- or F-singular vectors."""
    mats = np.array(list(getattr(module, gens).values()))
    norms = np.sqrt((mats.real ** 2 + mats.imag ** 2).sum(axis=1))
    return tuple(np.flatnonzero((norms < 1e-10).all(axis=0)).tolist())


def _extremal_pairs(m, n):
    """[(index in m ox n, q^{-(wt xi, wt eta)})] over E-singular xi in m and
    F-singular eta in n."""
    pairs = [(i * n.dim + j,
              m.qp.qpow(-m.weights[i].pairing(n.weights[j])))
             for i in _killed(m, "E") for j in _killed(n, "F")]
    if not pairs:
        raise ConsistencyError("no extremal vectors to pin the convention")
    return pairs


def _normalization_residual(mat, m, n):
    """Deviation from R(xi ox eta) = q^{-(wt xi, wt eta)} xi ox eta over all
    E-singular xi in m and F-singular eta in n."""
    idx, want = map(list, zip(*_extremal_pairs(m, n)))
    cols = mat[:, idx]
    on = (idx, range(len(idx)))
    dev = np.max(np.abs(cols[on] - want))
    cols[on] = 0.0
    return float(max(dev, np.max(np.abs(cols))))


@kept(lambda m, n: ("rmat", n))
def rmat(m, n):
    """R-matrix on m ox n: quasi factor times Cartan factor, built on the
    total-weight blocks and checked against the extremal normalization and
    the generator intertwining."""
    require_product_dim(m.dim, n.dim)
    quasi = _quasi_factor(m, n)
    cols = quasi.layout.entries[1]
    mat = read_only(WeightBlocks(
        quasi.layout, quasi.data * _cartan_factor(m, n)[cols]).dense())
    norm = _normalization_residual(mat, m, n)
    inter = _intertwining_residual(mat, quasi.layout, m, n)
    if not (norm < _PIN_TOL and inter < _PIN_TOL):
        raise ConsistencyError(
            f"R-matrix on {m.label} ox {n.label} fails its checks: "
            f"normalization residual {norm:.3g}, intertwining residual "
            f"{inter:.3g} (tolerance {_PIN_TOL:g})")
    return RMatrix(mat, "R")


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
            rows.append(kron(np.eye(dim), d.T) - kron(dop, np.eye(dim)))
    system = np.vstack(rows)
    _, s, vh = np.linalg.svd(system)
    null_dim = int(np.sum(s < 1e-8 * s[0]))
    if null_dim == 0:
        raise ConsistencyError("intertwining system has no solution")
    basis = vh.conj().T[:, -null_dim:]
    # pin by the normalization on extremal vectors
    eqs, rhs = [], []
    for idx, want in _extremal_pairs(m, n):
        for out in range(dim):
            eqs.append(basis[out * dim + idx, :])
            rhs.append(want if out == idx else 0.0)
    sol, *_ = np.linalg.lstsq(np.array(eqs), np.array(rhs), rcond=None)
    mat = (basis @ sol).reshape(dim, dim)
    resid = _normalization_residual(mat, m, n)
    if resid > 1e-7:
        raise ConsistencyError(f"oracle normalization residual {resid}")
    return RMatrix(mat, "oracle")


def op_on_legs(mat, dims, legs):
    """The dense N x N operator mat ox 1 on the given legs (a subset, in
    order) of a tensor product with the given leg dimensions, N = prod(dims):
    ``blocks.leg_entries`` at every row and column."""
    idx = np.arange(int(np.prod(dims)))
    return leg_entries(dims, idx[:, None], idx, [(legs, mat)])


def ybe_residual(m):
    """||R12 R13 R23 - R23 R13 R12|| on m ox m ox m (relative), both sides
    multiplied per total-weight block of the triple product."""
    r = rmat(m, m).matrix
    index = product_blocks(m, m, m)
    r12, r13, r23 = (leg_blocks(index, legs, r)
                     for legs in ((0, 1), (0, 2), (1, 2)))
    lhs = r12 @ r13 @ r23
    return relative((lhs - r23 @ r13 @ r12).data, lhs.data)


def hexagon_residuals(m, n, p):
    """Residuals of (Delta ox id)(R) = R13 R23 and (id ox Delta)(R) = R13 R12,
    both sides per total-weight block of m ox n ox p."""
    index = product_blocks(m, n, p)

    def on(legs, a, b):
        return leg_blocks(index, legs, rmat(a, b).matrix)

    lhs1 = on((0, 1, 2), tensor(m, n), p)
    lhs2 = on((0, 1, 2), m, tensor(n, p))
    r12, r13, r23 = on((0, 1), m, n), on((0, 2), m, p), on((1, 2), n, p)
    return (relative((lhs1 - r13 @ r23).data, lhs1.data),
            relative((lhs2 - r13 @ r12).data, lhs2.data))


def ribbon_residual(m, n):
    """|| R21 R Delta(v) - v ox v || with v the ribbon element acting by
    q^{(mu, mu + 2 rho)} per isotypic block, per total-weight block of
    m ox n."""
    qp = m.qp
    r = rmat(m, n).matrix
    delta_v = ribbon_diag(tensor(m, n))
    if m.highest is None or n.highest is None:
        raise ConsistencyError("ribbon check needs irreducible factors")
    scal = qp.qpow(casimir_scalar(m.datum, m.highest)
                   + casimir_scalar(n.datum, n.highest))
    index = product_blocks(m, n)
    lhs = leg_blocks(index, (1, 0), rmat(n, m).matrix) \
        @ leg_blocks(index, (0, 1), r) @ leg_blocks(index, (0, 1), delta_v)
    return (lhs - scal * leg_blocks(index)).norm() / abs(scal)
