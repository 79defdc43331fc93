"""Operators that preserve total weight on a tensor product, kept as their
weight blocks (Jantzen, Lectures on Quantum Groups, ch. 5): R, Delta(v),
every factor of the quasi R-matrix and the twist braid.

A leg is a ``WeightModule``, keyed by its exact weights (integer rows over
one denominator, any rank), or a ladder of ``qsp.vogan10``, keyed by its
H-eigenvalues (rank one, sums rounded to 9 digits).  ``product_blocks``
groups the product basis by total weight into a ``BlockIndex``;
``WeightBlocks`` keeps an operator as the flat array of its block entries,
the blocks of one size contiguous and unpadded, so a product is one batched
matmul per block size.  ``leg_blocks`` gathers the blocks of an operator
on some legs from its small factors, and ``BlockIndex.shifted`` pairs the
blocks that an operator moving the weight by a fixed shift maps between.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError
from .uqrep import WeightModule, read_only


def _leg_keys(leg):
    """(keys, den): the weights of a leg's basis as rows over den, exact
    integers for a weight module and the H-eigenvalues over 1 for a
    ladder; kept in the module's cache."""
    if not isinstance(leg, WeightModule):
        return leg.h_diag[:, None], 1
    key = ("weight_keys",)
    if key not in leg.cache:
        rows, den = leg.numerators()
        leg.cache[key] = (read_only(np.array(rows, dtype=np.int64)), den)
    return leg.cache[key]


def _rounded(keys):
    """Float keys rounded to 9 digits; integer keys unchanged."""
    return np.round(keys, 9) if keys.dtype.kind == "f" else keys


def _sum_keys(keys):
    """Total weight keys of the product basis (first leg major) of legs
    with the given keys, summed from the first leg on."""
    out = keys[0]
    for k in keys[1:]:
        out = (out[:, None, :] + k[None, :, :]).reshape(-1, k.shape[1])
    return _rounded(out)


def _codes(keys):
    """One number per row of keys, equal for equal rows: the rows read as
    mixed-radix integers (a rank-one key is its own code)."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    low = keys.min(axis=0)
    radix = keys.max(axis=0) - low + 1
    return (keys - low) @ np.concatenate(([1], np.cumprod(radix[:-1])))


def shape_runs(a, b):
    """The runs of equal shape (a[p], b[p]) in a list of blocks sorted by
    shape, as (first, count, a, b)."""
    runs, first = [], 0
    # one integer per shape, so that no tuple is made per block
    for _, run in itertools.groupby((a * (b.max(initial=0) + 1)
                                        + b).tolist()):
        count = len(list(run))
        runs.append((first, count, int(a[first]), int(b[first])))
        first += count
    return runs


@dataclass(frozen=True, eq=False)
class BlockIndex:
    """The total-weight blocks of a tensor product.  ``dims`` and ``keys``
    are those of its legs, the keys over the common denominator ``den``.
    Block b holds the basis indices members[starts[b]:starts[b] + sizes[b]],
    increasing, and has the total weight block_keys[b]; the blocks are
    numbered by size, then by first appearance."""

    dims: tuple
    keys: tuple
    den: int
    members: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    block_keys: np.ndarray

    @cached_property
    def groups(self):
        """The blocks of each size, increasing, as integer arrays of shape
        (count, size) whose rows are their indices."""
        return tuple(read_only(self.members[
            self.starts[first:first + count, None] + np.arange(size)])
            for first, count, size, _ in shape_runs(self.sizes, self.sizes))

    @cached_property
    def entries(self):
        """(rows, cols, spans): the row and the column of every block entry,
        in the order of ``WeightBlocks.data``, and (start, count, size,
        size) of the blocks of each size in it."""
        blocks = np.arange(len(self.sizes))
        rows, cols, _, at = self.pair_entries(blocks, blocks)
        spans = tuple((int(at[first]), count, size, size) for first, count,
                      size, _ in shape_runs(self.sizes, self.sizes))
        return read_only(rows), read_only(cols), spans

    def pair_entries(self, tgt, src):
        """(rows, cols, pair, at): the row and the column of every entry of
        the rectangular blocks (tgt[p], src[p]) of an operator, each
        row-major and in the order of p, the p of each entry, and where
        each block's entries start, with their total last."""
        a, b = self.sizes[tgt], self.sizes[src]
        at = np.concatenate(([0], np.cumsum(a * b)))
        pair = np.repeat(np.arange(len(a)), a * b)
        local = np.arange(at[-1]) - at[pair]
        row, col = divmod(local, b[pair])
        return (self.members[self.starts[tgt][pair] + row],
                self.members[self.starts[src][pair] + col], pair, at)

    def shifted(self, shift):
        """The pairs of blocks an operator moving the total weight by
        ``shift`` (a key row) maps between: arrays (t, s) with
        block_keys[t] = block_keys[s] + shift (rounded like the keys of a
        ladder), sorted stably by the shape (sizes[t], sizes[s])."""
        n_blocks = len(self.sizes)
        shifted = _rounded(self.block_keys + shift)
        codes = _codes(np.concatenate([self.block_keys, shifted])).tolist()
        block_of = dict(zip(codes[:n_blocks], range(n_blocks)))
        tgt = [block_of.get(code, -1) for code in codes[n_blocks:]]
        src = [s for s in range(n_blocks) if tgt[s] >= 0]
        # sort by one integer per shape, so that no tuple is made per block
        sizes, span = self.sizes.tolist(), int(self.sizes.max()) + 1
        src.sort(key=lambda s: sizes[tgt[s]] * span + sizes[s])
        return (np.array([tgt[s] for s in src], dtype=np.intp),
                np.array(src, dtype=np.intp))


def product_blocks(*legs):
    """The total-weight blocks of legs[0] ox legs[1] ox ..., as a
    ``BlockIndex``: the basis grouped by total weight in one pass over it."""
    pairs = [_leg_keys(leg) for leg in legs]
    den = math.lcm(*[d for _, d in pairs])
    keys = tuple(k if d == den else k * (den // d) for k, d in pairs)
    total = _sum_keys(keys)
    weights = {}   # total weight -> basis indices, by first appearance
    for i, code in enumerate(_codes(total).tolist()):
        weights.setdefault(code, []).append(i)
    # by size, then by first appearance (the sort is stable)
    blocks = sorted(weights.values(), key=len)
    sizes = np.array([len(block) for block in blocks])
    members = np.fromiter(itertools.chain.from_iterable(blocks),
                          dtype=np.intp, count=len(total))
    starts = np.cumsum(sizes) - sizes
    return BlockIndex(tuple(len(k) for k in keys), keys, den,
                      read_only(members), read_only(starts),
                      read_only(sizes), read_only(total[members[starts]]))


def shift_maxima(mat, keys):
    """{weight shift: largest |entry|} over the nonzero entries of mat, an
    operator on a basis with the weight keys ``keys``; shifts as tuples."""
    rows, cols = np.nonzero(mat)
    if not len(rows):
        return {}
    shifts = _rounded(keys[rows] - keys[cols])
    vals = np.abs(mat[rows, cols])
    if not shifts.any():   # an operator that keeps the weight
        return {(0,) * shifts.shape[1]: float(vals.max())}
    codes = _codes(shifts)
    out = {}
    for code in set(codes.tolist()):
        hit = codes == code
        out[tuple(shifts[hit][0].tolist())] = float(vals[hit].max())
    return out


def leg_blocks(index, factors):
    """Weight blocks of the operator that acts by ``mat`` on the legs of
    each (legs, mat) in ``factors`` (legs in order, as in ``op_on_legs``)
    and as the identity on every other leg of the product of ``index``.

    No operator on the product is formed: the blocks are gathered from the
    factors, and ``off_block`` is the largest entry of the product outside
    the blocks (every combination of factor entries whose weight shifts do
    not sum to 0), read from the nonzero entries of each factor."""
    rows, cols, _ = index.entries
    dims = index.dims
    rdig, cdig = np.unravel_index(rows, dims), np.unravel_index(cols, dims)
    data = np.ones(rows.shape, dtype=complex)
    reach = {(0,) * index.keys[0].shape[1]: 1.0}   # total shift -> largest
    for legs, mat in factors:
        sub = [dims[leg] for leg in legs]
        data *= mat[np.ravel_multi_index([rdig[leg] for leg in legs], sub),
                    np.ravel_multi_index([cdig[leg] for leg in legs], sub)]
        maxima = shift_maxima(mat, _sum_keys([index.keys[i] for i in legs]))
        nxt = {}
        for s0, v0 in reach.items():
            for s1, v1 in maxima.items():
                key = tuple(_rounded(np.add(s0, s1)).tolist())
                nxt[key] = max(nxt.get(key, 0.0), v0 * v1)
        reach = nxt
    for leg in set(range(len(dims))) - {leg for legs, _ in factors
                                        for leg in legs}:
        data *= rdig[leg] == cdig[leg]
    off = max((val for shift, val in reach.items() if any(shift)),
              default=0.0)
    return WeightBlocks(index, data, off)


def stack(data, start, count, rows, cols):
    """The ``count`` blocks of shape (rows, cols) stored from ``start`` on
    in a flat array, as a view of shape (count, rows, cols)."""
    return data[start:start + count * rows * cols].reshape(count, rows, cols)


@dataclass(frozen=True, eq=False)
class WeightBlocks:
    """An operator on a tensor product that preserves total weight, kept as
    its weight blocks: ``data`` holds the block entries in the order of
    ``layout.entries``.  ``off_block`` is the largest entry, outside the
    blocks, of the dense factors the operator was gathered from: 0.0 when
    nothing was dropped.  Products and differences need both operands on
    the same blocks."""

    layout: BlockIndex
    data: np.ndarray
    off_block: float = 0.0

    @property
    def index(self):
        return self.layout.groups

    @property
    def stacks(self):
        """The blocks of each size, shape (count, size, size): views of
        ``data``."""
        return tuple(stack(self.data, *span)
                     for span in self.layout.entries[2])

    def _same(self, other):
        mine, theirs = self.layout, other.layout
        if mine is not theirs and not (
                np.array_equal(mine.sizes, theirs.sizes)
                and np.array_equal(mine.members, theirs.members)):
            raise ConsistencyError("operators on different weight blocks")
        return max(self.off_block, other.off_block)

    def __matmul__(self, other):
        off = self._same(other)
        out = np.empty(self.data.shape,
                       dtype=np.result_type(self.data, other.data))
        for a, b, c in zip(self.stacks, other.stacks,
                           WeightBlocks(self.layout, out).stacks):
            np.matmul(a, b, out=c)
        return WeightBlocks(self.layout, out, off)

    def __sub__(self, other):
        off = self._same(other)
        return WeightBlocks(self.layout, self.data - other.data, off)

    def __rmul__(self, scalar):
        return WeightBlocks(self.layout, scalar * self.data, self.off_block)

    def norm(self):
        """Frobenius norm."""
        return float(np.linalg.norm(self.data))

    def masked_norm(self, n_interior):
        """Frobenius norm of the entries whose row and column indices are
        both below n_interior."""
        rows, cols, spans = self.layout.entries
        inside = (rows < n_interior) & (cols < n_interior)
        return math.sqrt(sum(np.sum(np.abs(stack(self.data, *span)[
            stack(inside, *span)]) ** 2) for span in spans))

    def dense(self):
        """The operator as a dense matrix: the blocks scattered, zero
        elsewhere."""
        dim = math.prod(self.layout.dims)
        out = np.zeros((dim, dim), dtype=complex)
        rows, cols, _ = self.layout.entries
        out[rows, cols] = self.data
        return out
