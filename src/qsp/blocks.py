"""The one block layer of qsp: operators kept as their blocks.

R, Delta(v), every factor of the quasi R-matrix and the twist braid preserve
total weight on a tensor product (Jantzen, Lectures on Quantum Groups,
ch. 5); the 2-cyclotomic KZ coefficients commute with k, so they preserve
total k-weight (Enriquez, Selecta Math. 2008).  A ``BlockIndex`` numbers
its blocks by size, then by first appearance.  ``product_blocks`` keys them
by total weight, every leg by its exact ``numerators()``: integer rows
over one denominator (a ladder of ``qsp.vogan10`` by its integer levels,
the weight plus r); ``pattern_blocks`` takes the connected
components of a nonzero pattern, for the KZ matrices, which carry no
weights.

Each side keeps the stacking that is faster on its blocks (one batched
matmul; 2 cores, one BLAS thread).  The R-matrix and the Vogan side keep
``WeightBlocks`` in per-size runs (``entries``), unpadded, one matmul per
size: 150 us against 411 us padded on A2 [2,2] ox [2,2], 3.2 ms against
12.6 ms on A3 adjoint ox adjoint ox adjoint.  The KZ series gathers into
padded first-fit slots (``packed``): its blocks come in pairs of sizes
1, ..., D-1 plus one of size D, so they fill D slots exactly; 3 jobs x 2
terms took 15 us against 31 us in per-size runs at D = 4, 55 us against
92 us at D = 9.  Padded slots also win on small R products (largest block
up to 13), so neither stacking wins everywhere, and no size cut switches
between them: that would be a second path on each side.  There is one
gather from the factors on some legs, ``leg_entries``, and one rank-one
q-exponential series, ``series_blocks``; ``BlockIndex.shifted`` pairs the
blocks that an operator moving the weight by a fixed shift maps between.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConsistencyError, ResourceError
from .rootsys import kept, qint, read_only


@kept(lambda leg: ("weight_keys",))
def _weight_keys(leg):
    """(keys, den): the exact weights of a leg's basis, integer rows over
    den."""
    rows, den = leg.numerators()
    return np.array(rows, dtype=np.int64), den


def _sum_keys(keys):
    """Total weight keys of the product basis (first leg major) of legs
    with the given keys, summed from the first leg on."""
    out = keys[0]
    for k in keys[1:]:
        out = (out[:, None, :] + k[None, :, :]).reshape(-1, k.shape[1])
    return out


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
    """The blocks of an operator on a tensor product.  ``dims`` and
    ``keys`` are those of its legs, the keys over the common denominator
    ``den``.  Block b holds the basis indices
    members[starts[b]:starts[b] + sizes[b]], increasing, and has the key
    block_keys[b] (its total weight, or for a pattern its smallest index);
    the blocks are numbered by size, then by first appearance."""

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
        (count, size) whose rows are their indices: read-only views of
        ``members``."""
        return tuple(self.members[self.starts[first]:][:count * size].reshape(
            count, size) for first, count, size, _ in shape_runs(self.sizes,
                                                                 self.sizes))

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

    @cached_property
    def packed(self):
        """The blocks packed first-fit, largest first, into slots as wide as
        the largest: the flat index row * N + col of every slot entry in an
        N x N operator, shape (slots, width, width), N * N on the padding."""
        n, width, slots = math.prod(self.dims), int(self.sizes[-1]), []
        for block in itertools.chain(*(g.tolist() for g in self.groups[::-1])):
            fit = next((s for s in slots if len(s) + len(block) <= width), [])
            if not fit:
                slots.append(fit)
            fit.extend(block)
        idx = np.array([s + [n] * (width - len(s)) for s in slots])
        rows, cols = idx[:, :, None], idx[:, None, :]
        return read_only(np.where((rows < n) & (cols < n), rows * n + cols,
                                  n * n))

    def gather(self, mats):
        """The ``packed`` slots of N x N operators mats (..., N, N); the
        padding reads 0."""
        lead = mats.shape[:-2]
        return np.concatenate((mats.reshape(*lead, -1), np.zeros(
            (*lead, 1), mats.dtype)), -1).take(self.packed, axis=-1)

    def scatter(self, slots):
        """The N x N operators whose ``packed`` slots are ``slots``, zero
        outside the blocks."""
        n, lead = math.prod(self.dims), slots.shape[:-3]
        full = np.zeros((*lead, n * n + 1), dtype=slots.dtype)
        full[..., self.packed] = slots
        return full[..., :-1].reshape(*lead, n, n)

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
        block_keys[t] = block_keys[s] + shift, sorted stably by the shape
        (sizes[t], sizes[s])."""
        n_blocks = len(self.sizes)
        codes = _codes(np.concatenate([self.block_keys,
                                       self.block_keys + shift])).tolist()
        block_of = dict(zip(codes[:n_blocks], range(n_blocks)))
        tgt = [block_of.get(code, -1) for code in codes[n_blocks:]]
        src = [s for s in range(n_blocks) if tgt[s] >= 0]
        # sort by one integer per shape, so that no tuple is made per block
        sizes, span = self.sizes.tolist(), int(self.sizes.max()) + 1
        src.sort(key=lambda s: sizes[tgt[s]] * span + sizes[s])
        return (np.array([tgt[s] for s in src], dtype=np.intp),
                np.array(src, dtype=np.intp))


def _grouped(dims, keys, den, total):
    """The ``BlockIndex`` of the basis grouped by equal rows of ``total``,
    in one pass over it: its blocks by size, then by first appearance."""
    weights = {}   # key -> basis indices, by first appearance
    for i, code in enumerate(_codes(total).tolist()):
        weights.setdefault(code, []).append(i)
    blocks = sorted(weights.values(), key=len)   # stable
    sizes = np.array([len(block) for block in blocks])
    members = np.fromiter(itertools.chain.from_iterable(blocks),
                          dtype=np.intp, count=len(total))
    starts = np.cumsum(sizes) - sizes
    return BlockIndex(dims, keys, den, read_only(members), read_only(starts),
                      read_only(sizes), read_only(total[members[starts]]))


def product_blocks(*legs):
    """The total-weight blocks of legs[0] ox legs[1] ox ..., as a
    ``BlockIndex``."""
    pairs = [_weight_keys(leg) for leg in legs]
    den = math.lcm(*[d for _, d in pairs])
    keys = tuple(k if d == den else k * (den // d) for k, d in pairs)
    return _grouped(tuple(len(k) for k in keys), keys, den, _sum_keys(keys))


def pattern_blocks(pattern):
    """The connected components of a square boolean pattern, read as an
    undirected graph, as the ``BlockIndex`` of one leg keyed by the smallest
    index of each component (min-label spread with pointer jumping)."""
    adj, lab = pattern | pattern.T, np.arange(len(pattern))
    while True:
        low = np.minimum(lab, np.where(adj, lab, len(lab)).min(axis=1))
        if np.array_equal(low, lab):
            return _grouped((len(lab),), (lab[:, None],), 1, lab[:, None])
        lab = np.minimum(low, low[low])


def shift_maxima(mat, keys):
    """{weight shift: largest |entry|} over the nonzero entries of mat, an
    operator on a basis with the weight keys ``keys``; shifts as tuples."""
    rows, cols = np.nonzero(mat)
    if not len(rows):
        return {}
    shifts = keys[rows] - keys[cols]
    vals = np.abs(mat[rows, cols])
    if not shifts.any():   # an operator that keeps the weight
        return {(0,) * shifts.shape[1]: float(vals.max())}
    codes = _codes(shifts)
    out = {}
    for code in set(codes.tolist()):
        hit = codes == code
        out[tuple(shifts[hit][0].tolist())] = float(vals[hit].max())
    return out


def moves_only_by(mat, keys, shift):
    """True when every nonzero entry of the complex mat, on a basis with the
    weight keys ``keys``, moves the weight by ``shift`` as ``shift_maxima``
    reads it: the nonzero real and imaginary parts (an entry is zero exactly
    when both are) are counted in all and on the pairs of basis vectors that
    ``shift`` joins, so that no index of them is formed."""
    index = _grouped((len(keys),), (keys,), 1, keys)
    rows, cols = index.pair_entries(*index.shifted(shift))[:2]
    band = (keys[rows] - keys[cols] == shift).all(axis=1)
    return np.count_nonzero(mat[rows[band], cols[band]].view(float)) \
        == np.count_nonzero(mat.view(float))


def leg_entries(dims, rows, cols, *terms):
    """Entries (rows, cols) of the sum, in order, of the operators on the
    product of legs of dimensions ``dims`` (first leg major), one per term,
    that act by ``mat`` on the legs of each (legs, mat) in the term (legs in
    order) and as the identity on every other leg; rows and cols are
    decoded once."""
    on = (dims, np.unravel_index(rows, dims), np.unravel_index(cols, dims))
    out = _leg_entries(*on, terms[0])
    for factors in terms[1:]:
        out = out + _leg_entries(*on, factors)
    return out


def _leg_entries(dims, rdig, cdig, factors):
    """One term of ``leg_entries`` on the digits of its rows and columns."""
    data = np.ones(np.broadcast(rdig[0], cdig[0]).shape,
                   np.result_type(float, *(mat for _, mat in factors)))
    for legs, mat in factors:
        data *= mat[_on_legs(rdig, dims, legs), _on_legs(cdig, dims, legs)]
    for leg in set(range(len(dims))) - {leg for legs, _ in factors
                                        for leg in legs}:
        data[rdig[leg] != cdig[leg]] = 0.0
    return data


def _on_legs(digits, dims, legs):
    """The index on the product of ``legs`` (in order) of the digits."""
    out = digits[legs[0]]
    for leg in legs[1:]:
        out = out * dims[leg] + digits[leg]
    return out


def leg_blocks(index, legs=(), mat=None):
    """The blocks of the operator on the product of ``index`` that acts by
    ``mat`` on ``legs`` (in order) and as the identity on every other leg
    (the identity when mat is None), gathered without forming it;
    ``off_block`` is its largest entry that moves the weight, read from the
    nonzero entries of mat."""
    rows, cols, _ = index.entries
    if mat is None:
        return WeightBlocks(index, leg_entries(index.dims, rows, cols, []))
    maxima = shift_maxima(mat, _sum_keys([index.keys[i] for i in legs]))
    off = max((val for shift, val in maxima.items() if any(shift)),
              default=0.0)
    return WeightBlocks(index, leg_entries(index.dims, rows, cols,
                                           [(legs, mat)]), off)


def series_blocks(index, x, y, q_b):
    """The blocks of sum_k c_k x^k ox y^k on the two legs of ``index`` (x
    and y move the weight oppositely), c_0 = 1 and c_k = c_{k-1}
    (q_b^{-1} - q_b) q_b^{-(k-1)} / [k]_{q_b}, up to the first vanishing
    power of y, then of x, and at most len(x) + len(y) terms."""
    rows, cols, _ = index.entries
    on = (index.dims, np.unravel_index(rows, index.dims),
          np.unravel_index(cols, index.dims))
    acc = _leg_entries(*on, [((0,), np.eye(len(x), dtype=complex)),
                             ((1,), np.eye(len(y), dtype=complex))])
    coeff = 1.0
    for k in range(1, len(x) + len(y) + 1):
        y_pow = y if k == 1 else y_pow @ y
        if np.linalg.norm(y_pow) < 1e-300:
            break
        x_pow = x if k == 1 else x_pow @ x
        if np.linalg.norm(x_pow) < 1e-300:
            break
        coeff *= (1 / q_b - q_b) * q_b ** -(k - 1) / qint(k, q_b)
        acc += coeff * _leg_entries(*on, [((0,), x_pow), ((1,), y_pow)])
    return WeightBlocks(index, acc)


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
        both below n_interior; ResourceError if it overflows."""
        rows, cols, spans = self.layout.entries
        inside = (rows < n_interior) & (cols < n_interior)
        out = math.sqrt(sum(np.sum(np.abs(stack(self.data, *span)[
            stack(inside, *span)]) ** 2) for span in spans))
        if not math.isfinite(out):
            raise ResourceError("a masked norm overflows double precision")
        return out

    def dense(self):
        """The operator as a dense matrix: the blocks scattered, zero
        elsewhere."""
        dim = math.prod(self.layout.dims)
        out = np.zeros((dim, dim), dtype=complex)
        rows, cols, _ = self.layout.entries
        out[rows, cols] = self.data
        return out
