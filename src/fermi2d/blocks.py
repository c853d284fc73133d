"""Four-legged kernels on their conservation support, in pair blocks.

The ladder path keeps its kernels here instead of in dense n^4 arrays:
PairBlocks groups the support into dense blocks, and BlockKernel holds a
kernel as its support vector, with the dense operations of the ladder path
as gathers: each one leg swap of the support (PairBlocks.swap) or a product
of them (the inversion check reverses the legs by two swaps, and
ph_antisymmetric projects an undirected kernel onto the ph entries of
antisymmetric kernels by the two swaps that keep their bars), or, between
a directed space and its undirected partner, the reduce_ph gather.
BlockKernel.random draws a kernel on the support from the standard
library's random.Random, so its values do not depend on numpy.

The support depends only on a space's leg signature: its grid, its
direction and the (field, k, spin, bar) of every leg.  Sectors do not enter
it, so the spaces of every scale of a ladder scheme whose legs agree up to
their sectors share one PairBlocks (KernelSpace.pair_blocks), with its
cached gathers; the grid keeps one instance per signature.  Its build
sorts: the momentum classes of the pair sums come from sorts along each
axis (_classes), the blocks from one stable argsort of the row keys and
one of the column keys (_groups), with no all-pairs table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import List, Tuple

import numpy as np

from .kernels import Kernel4, KernelSpace, MomentumGrid, zero_kernel


def _classes(P: np.ndarray) -> np.ndarray:
    """Class of every row of P (one momentum per row): the first row within
    1e-9 of it on every axis, as in conservation_mask; ValueError when that
    closeness does not split the rows into classes.  Groups split at each
    gap of at least 1e-9 along one axis, then the next, until no axis splits
    one; rows within 1e-9 on every axis stay together, and the all-pairs
    check runs within each (small) group."""
    group = np.zeros(len(P), dtype=np.intp)
    ax = clean = 0  # clean: axes passed in a row with no split
    while clean < 3:
        order = np.lexsort((P[:, ax], group))
        cut = np.r_[True, (np.diff(group[order]) != 0)
                    | (np.diff(P[order, ax]) >= 1e-9)]
        clean = clean + 1 if cut.sum() == group.max() + 1 else 1
        group[order] = np.cumsum(cut) - 1
        ax = (ax + 1) % 3
    order = np.argsort(group, kind="stable")
    cls = np.arange(len(P))
    for g in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
        close = (np.abs(P[g, None] - P[None, g]) < 1e-9).all(axis=2)
        first = close.argmax(axis=1)
        if not np.array_equal(close, first[:, None] == first):
            raise ValueError("grid momentum sums within the conservation "
                             "tolerance of each other do not form classes")
        cls[g] = g[first]
    return cls


def _groups(key: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The distinct values of key, ascending, and the ascending positions of
    each: one stable argsort, split where the key changes."""
    order = np.argsort(key, kind="stable")
    values, starts = np.unique(key[order], return_index=True)
    return values, np.split(order, starts[1:])


class PairBlocks:
    """The momentum- and number-conservation support of a leg signature,
    grouped into pair blocks.

    legs holds one (field, k, spin, bar) row per leg, in the leg order of
    the spaces that share the instance (KernelSpace.pair_blocks).  Read as an
    n^2 x n^2 matrix over ordered leg pairs, a kernel on the support joins
    the row pair (a, b) only to column pairs (c, d) of opposite signed pair
    momentum and complementary bar count, with the signs of
    conservation_mask ((-1)^bar on directed spaces, (+, -, -, +) on
    undirected ones).  A row pair has the key (class of s_a k_a + s_b k_b,
    bar count), a column pair (class of -(s_c k_c + s_d k_d), 2 - bar count)
    (bar counts 0 on undirected spaces); one dense block per shared key.
    The column pairs of block t are the row pairs of block col_rows[t]
    (block t itself on undirected spaces), and cols[t] is that array.  A
    support vector holds the blocks one after another, each row-major over
    its ascending row and column pairs; flat is the dense flat index of
    every entry.  Four n^2-entry int32 pair tables place every ordered leg
    pair: the block holding it as a row pair, the block holding it as a
    column pair (-1 if none), its position in both, and, as a row pair, the
    support index at which its row starts.  The leg swaps and the reduce_ph
    gather are lookups in them.
    """

    def __init__(self, grid: MomentumGrid, directed: bool, legs: np.ndarray):
        self.grid, self.directed, self.legs = grid, directed, legs
        n = self.n = len(legs)
        # class of every signed sum s k_i + t k_j of two grid momenta
        K = np.stack([grid.k0, grid.kx, grid.ky], axis=1)
        SK = np.stack([K, -K], axis=1)
        P = (SK[:, :, None, None, :] + SK[None, None, :, :, :]).reshape(-1, 3)
        cls = _classes(P).reshape(len(K), 2, len(K), 2)
        k, bar = legs[:, 1], legs[:, 3]
        # leg signs, broadcast over the (first leg, second leg) pair axes
        s, nbar = ([bar[:, None], bar] * 2, 2) if directed \
            else ([0, 1, 1, 0], 0)
        row_key = 3 * cls[k[:, None], s[0], k, s[1]] + bar[:, None] + bar
        col_key = 3 * cls[k[:, None], 1 - s[2], k, 1 - s[3]] \
            + nbar - bar[:, None] - bar
        row_keys, rows = _groups(row_key.ravel())
        col_keys, cols = _groups(col_key.ravel())
        # the keys both sides share (np.intersect1d would import numpy.ma)
        shared = np.isin(row_keys, col_keys)
        self.keys, self.rows = row_keys[shared], list(compress(rows, shared))
        cols = list(compress(cols, np.isin(col_keys, row_keys)))
        # a column key is the row key of the negated pair momentum and the
        # complementary bar count: the column pairs of a block are the row
        # pairs of one block
        self.col_rows = np.searchsorted(self.keys,
                                        row_key.ravel()[[c[0] for c in cols]])
        if not all(np.array_equal(c, self.rows[u])
                   for c, u in zip(cols, self.col_rows)):
            raise RuntimeError("pair-block columns are not the rows of a block")
        self.cols = [self.rows[u] for u in self.col_rows]
        self.offsets = np.cumsum([0] + [len(r) * len(c) for r, c
                                        in zip(self.rows, self.cols)])
        self.size = int(self.offsets[-1])
        self.flat = np.concatenate([(r[:, None] * n * n + c).ravel()
                                    for r, c in zip(self.rows, self.cols)])
        # one position table serves rows and cols: a pair has one position
        # in rows[t] and in cols[t'], the same array
        self._row_block = np.full(n * n, -1, dtype=np.int32)
        self._col_block = np.full(n * n, -1, dtype=np.int32)
        self._pos = np.zeros(n * n, dtype=np.int32)
        self._row_start = np.zeros(n * n, dtype=np.int32)
        for t, (r, c) in enumerate(zip(self.rows, self.cols)):
            self._row_block[r] = self._col_block[c] = t
            self._pos[r] = np.arange(len(r))
            self._row_start[r] = self.offsets[t] + self._pos[r] * len(c)
        self._swaps: dict = {}

    @classmethod
    def shared(cls, grid: MomentumGrid, directed: bool,
               legs: np.ndarray) -> "PairBlocks":
        """The instance of the signature (grid, directed, legs), kept in
        grid.pair_blocks and built on first use."""
        legs = np.ascontiguousarray(legs, dtype=np.int64)
        key = (directed, legs.tobytes())
        if key not in grid.pair_blocks:
            grid.pair_blocks[key] = cls(grid, directed, legs)
        return grid.pair_blocks[key]

    def __len__(self):
        return len(self.keys)

    def span(self, t: int) -> slice:
        return slice(self.offsets[t], self.offsets[t + 1])

    def swap(self, i: int, k: int) -> np.ndarray:
        """Gather index (int32) of values.swapaxes(i, k) on the support,
        cached per (i, k); ValueError when the support is not closed under
        the swap.  Every entry's legs, with legs i and k exchanged, make a
        row pair and a column pair, which the pair tables place in a block:
        the swapped entry lies on the support when both lie in the same
        block, and its index is the start of the row plus the position of
        the column."""
        if (i, k) not in self._swaps:
            n = self.n
            legs = [leg.astype(np.int32)
                    for leg in np.unravel_index(self.flat, (n,) * 4)]
            legs[i], legs[k] = legs[k], legs[i]
            r, c = legs[0] * n + legs[1], legs[2] * n + legs[3]
            t = self._row_block[r]
            if not np.all((t >= 0) & (t == self._col_block[c])):
                raise ValueError("legs not on the support: the support is "
                                 "not closed under their permutation")
            self._swaps[i, k] = self._row_start[r] + self._pos[c]
        return self._swaps[i, k]

    @cached_property
    def ph(self) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Per pair block of the undirected partner (directed signatures):
        the block t holding it here, and its row and column positions in
        block t, the row pairs of bars (0, 1) and the column pairs of bars
        (1, 0) that reduce_ph reads.

        The undirected partner has the bar-0 legs, in order.  Legs sort by
        (field, k, spin, bar, sector) and every internal sector has both
        bars, so the m-th undirected leg is the m-th bar-0 leg and the m-th
        bar-1 leg here (KernelSpace.iota)."""
        bar = self.legs[:, 3]
        i0, i1 = np.flatnonzero(bar == 0), np.flatnonzero(bar == 1)
        if not np.array_equal(self.legs[i0, :3], self.legs[i1, :3]):
            raise ValueError("the bar-0 and bar-1 legs differ")
        ub = PairBlocks.shared(self.grid, False, self.legs[i0])
        # the block here of each undirected key: its class at bar count 1
        at = np.searchsorted(self.keys, ub.keys + 1).tolist()
        return [(t, self._pos[i0[r // ub.n] * self.n + i1[r % ub.n]],
                 self._pos[i1[c // ub.n] * self.n + i0[c % ub.n]])
                for t, r, c in zip(at, ub.rows, ub.cols)]

    @cached_property
    def ph_gather(self) -> np.ndarray:
        """Gather index (int32) of reduce_ph on the support."""
        return np.concatenate([
            (self.offsets[t] + r[:, None] * len(self.cols[t]) + c).ravel()
            for t, r, c in self.ph]).astype(np.int32)


@dataclass
class BlockKernel:
    """A four-legged kernel on its conservation support: values is the
    support vector of space.pair_blocks (see PairBlocks).  The methods are
    the dense kernel operations of the same names, as gathers."""

    space: KernelSpace
    values: np.ndarray

    @classmethod
    def zeros(cls, space: KernelSpace) -> "BlockKernel":
        return cls(space, np.zeros(space.pair_blocks.size, dtype=complex))

    @classmethod
    def from_dense(cls, kern: Kernel4) -> "BlockKernel":
        """The support entries of a dense kernel; ValueError, naming the
        largest such |entry|, when it has entries off the support."""
        flat = kern.space.pair_blocks.flat
        dense = kern.values.reshape(-1)
        vals = dense[flat]
        if np.count_nonzero(dense) != np.count_nonzero(vals):
            off = dense.copy()
            off[flat] = 0.0
            raise ValueError(
                "kernel has entries off the momentum- and number-conservation "
                f"support (largest |entry| {np.abs(off).max():.3e})")
        return cls(kern.space, vals)

    @classmethod
    def random(cls, space: KernelSpace, rng) -> "BlockKernel":
        """A random kernel on the support from a random.Random: one
        rng.randbytes(16 * size) call, whose first 8 * size bytes give the
        real parts and the rest the imaginary parts.  Each value is the top
        53 bits of a little-endian uint64, mapped exactly onto [-1, 1) and
        scaled by sqrt(3): uniform on [-sqrt(3), sqrt(3)), mean 0 and
        variance 1, the same on every platform and numpy version."""
        size = space.pair_blocks.size
        x = (np.frombuffer(rng.randbytes(16 * size), dtype="<u8")
             >> np.uint64(11)).astype(float)
        x *= 2.0 ** -52
        x -= 1.0
        x *= math.sqrt(3.0)
        values = np.empty(size, dtype=complex)
        values.real, values.imag = x[:size], x[size:]
        return cls(space, values)

    def dense(self) -> Kernel4:
        out = zero_kernel(self.space)
        out.values.reshape(-1)[self.space.pair_blocks.flat] = self.values
        return out

    def blocks(self) -> List[np.ndarray]:
        """The pair blocks, as views of values."""
        pb = self.space.pair_blocks
        return [self.values[pb.span(t)].reshape(len(r), len(c))
                for t, (r, c) in enumerate(zip(pb.rows, pb.cols))]

    def max_abs(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))

    def __add__(self, other: "BlockKernel") -> "BlockKernel":
        return BlockKernel(self.space, self.values + other.values)

    def __sub__(self, other: "BlockKernel") -> "BlockKernel":
        return BlockKernel(self.space, self.values - other.values)

    def __rmul__(self, c) -> "BlockKernel":
        return BlockKernel(self.space, c * self.values)

    def __truediv__(self, c) -> "BlockKernel":
        return BlockKernel(self.space, self.values / c)

    def antisymmetrize(self) -> "BlockKernel":
        """The coset product of antisymmetrize, each axis swap a gather."""
        pb = self.space.pair_blocks
        out = self.values
        for k in range(1, 4):
            acc = out.copy()
            for i in range(k):
                acc -= out[pb.swap(i, k)]
            out = acc
        return BlockKernel(self.space, out / 24.0)

    def ph_antisymmetric(self) -> "BlockKernel":
        """Onto the ph entries of antisymmetric kernels, on an undirected
        space: the signed average over the leg swaps (0, 3) and (1, 2), the
        stabilizer of the ph bar pattern (0, 1, 1, 0).  It is idempotent,
        it fixes reduce_ph of every antisymmetric directed kernel, and its
        output r is the ph rung of one:
        r = (1.5 * r.value_ph(directed).antisymmetrize()).reduce_ph()."""
        pb = self.space.pair_blocks
        v = self.values - self.values[pb.swap(0, 3)]
        v -= v[pb.swap(1, 2)]
        return BlockKernel(self.space, v / 4.0)

    def is_inversion_symmetric(self, tol: float = 1e-12) -> bool:
        """kernels.is_inversion_symmetric: the reversal of the four legs is
        the (0, 3) swap gather followed by the (1, 2) one."""
        pb = self.space.pair_blocks
        v = self.values
        return bool(np.abs(v - v[pb.swap(0, 3)][pb.swap(1, 2)]).max(initial=0.0)
                    <= tol * max(self.max_abs(), 1.0))

    def flip(self) -> "BlockKernel":
        """Minus the middle-leg swap."""
        swap = self.space.pair_blocks.swap(1, 2)
        return BlockKernel(self.space, -self.values[swap])

    def reduce_ph(self) -> "BlockKernel":
        """Onto the undirected partner space."""
        return BlockKernel(self.space.undirected(),
                           self.values[self.space.pair_blocks.ph_gather])

    def value_ph(self, directed: KernelSpace) -> "BlockKernel":
        """From the undirected partner of directed onto directed: the values
        at bars (0, 1, 1, 0), times (1 - tau_01)(1 - tau_23), which are the
        four signed terms of kernels.value_ph, one per bar pattern."""
        pb = directed.pair_blocks
        out = np.zeros(pb.size, dtype=complex)
        out[pb.ph_gather] = self.values
        out -= out[pb.swap(0, 1)]
        out -= out[pb.swap(2, 3)]
        return BlockKernel(directed, out)
