"""Four-legged kernels on their conservation support, in pair blocks.

The ladder path keeps its kernels here instead of in dense n^4 arrays:
PairBlocks groups the support into dense blocks, and BlockKernel holds a
kernel as its support vector.  This module holds storage, leg swaps and
the undirected operations that the ladder sums run: each one leg swap of
the support (PairBlocks.swap) or a product of them (flip swaps the middle
legs, the inversion check reverses the legs by two swaps, and
ph_antisymmetric projects an undirected kernel onto the ph entries of
antisymmetric kernels by the two swaps that keep their bars).  The
directed operations (antisymmetrize, reduce_ph, value_ph) live only in
fermi2d.kernels, on dense kernels, reached through dense and from_dense.
BlockKernel.random draws a kernel on the support from the standard
library's random.Random, so its values do not depend on numpy.

The support depends only on a space's leg signature: its grid, its
direction and the (field, k, spin, bar) of every leg.  Sectors do not enter
it, so the spaces of every scale of a ladder scheme whose legs agree up to
their sectors share one PairBlocks (KernelSpace.pair_blocks), with its
cached swaps; the grid keeps one instance per signature.  Its build
sorts: the momentum classes of the pair sums come from sorts along each
axis (_classes), the blocks from one stable argsort of the row keys and
one of the column keys (_groups), with no all-pairs table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import List, Tuple

import numpy as np

from .kernels import Kernel4, KernelSpace, MomentumGrid, zero_kernel

_CHUNK = 1 << 16  # support entries per chunk of BlockKernel's chunked loops


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
    support index at which its row starts.  The leg swaps are lookups in
    them.  shapes holds one (block ids, row pairs, column pairs) triple per
    block shape, the pairs stacked one block per row, so that the ladder
    sums step all blocks of a shape in one product.
    """

    def __init__(self, grid: MomentumGrid, directed: bool, legs: np.ndarray):
        self.directed = directed
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
        by_shape: dict = {}
        for t, (r, c) in enumerate(zip(self.rows, self.cols)):
            self._row_block[r] = self._col_block[c] = t
            self._pos[r] = np.arange(len(r))
            self._row_start[r] = self.offsets[t] + self._pos[r] * len(c)
            by_shape.setdefault((len(r), len(c)), []).append(t)
        self.shapes = [(np.array(ids), np.stack([self.rows[t] for t in ids]),
                        np.stack([self.cols[t] for t in ids]))
                       for ids in by_shape.values()]
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

    def leg_chunks(self):
        """(j, legs) per _CHUNK support entries: j the slice of the entries,
        legs their four int32 leg indices, decoded from flat one chunk at a
        time, so that no int64 leg array over the support is held."""
        for i in range(0, self.size, _CHUNK):
            j = slice(i, i + _CHUNK)
            yield j, [leg.astype(np.int32) for leg
                      in np.unravel_index(self.flat[j], (self.n,) * 4)]

    def swap(self, i: int, k: int) -> np.ndarray:
        """Gather index (int32) of values.swapaxes(i, k) on the support,
        cached per (i, k); ValueError when the support is not closed under
        the swap.  Every entry's legs, with legs i and k exchanged, make a
        row pair and a column pair, which the pair tables place in a block:
        the swapped entry lies on the support when both lie in the same
        block, and its index is the start of the row plus the position of
        the column."""
        if (i, k) not in self._swaps:
            n, out = self.n, np.empty(self.size, dtype=np.int32)
            for j, legs in self.leg_chunks():
                legs[i], legs[k] = legs[k], legs[i]
                r, c = legs[0] * n + legs[1], legs[2] * n + legs[3]
                t = self._row_block[r]
                if not np.all((t >= 0) & (t == self._col_block[c])):
                    raise ValueError("legs not on the support: the support "
                                     "is not closed under their permutation")
                out[j] = self._row_start[r] + self._pos[c]
            self._swaps[i, k] = out
        return self._swaps[i, k]


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
        """A random kernel on the support from a random.Random: the bytes of
        one rng.randbytes(16 * size) call, drawn in chunks of whole 32-bit
        words, real parts first, and written in place.  Each value is the
        top 53 bits of a little-endian uint64, mapped exactly onto [-1, 1)
        and scaled by sqrt(3): uniform on [-sqrt(3), sqrt(3)), mean 0 and
        variance 1, the same on every platform and numpy version."""
        values = np.empty(space.pair_blocks.size, dtype=complex)
        for x in (values.real, values.imag):
            for i in range(0, len(x), _CHUNK):
                part = x[i:i + _CHUNK]
                u = np.frombuffer(rng.randbytes(8 * len(part)), dtype="<u8")
                np.right_shift(u, np.uint64(11), out=part, casting="unsafe")
            x *= 2.0 ** -52
            x -= 1.0
            x *= math.sqrt(3.0)
        return cls(space, values)

    def dense(self) -> Kernel4:
        out = zero_kernel(self.space)
        out.values.reshape(-1)[self.space.pair_blocks.flat] = self.values
        return out

    def max_abs(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))

    def __add__(self, other: "BlockKernel") -> "BlockKernel":
        return BlockKernel(self.space, self.values + other.values)

    def __sub__(self, other: "BlockKernel") -> "BlockKernel":
        return BlockKernel(self.space, self.values - other.values)

    def __rmul__(self, c) -> "BlockKernel":
        return BlockKernel(self.space, c * self.values)

    def ph_antisymmetric(self) -> "BlockKernel":
        """Onto the ph entries of antisymmetric kernels, on an undirected
        space: the signed average over the leg swaps (0, 3) and (1, 2), the
        stabilizer of the ph bar pattern (0, 1, 1, 0).  It is idempotent,
        it fixes the ph entries (kernels.reduce_ph) of every antisymmetric
        directed kernel, and its output r is the ph rung of one:
        r = reduce_ph(1.5 * antisymmetrize(value_ph(r))), in kernels.
        It is r = (v - v[s2]) / 4, v = a - a[s1], in chunks: v at j and at
        s2[j] comes from a, so no full-size v or gather is held."""
        pb = self.space.pair_blocks
        a, s1, s2 = self.values, pb.swap(0, 3), pb.swap(1, 2)
        r = np.empty_like(a)
        for i in range(0, len(a), _CHUNK):
            j, k = slice(i, i + _CHUNK), s2[i:i + _CHUNK]
            r[j] = ((a[j] - a[s1[j]]) - (a[k] - a[s1[k]])) / 4.0
        return BlockKernel(self.space, r)

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
