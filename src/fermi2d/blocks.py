"""Four-legged kernels on their conservation support, in pair blocks.

The ladder path keeps its kernels here instead of in dense n^4 arrays:
PairBlocks groups the support into dense blocks, and BlockKernel holds a
kernel as its support vector, with the dense operations of the ladder path
as gathers: each one leg swap of the support (PairBlocks.swap) or a product
of them (the inversion check reverses the legs by two swaps), or, between a
directed space and its undirected partner, the reduce_ph gather.

The support depends only on a space's leg signature: its grid, its
direction and the (field, k, spin, bar) of every leg.  Sectors do not enter
it, so the spaces of every scale of a ladder scheme whose legs agree up to
their sectors share one PairBlocks (KernelSpace.pair_blocks), with its
cached gathers; the grid keeps one instance per signature.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .kernels import Kernel4, KernelSpace, MomentumGrid, zero_kernel


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
    bar count), a column pair the key (class of -(s_c k_c + s_d k_d),
    2 - bar count) (bar counts are 0 on undirected spaces), and the support
    is the set of (row, column) of equal keys: one dense block per key.
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
        # class of every signed sum s k_i + t k_j of two grid momenta: the
        # first such sum within conservation_mask's tolerance on every axis
        K = np.stack([grid.k0, grid.kx, grid.ky], axis=1)
        SK = np.stack([K, -K], axis=1)
        P = (SK[:, :, None, None, :] + SK[None, None, :, :, :]).reshape(-1, 3)
        close = np.ones((len(P), len(P)), dtype=bool)
        for ax in range(3):
            close &= np.abs(P[:, None, ax] - P[None, :, ax]) < 1e-9
        cls = close.argmax(axis=1)
        if not np.array_equal(close, cls[:, None] == cls[None, :]):
            raise ValueError("grid momentum sums within the conservation "
                             "tolerance of each other do not form classes")
        cls = cls.reshape(len(K), 2, len(K), 2)
        k, bar = legs[:, 1], legs[:, 3]
        if directed:
            s, nbar = [bar] * 4, 2
        else:
            zero, one = np.zeros_like(bar), np.ones_like(bar)
            s, nbar = [zero, one, one, zero], 0
        row_key = 3 * cls[k[:, None], s[0][:, None], k, s[1]] \
            + bar[:, None] + bar
        col_key = 3 * cls[k[:, None], 1 - s[2][:, None], k, 1 - s[3]] \
            + nbar - bar[:, None] - bar
        row_key, col_key = row_key.ravel(), col_key.ravel()
        # sorted common keys; np.intersect1d would import numpy.ma
        self.keys = np.array(sorted(set(row_key.tolist())
                                    & set(col_key.tolist())), dtype=int)
        self.rows = [np.flatnonzero(row_key == key) for key in self.keys]
        self._row_block = np.full(n * n, -1, dtype=np.int32)
        for t, r in enumerate(self.rows):
            self._row_block[r] = t
        # a column key is the row key of the negated pair momentum and the
        # complementary bar count, so the column pairs of a block are the
        # row pairs of one block
        cols = [np.flatnonzero(col_key == key) for key in self.keys]
        self.col_rows = np.array([self._row_block[c[0]] for c in cols],
                                 dtype=int)
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
        self._col_block = np.full(n * n, -1, dtype=np.int32)
        self._pos = np.zeros(n * n, dtype=np.int32)
        self._row_start = np.zeros(n * n, dtype=np.int32)
        for t, (r, c) in enumerate(zip(self.rows, self.cols)):
            self._col_block[c] = t
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
        the swap.  The swapped flat index splits into its row and column
        pair, which the pair tables place in a block: the swap is closed
        when both lie in the same block, and the gather is the start of
        the row plus the position of the column."""
        if (i, k) not in self._swaps:
            # leg i carries the weight n^(3 - i) in the flat index
            n = self.n
            wi, wk = n ** (3 - i), n ** (3 - k)
            li, lk = self.flat // wi % n, self.flat // wk % n
            r, c = np.divmod(self.flat + (lk - li) * (wi - wk), n * n)
            t = self._row_block[r]
            if not np.all((t >= 0) & (t == self._col_block[c])):
                raise ValueError(
                    f"support not closed under the leg swap ({i}, {k})")
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
        where = {key: t for t, key in enumerate(self.keys)}
        out = []
        for key, r, c in zip(ub.keys, ub.rows, ub.cols):
            t = where[key + 1]   # same momentum class, bar count 1
            a, b = np.divmod(r, ub.n)
            cc, d = np.divmod(c, ub.n)
            out.append((t, self._pos[i0[a] * self.n + i1[b]],
                        self._pos[i1[cc] * self.n + i0[d]]))
        return out

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
        """A random kernel on the support: one standard normal draw per
        support entry for the real parts, then one for the imaginary parts
        (not the stream of kernels.random_kernel, which draws all n^4
        entries)."""
        size = space.pair_blocks.size
        re = rng.standard_normal(size)
        return cls(space, re + 1j * rng.standard_normal(size))

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
