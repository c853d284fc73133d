"""Four-legged kernels over mixed external-momentum / sectorized legs.

Kernels are stored densely over a small shared momentum sample set; every
in-scope identity is pointwise algebraic, so tiny grids give exact tests.
The ladder path stores them on their conservation support instead
(fermi2d.blocks).
Legs carry a field tag (0 = external phi leg in momentum space, 1 =
internal sectorized psi leg, -1 = auxiliary primed phi leg), a grid
momentum, a spin, a creation/annihilation (bar) index on directed spaces,
and a sector on internal legs: one sorted integer row per leg in
KernelSpace.leg_table, where KernelSpace.find looks legs up by a packed
integer code and a binary search.  All-external values represent the reduced
momentum-conserving function (the overall delta function is stripped), so
tuples are admissible only when the bar-signed momenta sum to zero.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

EXTP = -1  # primed external field
EXT = 0    # external field
INT = 1    # internal (sectorized) field


# ---------------------------------------------------------------------------
# momentum grid


@dataclass(frozen=True)
class MomentumGrid:
    k0: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    neg: np.ndarray  # neg[i] = index of -k_i
    # blocks.PairBlocks per leg signature on this grid (PairBlocks.shared)
    pair_blocks: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    def __len__(self):
        return len(self.k0)

    def values(self, i):
        return self.k0[i], self.kx[i], self.ky[i]


def make_grid(points: Sequence[Tuple[float, float, float]]) -> MomentumGrid:
    """Build a grid closed under negation (missing negatives are added)."""
    pts: List[Tuple[float, float, float]] = [tuple(map(float, p)) for p in points]
    seen = {p: i for i, p in enumerate(pts)}
    for p in list(pts):
        q = (-p[0], -p[1], -p[2])
        if q not in seen:
            seen[q] = len(pts)
            pts.append(q)
    neg = np.array([seen[(-p[0], -p[1], -p[2])] for p in pts], dtype=int)
    arr = np.array(pts, dtype=float)
    return MomentumGrid(k0=arr[:, 0], kx=arr[:, 1], ky=arr[:, 2], neg=neg)


# ---------------------------------------------------------------------------
# leg spaces


class KernelSpace:
    """Enumeration of admissible legs for one working scale.

    sec_ok[(s, k)] marks grid momenta lying in the extended support of
    sector s; internal legs exist only for admissible pairs.  leg_table has
    one sorted (field, k, spin, bar, sector) row per leg (bar 0 on undirected
    spaces, sector -1 on external legs), with columns leg_field .. leg_sector.
    """

    def __init__(self, grid: MomentumGrid, nspin: int = 2,
                 nsec: int = 1, sec_ok: Optional[np.ndarray] = None,
                 fields: Tuple[int, ...] = (EXT, INT), directed: bool = True):
        self.grid, self.nspin, self.nsec = grid, nspin, nsec
        self.fields, self.directed = tuple(sorted(fields)), directed
        if sec_ok is None:
            sec_ok = np.ones((nsec, len(grid)), dtype=bool)
        self.sec_ok = np.asarray(sec_ok, dtype=bool)
        bars = (0, 1) if directed else (0,)
        # sorted as built: fields ascending, then (k, spin, bar, sector)
        self.leg_table = np.array([
            (f, k, spin, bar, s) for f in self.fields
            for k, spin, bar, s in itertools.product(
                range(len(grid)), range(nspin), bars,
                range(nsec) if f == INT else (-1,))
            if s < 0 or self.sec_ok[s, k]], dtype=np.int64).reshape(-1, 5)
        self.n = len(self.leg_table)
        (self.leg_field, self.leg_k, self.leg_spin, self.leg_bar,
         self.leg_sector) = self.leg_table.T
        self._undirected = None

    def find(self, field, k, spin, bar, sector) -> np.ndarray:
        """Index of each leg (field, k, spin, bar, sector), the arguments
        broadcast together, or -1 for a leg the space lacks: a binary search
        of packed row codes, which grow with the row order."""
        legs = np.stack(np.broadcast_arrays(field, k, spin, bar, sector), -1)
        lo = np.array([EXTP, 0, 0, 0, -1])
        dims = (3, len(self.grid), self.nspin, 2, self.nsec + 1)
        table, want = (np.ravel_multi_index(tuple(np.moveaxis(x - lo, -1, 0)),
                                            dims, mode="clip")
                       for x in (self.leg_table, legs))
        i = np.minimum(np.searchsorted(table, want), self.n - 1)
        return np.where((self.leg_table[i] == legs).all(axis=-1), i, -1)

    @cached_property
    def pair_blocks(self) -> "PairBlocks":
        """The conservation support grouped into pair blocks
        (blocks.PairBlocks): one instance per leg signature (the grid, the
        direction and the (field, k, spin, bar) of every leg), shared by
        every space of that signature and built on first use."""
        from .blocks import PairBlocks

        return PairBlocks.shared(self.grid, self.directed,
                                 self.leg_table[:, :4])

    # -- partner spaces -------------------------------------------------

    def undirected(self) -> "KernelSpace":
        """The undirected partner space (one shared instance per space)."""
        if not self.directed:
            return self
        if self._undirected is None:
            self._undirected = KernelSpace(self.grid, self.nspin, self.nsec,
                                           self.sec_ok, self.fields,
                                           directed=False)
        return self._undirected

    def primed(self) -> "KernelSpace":
        fields = tuple(sorted(set(self.fields) | {EXTP}))
        return KernelSpace(self.grid, self.nspin, self.nsec, self.sec_ok,
                           fields, directed=self.directed)

    def field_indices(self, field: int) -> np.ndarray:
        return np.nonzero(self.leg_field == field)[0]

    def iota(self, bar: int, und: "KernelSpace") -> np.ndarray:
        """Directed leg index for each undirected leg, at the given bar."""
        f, k, spin, _, sector = und.leg_table.T
        return self.find(f, k, spin, bar, sector)


@dataclass
class Kernel4:
    """A four-legged kernel: dense complex values over a leg space."""

    space: KernelSpace
    values: np.ndarray

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if self.values.size else 0.0


def zero_kernel(space: KernelSpace) -> Kernel4:
    return Kernel4(space, np.zeros((space.n,) * 4, dtype=complex))


# ---------------------------------------------------------------------------
# structural masks and generators


def conservation_mask(space: KernelSpace) -> np.ndarray:
    """Tuples whose signed momenta sum to zero (within 1e-9 per axis).

    Directed spaces weight leg momenta by (-1)^bar; undirected spaces use
    the particle-hole pattern signs (+, -, -, +).
    """
    if space.directed:
        signs = [np.where(space.leg_bar == 0, 1.0, -1.0)] * 4
    else:
        signs = [np.full(space.n, float(s)) for s in (1, -1, -1, 1)]
    mask = True
    for vals in (space.grid.k0, space.grid.kx, space.grid.ky):
        a, b, c, d = (s * vals[space.leg_k] for s in signs)
        total = np.add.outer(np.add.outer(np.add.outer(a, b), c), d)
        mask = mask & (np.abs(total) < 1e-9)
    return mask


def number_conserving_mask(space: KernelSpace) -> np.ndarray:
    """Exactly two bar-0 and two bar-1 legs (directed spaces)."""
    if not space.directed:
        return np.ones((space.n,) * 4, dtype=bool)
    b = space.leg_bar
    return np.add.outer(np.add.outer(b, b), np.add.outer(b, b)) == 2


def random_kernel(space: KernelSpace, rng, amp: float = 1.0,
                  conserving: bool = True, number_conserving: bool = True,
                  antisym: bool = False) -> Kernel4:
    v = amp * (rng.standard_normal((space.n,) * 4)
               + 1j * rng.standard_normal((space.n,) * 4))
    if conserving:
        v = v * conservation_mask(space)
    if number_conserving and space.directed:
        v = v * number_conserving_mask(space)
    k = Kernel4(space, v)
    return antisymmetrize(k) if antisym else k


# ---------------------------------------------------------------------------
# antisymmetrization


def antisymmetrize(kern: Kernel4) -> Kernel4:
    """Signed average over all 4! leg permutations (projection), built over
    the cosets of S_k in S_(k+1): A_k = (1 - sum_(i<k) tau_ik) A_(k-1) / (k+1)
    for k = 1, 2, 3, six axis transposes in all; the factors 1/(k+1) are
    applied once, as 1/4!, at the end."""
    out = kern.values
    for k in range(1, 4):
        acc = out.copy()
        for i in range(k):
            acc -= out.swapaxes(i, k)
        out = acc
    return Kernel4(kern.space, out / 24.0)


# ---------------------------------------------------------------------------
# particle-particle / particle-hole reductions and values


# signed embeddings, one (bar pattern, transpose of the undirected kernel,
# sign) per term
_PP_TERMS = (((0, 0, 1, 1), (0, 1, 2, 3), 1), ((1, 1, 0, 0), (2, 3, 0, 1), 1))
_PH_TERMS = (((0, 1, 1, 0), (0, 1, 2, 3), 1), ((1, 0, 0, 1), (1, 0, 3, 2), 1),
             ((1, 0, 1, 0), (1, 0, 2, 3), -1), ((0, 1, 0, 1), (0, 1, 3, 2), -1))


def _bar_block(directed: KernelSpace, und: KernelSpace, bars) -> tuple:
    """np.ix_ block of the directed legs carrying the undirected legs at
    bar pattern bars."""
    iotas = (directed.iota(0, und), directed.iota(1, und))
    return np.ix_(*(iotas[b] for b in bars))


def _embed(undk: Kernel4, directed: KernelSpace, terms) -> Kernel4:
    D = np.zeros((directed.n,) * 4, dtype=complex)
    for bars, perm, sign in terms:
        D[_bar_block(directed, undk.space, bars)] += \
            sign * undk.values.transpose(perm)
    return Kernel4(directed, D)


def reduce_pp(kern: Kernel4, und: Optional[KernelSpace] = None) -> Kernel4:
    """Rung pp reduction: bars fixed to the pattern (0, 0, 1, 1)."""
    und = und or kern.space.undirected()
    return Kernel4(und, kern.values[_bar_block(kern.space, und, (0, 0, 1, 1))])


def reduce_ph(kern: Kernel4, und: Optional[KernelSpace] = None) -> Kernel4:
    """Rung ph reduction: bars fixed to the pattern (0, 1, 1, 0)."""
    und = und or kern.space.undirected()
    return Kernel4(und, kern.values[_bar_block(kern.space, und, (0, 1, 1, 0))])


def value_pp(undk: Kernel4, directed: KernelSpace) -> Kernel4:
    """Particle-particle value: re-embed over the two pp bar patterns."""
    return _embed(undk, directed, _PP_TERMS)


def value_ph(undk: Kernel4, directed: KernelSpace) -> Kernel4:
    """Particle-hole value: the signed four-pattern embedding."""
    return _embed(undk, directed, _PH_TERMS)


def flip(kern: Kernel4) -> Kernel4:
    """Flipped kernel: minus the middle-argument swap."""
    return Kernel4(kern.space, -kern.values.transpose(0, 2, 1, 3))


def is_inversion_symmetric(kern: Kernel4, tol: float = 1e-12) -> bool:
    v = kern.values
    scale = max(np.abs(v).max(), 1.0)
    return bool(np.abs(v - v.transpose(3, 2, 1, 0)).max() <= tol * scale)


# ---------------------------------------------------------------------------
# shear / scaling transforms


def _axis_shape(ndim: int, ax: int, n: int) -> List[int]:
    """Broadcast shape of a length-n vector along axis ax of ndim axes."""
    shape = [1] * ndim
    shape[ax] = n
    return shape


def _apply_per_axis(values: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """values with the matrix mats[ax] applied along each axis ax, in axis
    order: out[.., i, ..] = sum_j mats[ax][i, j] values[.., j, ..].

    Each matrix acts through its nonzero entries, with no BLAS call: the
    first nonzero of every row is one gather along the axis (np.take, so
    the result is C-contiguous) times its weight, and any further nonzeros
    of the row (several sectors feeding one converted leg, say) are added
    in column order.
    """
    out = values
    for ax, m in enumerate(mats):
        rows, cols = np.nonzero(m)
        first = np.ones(len(rows), dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        r, c = rows[first], cols[first]
        take = np.zeros(len(m), dtype=np.intp)
        take[r] = c
        weight = np.zeros(len(m), dtype=m.dtype)
        weight[r] = m[r, c]
        src = out
        out = np.take(src, take, axis=ax).astype(np.result_type(src, m),
                                                 copy=False)
        out *= weight.reshape(_axis_shape(out.ndim, ax, len(m)))
        lead = (slice(None),) * ax
        for i, j in zip(rows[~first], cols[~first]):
            out[lead + (i,)] += m[i, j] * src[lead + (j,)]
    return out


def _scale_axes(values: np.ndarray, diags: Sequence[np.ndarray]) -> np.ndarray:
    """values times the diagonal diags[ax] along each axis ax, in axis
    order: one allocation, then in-place products."""
    out = np.array(values, dtype=np.result_type(values, *diags))
    for ax, d in enumerate(diags):
        out *= d.reshape(_axis_shape(out.ndim, ax, len(d)))
    return out


def _conversion_matrix(src: KernelSpace, dst: KernelSpace,
                       B: Callable, to_field: int) -> np.ndarray:
    """dst x src matrix: identity on shared legs plus B(k)-weighted
    conversion of internal src legs onto to_field external dst legs."""
    T = np.zeros((dst.n, src.n), dtype=complex)
    f, k, spin, bar, _ = src.leg_table.T
    shared = np.flatnonzero(np.isin(f, dst.fields))
    T[dst.find(*src.leg_table[shared].T), shared] = 1.0
    conv = np.flatnonzero(f == INT)
    T[dst.find(to_field, k[conv], spin[conv], bar[conv], -1), conv] = \
        [B(*src.grid.values(kk)) for kk in k[conv]]
    return T


def shear(kern: Kernel4, B: Callable) -> Kernel4:
    """Convert internal legs to external ones with weight B(k) per leg,
    summing over the converted leg's sectors; the unconverted components
    ride along unchanged."""
    sp = kern.space
    T = _conversion_matrix(sp, sp, B, EXT)
    return Kernel4(sp, _apply_per_axis(kern.values, [T] * 4))


def shear_prime(kern: Kernel4, B: Callable) -> Kernel4:
    """Like shear, but converted legs land on the primed external field."""
    sp = kern.space
    spp = sp.primed()
    T = _conversion_matrix(sp, spp, B, EXTP)
    return Kernel4(spp, _apply_per_axis(kern.values, [T] * 4))


def sct_prime(kern: Kernel4, B: Callable) -> Kernel4:
    """Multiply every primed external leg by B(k)."""
    sp = kern.space
    d = np.ones(sp.n, dtype=complex)
    for i in np.flatnonzero(sp.leg_field == EXTP):
        d[i] = B(*sp.grid.values(sp.leg_k[i]))
    return Kernel4(sp, _scale_axes(kern.values, [d] * 4))


def pi_collapse(kern: Kernel4, dst: Optional[KernelSpace] = None) -> Kernel4:
    """Identify primed external legs with unprimed ones (sum components)."""
    sp = kern.space
    if dst is None:
        fields = tuple(f for f in sp.fields if f != EXTP)
        dst = KernelSpace(sp.grid, sp.nspin, sp.nsec, sp.sec_ok, fields,
                          sp.directed)
    P = np.zeros((dst.n, sp.n), dtype=float)
    f, k, spin, bar, sector = sp.leg_table.T
    P[dst.find(np.where(f == EXTP, EXT, f), k, spin, bar, sector),
      np.arange(sp.n)] = 1.0
    return Kernel4(dst, _apply_per_axis(kern.values, [P] * 4))


def s_kappa(kern: Kernel4, kappas: Sequence[complex]) -> Kernel4:
    """Scale the component with index vector i by prod_p kappa_p^(1-i_p)."""
    sp = kern.space
    return Kernel4(sp, _scale_axes(kern.values, [
        np.asarray(kap, dtype=complex) ** (1 - sp.leg_field) for kap in kappas]))


def component_mask(space: KernelSpace, ivec: Sequence[int]) -> List[np.ndarray]:
    return [space.field_indices(f) for f in ivec]


def extract_component(kern: Kernel4, ivec: Sequence[int]) -> Kernel4:
    """Recover the component f|_ivec from scalings S_kappa alone.

    S_kappa f is a polynomial of degree <= 1 - min(field) in each kappa_p,
    so a discrete Fourier average over enough unit-circle nodes per leg
    isolates the coefficient of prod kappa_p^(1-i_p) exactly.  S_kappa is a
    product of per-leg diagonal scalings, so the average over all node
    combinations factorizes into one filter per axis,
    (1/nn) sum_c node_c^((1-field) - (1-i_p)).  Off the component the
    filters vanish up to rounding, which is discarded: they are applied to
    the component's block alone, and the block is written into an
    otherwise zero kernel.
    """
    sp = kern.space
    nn = 2 - min(sp.fields)
    nodes = np.exp(2j * np.pi * np.arange(nn) / nn)
    idx = component_mask(sp, ivec)
    block = np.ix_(*idx)
    vals = _scale_axes(kern.values[block], [
        (nodes[:, None] ** ((1 - sp.leg_field[i]) - (1 - ip))).mean(axis=0)
        for ip, i in zip(ivec, idx)])
    out = np.zeros(kern.values.shape, dtype=vals.dtype)
    out[block] = vals
    return Kernel4(sp, out)


def _component_values_by_sector(space, arr, ivec):
    """Reshape a component block to [ext vals..., (sec, val) per int leg]."""
    ext_axes = [p for p, f in enumerate(ivec) if f != INT]
    int_axes = [p for p, f in enumerate(ivec) if f == INT]
    arr = arr.transpose(ext_axes + int_axes)
    if not int_axes:
        return np.abs(arr), len(ext_axes), 0
    nbar = 2 if space.directed else 1
    nval = len(space.grid) * space.nspin * nbar
    _, k, spin, bar, sector = space.leg_table[space.field_indices(INT)].T
    idx = sector * nval + (k * space.nspin + spin) * nbar + bar
    # scatter the (possibly ragged) admissible legs into a dense block
    lead = list(arr.shape[:len(ext_axes)])
    dense = np.zeros(lead + [space.nsec * nval] * len(int_axes), dtype=float)
    dense[(Ellipsis,) + np.ix_(*([idx] * len(int_axes)))] = np.abs(arr)
    return dense.reshape(lead + [space.nsec, nval] * len(int_axes)), \
        len(ext_axes), len(int_axes)


def sector_norm_p(kern: Kernel4, p: int) -> float:
    """Sector-counting norm at derivative order zero.

    Per component: sup over external legs and over p-m chosen internal
    sectors, sum over the remaining sectors, of the inner norm (max over
    one internal leg of the summed absolute values over the others).
    All-external components contribute their sup only at p = m - 1 with
    m in {2, 4}; p outside [m, m+n] contributes zero.
    """
    space = kern.space
    total = 0.0
    for ivec in itertools.product(space.fields, repeat=4):
        idx = component_mask(space, ivec)
        if any(len(i) == 0 for i in idx):
            continue
        arr = kern.values[np.ix_(*idx)]
        m = sum(1 for f in ivec if f != INT)
        n = 4 - m
        if n == 0:
            if p == m - 1 and m in (2, 4):
                total += float(np.abs(arr).max())
            continue
        if p < m or p > m + n:
            continue
        block, next_, nint = _component_values_by_sector(space, arr, ivec)
        total += _outer_sector_norm(block, next_, nint, p - m)
    return total


def _inner_norm(block: np.ndarray, next_: int, nint: int) -> np.ndarray:
    """max over one internal leg of sup_that_leg sum_others |values|."""
    best = None
    for j0 in range(nint):
        red = block
        # iterate internal slots from the last to keep axis numbers stable
        for t in range(nint - 1, -1, -1):
            ax = next_ + 2 * t + 1
            red = red.max(axis=ax) if t == j0 else red.sum(axis=ax)
        best = red if best is None else np.maximum(best, red)
    return best  # axes: [ext..., sec_1..sec_n]


def _outer_sector_norm(block: np.ndarray, next_: int, nint: int,
                       nchoose: int) -> float:
    inner = _inner_norm(block, next_, nint)
    best = 0.0
    for chosen in itertools.combinations(range(nint), nchoose):
        red = inner
        for t in range(nint - 1, -1, -1):
            ax = next_ + t
            red = red.max(axis=ax) if t in chosen else red.sum(axis=ax)
        val = float(red.max()) if np.ndim(red) else float(red)
        best = max(best, val)
    return best
