"""Four-legged kernels over mixed external-momentum / sectorized legs.

Kernels are stored densely over a small shared momentum sample set; every
in-scope identity is pointwise algebraic, so tiny grids give exact tests.
The ladder path stores them on their conservation support instead
(fermi2d.blocks).
Legs carry a field tag (0 = external phi leg in momentum space, 1 =
internal sectorized psi leg, -1 = auxiliary primed phi leg), a grid
momentum, a spin, a creation/annihilation (bar) index on directed spaces,
and a sector on internal legs.  All-external values represent the reduced
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


@dataclass(frozen=True)
class Leg:
    field: int
    k: int
    spin: int
    bar: int     # always 0 on undirected spaces
    sector: int  # -1 on external legs


class KernelSpace:
    """Enumeration of admissible legs for one working scale.

    sec_ok[(s, k)] marks grid momenta lying in the extended support of
    sector s; internal legs exist only for admissible pairs.
    """

    def __init__(self, grid: MomentumGrid, nspin: int = 2,
                 nsec: int = 1, sec_ok: Optional[np.ndarray] = None,
                 fields: Tuple[int, ...] = (EXT, INT), directed: bool = True):
        self.grid = grid
        self.nspin = nspin
        self.nsec = nsec
        self.fields = tuple(sorted(fields))
        self.directed = directed
        if sec_ok is None:
            sec_ok = np.ones((nsec, len(grid)), dtype=bool)
        self.sec_ok = np.asarray(sec_ok, dtype=bool)
        bars = (0, 1) if directed else (0,)
        legs: List[Leg] = []
        for field in self.fields:
            if field == INT:
                for k in range(len(grid)):
                    for spin in range(nspin):
                        for bar in bars:
                            for s in range(nsec):
                                if self.sec_ok[s, k]:
                                    legs.append(Leg(field, k, spin, bar, s))
            else:
                for k in range(len(grid)):
                    for spin in range(nspin):
                        for bar in bars:
                            legs.append(Leg(field, k, spin, bar, -1))
        legs.sort(key=lambda g: (g.field, g.k, g.spin, g.bar, g.sector))
        self.legs = tuple(legs)
        self.index = {g: i for i, g in enumerate(legs)}
        self.n = len(legs)
        self.leg_field = np.array([g.field for g in legs])
        self.leg_k = np.array([g.k for g in legs])
        self.leg_spin = np.array([g.spin for g in legs])
        self.leg_bar = np.array([g.bar for g in legs])
        self.leg_sector = np.array([g.sector for g in legs])
        self._undirected = None

    @cached_property
    def pair_blocks(self) -> "PairBlocks":
        """The conservation support grouped into pair blocks
        (blocks.PairBlocks): one instance per leg signature (the grid, the
        direction and the (field, k, spin, bar) of every leg), shared by
        every space of that signature and built on first use."""
        from .blocks import PairBlocks

        legs = np.stack([self.leg_field, self.leg_k, self.leg_spin,
                         self.leg_bar], axis=1)
        return PairBlocks.shared(self.grid, self.directed, legs)

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
        out = np.empty(und.n, dtype=int)
        for i, g in enumerate(und.legs):
            out[i] = self.index[Leg(g.field, g.k, g.spin, bar, g.sector)]
        return out


@dataclass
class Kernel4:
    """A four-legged kernel: dense complex values over a leg space."""

    space: KernelSpace
    values: np.ndarray

    def copy(self) -> "Kernel4":
        return Kernel4(self.space, self.values.copy())

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
        sgn = np.where(space.leg_bar == 0, 1.0, -1.0)
        per_axis = [sgn] * 4
    else:
        per_axis = [np.full(space.n, float(s)) for s in (1, -1, -1, 1)]
    comps = []
    for vals in (space.grid.k0, space.grid.kx, space.grid.ky):
        v = vals[space.leg_k]
        total = (per_axis[0] * v)[:, None, None, None] \
            + (per_axis[1] * v)[None, :, None, None] \
            + (per_axis[2] * v)[None, None, :, None] \
            + (per_axis[3] * v)[None, None, None, :]
        comps.append(np.abs(total) < 1e-9)
    return comps[0] & comps[1] & comps[2]


def number_conserving_mask(space: KernelSpace) -> np.ndarray:
    """Exactly two bar-0 and two bar-1 legs (directed spaces)."""
    if not space.directed:
        return np.ones((space.n,) * 4, dtype=bool)
    b = space.leg_bar
    total = b[:, None, None, None] + b[None, :, None, None] \
        + b[None, None, :, None] + b[None, None, None, :]
    return total == 2


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
# ordering and antisymmetrization


def permutation_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def ord_permutation(ivec: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Stable ordering permutation for Ord and its sign.

    Returns (order, sign): order[pos] is the source slot placed at pos,
    sorting lower field tags first while preserving relative order; sign
    is the parity of that rearrangement of anticommuting legs.
    """
    order = tuple(sorted(range(len(ivec)), key=lambda j: (ivec[j], j)))
    return order, permutation_sign(order)


def ord_component(arr: np.ndarray, ivec: Sequence[int]) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Reorder a component's axes so external legs precede internal ones."""
    order, sign = ord_permutation(ivec)
    return sign * arr.transpose(order), tuple(ivec[j] for j in order)


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


def is_antisymmetric(kern: Kernel4, tol: float = 1e-12) -> bool:
    v = kern.values
    return bool(np.abs(v + v.transpose((1, 0, 2, 3))).max() <= tol
                and np.abs(v + v.transpose((0, 2, 1, 3))).max() <= tol
                and np.abs(v + v.transpose((0, 1, 3, 2))).max() <= tol)


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
    for i, g in enumerate(src.legs):
        if g.field in dst.fields:
            T[dst.index[g], i] += 1.0
        if g.field == INT:
            tgt = Leg(to_field, g.k, g.spin, g.bar, -1)
            T[dst.index[tgt], i] += B(*src.grid.values(g.k))
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


def _scale_field(kern: Kernel4, B: Callable, field: int) -> Kernel4:
    """Multiply every leg of the given field by B(k)."""
    sp = kern.space
    d = np.ones(sp.n, dtype=complex)
    for i in np.flatnonzero(sp.leg_field == field):
        d[i] = B(*sp.grid.values(sp.leg_k[i]))
    return Kernel4(sp, _scale_axes(kern.values, [d] * 4))


def sct_prime(kern: Kernel4, B: Callable) -> Kernel4:
    """Multiply every primed external leg by B(k)."""
    return _scale_field(kern, B, EXTP)


def sct(kern: Kernel4, B: Callable) -> Kernel4:
    """Multiply every (unprimed) external leg by B(k)."""
    return _scale_field(kern, B, EXT)


def pi_collapse(kern: Kernel4, dst: Optional[KernelSpace] = None) -> Kernel4:
    """Identify primed external legs with unprimed ones (sum components)."""
    sp = kern.space
    if dst is None:
        fields = tuple(f for f in sp.fields if f != EXTP)
        dst = KernelSpace(sp.grid, sp.nspin, sp.nsec, sp.sec_ok, fields,
                          sp.directed)
    P = np.zeros((dst.n, sp.n), dtype=float)
    for i, g in enumerate(sp.legs):
        tgt = Leg(EXT, g.k, g.spin, g.bar, -1) if g.field == EXTP else g
        P[dst.index[tgt], i] = 1.0
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
    legs = [space.legs[i] for i in space.field_indices(INT)]
    idx = np.array([g.sector * nval + (g.k * space.nspin + g.spin) * nbar + g.bar
                    for g in legs])
    # scatter the (possibly ragged) admissible legs into a dense block
    dense = np.zeros([arr.shape[i] for i in range(len(ext_axes))]
                     + [space.nsec * nval] * len(int_axes), dtype=float)
    dense[(Ellipsis,) + np.ix_(*([idx] * len(int_axes)))] = np.abs(arr)
    new_shape = [arr.shape[i] for i in range(len(ext_axes))] \
        + [space.nsec, nval] * len(int_axes)
    return dense.reshape(new_shape), len(ext_axes), len(int_axes)


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


# ---------------------------------------------------------------------------
# serialization


def kernel_to_text(kern: Kernel4, scale: int = 0) -> str:
    lines = [f"# fermi2d kernel  scale={scale}  legs={kern.space.n} "
             f"grid={len(kern.space.grid)} directed={int(kern.space.directed)}"]
    nz = np.argwhere(np.abs(kern.values) > 0)
    for i, j, k, l in nz:
        v = kern.values[i, j, k, l]
        lines.append(f"{i} {j} {k} {l} {v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


def kernel_from_text(text: str, space: KernelSpace) -> Kernel4:
    out = zero_kernel(space)
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        i, j, k, l, re, im = line.split()
        out.values[int(i), int(j), int(k), int(l)] = float(re) + 1j * float(im)
    return out
