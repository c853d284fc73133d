"""Bubble propagators, ladder convolutions and iterated ladder recursions.

The bubble propagator of two momentum-space lines A, B is the symmetrized
two-line product A(.)B(.) + B(.)A(.); between sectorized rung legs each
line is diagonal in (momentum, spin), flips the creation/annihilation
index, and leaves the sector sums free.  Ladders compose rungs through
bubbles by contracting the adjoining internal legs only.

Read as n^2 x n^2 matrices over ordered leg pairs, a composition is one
matrix product, left[:, P] @ B @ rung[P, :], with P the internal pairs and
B = la (x) lb + lb (x) la the Kronecker form of the two bubble lines; a
ladder with ell bubbles is the chain L_ell = L_(ell-1) B rung, and every
ladder sum below is one power series in that chain.  The ladder sums take
and return kernels on the conservation support (blocks.BlockKernel), where
the bubble maps each pair block onto itself, so a chain step is one small
product per pair block (compose_blocks), a square matrix T_t on block t,
and every series checks the spectral radii of the T_t before its chain
runs; the dense compose is the reference the blocked step is tested on.

The particle-hole ladders read a directed rung w only through its ph
entries, bars (0, 1, 1, 0): for antisymmetric w the directed ph sum equals
the series of 24 w^ph over the undirected bubble, and the ph rung of a
ladder L is (L + L^f) / 24.  So iterated_ladder and ladder_closed_form
run one undirected recursion (_ph_ladders), and delta_ladder_telescope
writes out the same recursion for its two ladders in one loop: a telescope
over s scales makes 3 s - 1 ladder sums, 4 (s - 1) resectorizations and no
directed kernel operation.  The rung family holds
the ph rungs themselves (LadderFamily), so a whole ladder-demo run makes
none either and builds no directed support.  compound_ladder keeps the
directed route (value_ph, antisymmetrize, the directed ph chain) as the
independent computation that the closed form is checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .blocks import BlockKernel
from .kernels import EXT, INT, KernelSpace, MomentumGrid
from .scales import ScaleInterval, ScaleModel
from .sectors import Sectorization, build_fermi_curve, build_sectorization, \
    hat_weights


class LadderDivergenceError(RuntimeError):
    """A ladder series diverges: its term ratio times the spectral radius
    of its chain step is at least 1."""


# ---------------------------------------------------------------------------
# bubbles and single ladders


@dataclass(frozen=True)
class BubbleProp:
    """Symmetrized two-line bubble over one kernel space."""

    space: KernelSpace
    line_a: np.ndarray  # (n_int, n_int) line matrix of the first propagator
    line_b: np.ndarray
    label: str = ""


def line_matrix(space: KernelSpace, vals_per_k: np.ndarray) -> np.ndarray:
    """Propagator line between internal legs: diagonal in (momentum, spin),
    bar-flipping on directed spaces, sector sums left free."""
    ii = space.field_indices(INT)
    k, spin, bar = space.leg_k[ii], space.leg_spin[ii], space.leg_bar[ii]
    mask = (k[:, None] == k) & (spin[:, None] == spin)
    if space.directed:
        mask &= bar[:, None] != bar
    vals = np.asarray(vals_per_k, dtype=complex)[k]
    return np.where(mask, vals[:, None], 0.0)


def propagator_line_values(space: KernelSpace, prop: Callable) -> np.ndarray:
    g = space.grid
    return np.array([prop(g.k0[i], g.kx[i], g.ky[i]) for i in range(len(g))],
                    dtype=complex)


def bubble(space: KernelSpace, A: Callable, B: Callable,
           label: str = "") -> BubbleProp:
    """Bubble propagator of two momentum-space propagators."""
    va = propagator_line_values(space, A)
    vb = propagator_line_values(space, B)
    return BubbleProp(space=space, line_a=line_matrix(space, va),
                      line_b=line_matrix(space, vb), label=label)


def compose(left: np.ndarray, bub: BubbleProp, rung: np.ndarray) -> np.ndarray:
    """left . C(A,B) . rung, contracting the adjoining internal legs: the
    pair-matrix product L[:, P] @ B @ R[P, :] over the internal pairs P,
    kept to the rows and columns where B has a nonzero entry."""
    n = left.shape[0]
    ii = bub.space.field_indices(INT)
    pairs = (ii[:, None] * n + ii).ravel()
    B = np.kron(bub.line_a, bub.line_b) + np.kron(bub.line_b, bub.line_a)
    rows = np.flatnonzero(B.any(axis=1))
    cols = np.flatnonzero(B.any(axis=0))
    L = left.reshape(n * n, n * n)[:, pairs[rows]]
    R = rung.reshape(n * n, n * n)[pairs[cols]]
    return (L @ B[np.ix_(rows, cols)] @ R).reshape(left.shape)


def bubble_joins(rung: BlockKernel, bub: BubbleProp, blocks: Sequence[int]
                 ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per pair block t of the rung's space in blocks: the chain columns the
    bubble joins and M_t = B_t rung_t[joined rows].

    B_t is block t of the pair-matrix bubble la (x) lb + lb (x) la, which
    maps the column pairs of block t onto its row pairs; as in compose, only
    the internal pairs where it has a nonzero entry are kept.
    """
    sp, pb = rung.space, rung.space.pair_blocks
    pos = np.full(sp.n, -1)  # index among the internal legs
    ii = sp.field_indices(INT)
    pos[ii] = np.arange(len(ii))
    la, lb = bub.line_a, bub.line_b
    rung_blocks = rung.blocks()
    joins = []
    for t in blocks:
        w, x = (pos[a] for a in np.divmod(pb.cols[t], sp.n))
        p, q = (pos[a] for a in np.divmod(pb.rows[t], sp.n))
        ci = np.flatnonzero((w >= 0) & (x >= 0))
        ri = np.flatnonzero((p >= 0) & (q >= 0))
        wp, xq = np.ix_(w[ci], p[ri]), np.ix_(x[ci], q[ri])
        B = la[wp] * lb[xq] + lb[wp] * la[xq]
        cols, rows = B.any(axis=1), B.any(axis=0)
        joins.append((ci[cols],
                      B[np.ix_(cols, rows)] @ rung_blocks[t][ri[rows]]))
    return joins


def compose_blocks(chain: List[np.ndarray],
                   joins: List[Tuple[np.ndarray, np.ndarray]]) -> List[np.ndarray]:
    """One ladder step on each pair block: chain_t[:, cols_t] @ M_t (see
    bubble_joins); the blocked form of compose(chain, bub, rung)."""
    return [C[:, cols] @ M for C, (cols, M) in zip(chain, joins)]


def _ladder_series(rung: BlockKernel, bub: BubbleProp, lmax: int,
                   ph: bool = False) -> BlockKernel:
    """The ladder sum of rung through bub over the chain L_0 = rung,
    L_ell = L_(ell-1) . C . rung for ell = 1..lmax, one compose_blocks call
    per step.

    The sum is sum_l (-1)^l L_l or, with ph (rung and bub directed), the
    directed ph sum 2 sum_l (-1)^l 12^(l+1) L_l^ph over the undirected
    partner of the rung's space; the chain then carries only the row pairs
    that reduce_ph reads, since row (a, b) of L_ell depends only on row
    (a, b) of L_(ell-1).  For an antisymmetric rung w, the ph sum of w is
    the plain sum of 24 w^ph over the undirected bubble of the same lines.
    Raises LadderDivergenceError before the chain runs when the series
    diverges: when its term ratio (1, or 12 with ph) times the spectral
    radius of the step, max_t rho(M_t[:, cols_t]) (bubble_joins), is at
    least 1.
    """
    if lmax < 1:
        raise ValueError("ladders need at least one bubble")
    pb = rung.space.pair_blocks
    sel = pb.ph if ph else [(t, slice(None), slice(None)) for t in range(len(pb))]
    coef, ratio, out = (24.0, 12.0, rung.space.undirected()) if ph \
        else (1.0, 1.0, rung.space)
    blocks = rung.blocks()
    chain = [blocks[t][rows] for t, rows, _ in sel]
    joins = bubble_joins(rung, bub, [t for t, _, _ in sel])
    rho = ratio * max((np.abs(np.linalg.eigvals(M[:, cols])).max(initial=0.0)
                       for cols, M in joins), default=0.0)
    if rho >= 1.0:
        raise LadderDivergenceError(f"ladder terms not decaying: spectral "
                                    f"radius {rho:.4g} >= 1 ({bub.label})")

    def flat(chain):
        return np.concatenate([C[:, cols].ravel()
                               for C, (_, _, cols) in zip(chain, sel)])

    acc = 0.0
    for ell in range(1, lmax + 1):
        chain = compose_blocks(chain, joins)
        acc = acc + coef * (-ratio) ** ell * flat(chain)
    return BlockKernel(out, acc)


# ---------------------------------------------------------------------------
# desk-scale geometry scheme


@dataclass
class LadderScheme:
    """Per-scale kernel spaces over one shared momentum grid, with
    sector-refinement maps between consecutive scales."""

    scales: ScaleModel
    grid: MomentumGrid
    sectorizations: Dict[int, Sectorization]
    sec_ids: Dict[int, List[int]]
    dir_spaces: Dict[int, KernelSpace]
    _resect_cache: Dict[Tuple[int, int, bool], list] = field(default_factory=dict)

    def space(self, j: int, directed: bool = True) -> KernelSpace:
        sp = self.dir_spaces[j]
        return sp if directed else sp.undirected()

    def _resect_matrix(self, i: int, j: int, directed: bool) -> np.ndarray:
        """Leg refinement matrix (scale-j legs x scale-i legs): identity on
        external legs, hat weights over the scale-j sectors on internal
        ones."""
        src, dst = self.space(i, directed), self.space(j, directed)
        secz = self.sectorizations[j]
        hats = hat_weights(secz)
        f, k, spin, bar, _ = src.leg_table.T
        R = np.zeros((dst.n, src.n), dtype=float)
        ext = np.flatnonzero(f != INT)
        R[dst.find(*src.leg_table[ext].T), ext] = 1.0
        for col in np.flatnonzero(f == INT):
            s_arc = float(secz.curve.arc_position(self.grid.kx[k[col]],
                                                  self.grid.ky[k[col]]))
            placed = 0.0
            for loc, full in enumerate(self.sec_ids[j]):
                w = float(hats[full](s_arc))
                if w <= 0.0:
                    continue
                row = dst.find(INT, k[col], spin[col], bar[col], loc)
                if row < 0:
                    raise ValueError(
                        f"refinement target sector {full} at scale {j} lost "
                        f"grid point {k[col]}")
                R[row, col] += w
                placed += w
            if abs(placed - 1.0) > 1e-12:
                raise ValueError(
                    f"refinement weights sum to {placed}, expected 1")
        return R

    def _resect_blocks(self, i: int, j: int, directed: bool) -> list:
        """Per scale-j pair block: (its index, the scale-i block of the same
        key, R (x) R on its rows, R (x) R on its columns, as dense arrays),
        with R the leg refinement matrix; R keeps (momentum, spin, bar) and
        so every pair block key.  The column pairs of a block are the row
        pairs of another (PairBlocks.col_rows), so one R (x) R factor is
        built per pair of scale-j and scale-i row-pair sets and serves as
        the column factor of that other block."""
        key = (i, j, directed)
        if key in self._resect_cache:
            return self._resect_cache[key]
        R = self._resect_matrix(i, j, directed)
        src = self.space(i, directed).pair_blocks
        dst = self.space(j, directed).pair_blocks
        where = {k: u for u, k in enumerate(src.keys)}
        factor = {}  # R (x) R on the row pairs of block t
        for t, k in enumerate(dst.keys):
            if k in where:
                a, b = np.divmod(dst.rows[t], dst.n)
                c, d = np.divmod(src.rows[where[k]], src.n)
                factor[t] = R[np.ix_(a, c)] * R[np.ix_(b, d)]
        self._resect_cache[key] = [
            (t, where[dst.keys[t]], f, factor[dst.col_rows[t]])
            for t, f in factor.items()]
        return self._resect_cache[key]

    def resectorize(self, kern: BlockKernel, i: int, j: int) -> BlockKernel:
        """Distribute a scale-i kernel over the scale-j sectorization: one
        (R (x) R) V (R (x) R)^T per pair block V."""
        if i == j:
            return kern
        if j < i:
            raise ValueError("resectorization must go to a finer scale")
        directed = kern.space.directed
        out = BlockKernel.zeros(self.space(j, directed))
        src = kern.blocks()
        span = out.space.pair_blocks.span
        for t, u, rows, cols in self._resect_blocks(i, j, directed):
            out.values[span(t)] = (rows @ src[u] @ cols.T).ravel()
        return out

    def scale_bubble(self, j: int, u: Optional[Callable],
                     directed: bool = True) -> BubbleProp:
        """C(C^(j)_u, C^(>=j+1)_u) over the scale-j space."""
        cov = self.scales.covariance
        return bubble(self.space(j, directed),
                      partial(cov, ScaleInterval.at(j), u),
                      partial(cov, ScaleInterval.ge(j + 1), u),
                      label=f"C(C^({j}), C^(>= {j + 1}))")


def build_scheme(params, disp, grid: MomentumGrid, scales_needed,
                 nspin: int = 1,
                 sector_lengths: Optional[Dict[int, float]] = None) -> LadderScheme:
    """Construct per-scale spaces; sectors are restricted to those whose
    extended support contains at least one grid momentum."""
    model = ScaleModel(params, disp)
    curve = build_fermi_curve(disp)
    sector_lengths = sector_lengths or {}
    sectorizations, sec_ids, dir_spaces = {}, {}, {}
    for j in scales_needed:
        secz = build_sectorization(params, curve, j,
                                   length_override=sector_lengths.get(j))
        ok = np.array([[s.ext_contains(disp, grid.kx[i], grid.ky[i])
                        for i in range(len(grid))] for s in secz],
                      dtype=bool).reshape(len(secz), len(grid))
        touch = ok.any(axis=1)
        if not touch.any():
            raise ValueError(f"no scale-{j} sector touches the grid")
        sectorizations[j] = secz
        sec_ids[j] = [s.index for s, t in zip(secz, touch) if t]
        dir_spaces[j] = KernelSpace(grid, nspin=nspin, nsec=len(sec_ids[j]),
                                    sec_ok=ok[touch], fields=(EXT, INT),
                                    directed=True)
    return LadderScheme(scales=model, grid=grid, sectorizations=sectorizations,
                        sec_ids=sec_ids, dir_spaces=dir_spaces)


# ---------------------------------------------------------------------------
# scale families and recursions


@dataclass
class LadderFamily:
    """Rung family and counterterm momentum functions p^(i).

    F holds the ph rungs (F^(i))^ph, undirected kernels on the support at
    their native scales: the particle-hole ladders read an antisymmetric
    rung only there, so ladder-demo draws each rung on the undirected
    support and projects it onto the ph entries of antisymmetric kernels
    (BlockKernel.ph_antisymmetric), and its whole run builds no directed
    support.  A directed antisymmetric rung F^(i) is accepted too and read
    through reduce_ph (_ph_rung)."""

    F: Dict[int, BlockKernel]
    p: Dict[int, Callable]

    def u_below(self, j: int) -> Optional[Callable]:
        """u_j = sum_{i < j} p^(i) as a momentum function."""
        funcs = [f for i, f in sorted(self.p.items()) if i < j]
        if not funcs:
            return None

        def u(k0, kx, ky):
            return sum(f(k0, kx, ky) for f in funcs)

        return u

    def v_total(self) -> Optional[Callable]:
        """v = sum_i p^(i) over every scale."""
        return self.u_below(math.inf)


def _ph_rung(f: BlockKernel) -> BlockKernel:
    """(F^(i))^ph of a family rung: reduce_ph of a directed one, an
    undirected one as it is."""
    return f.reduce_ph() if f.space.directed else f


def _ph_ladders(scheme: LadderScheme, jtop: int,
                family_F: Dict[int, BlockKernel],
                bubble_at: Callable[[int], BubbleProp],
                lmax: int) -> BlockKernel:
    """Particle-hole ladder recursion over the scales j0 <= j < jtop, on
    undirected kernels.  Scale j refines the rung sum W and the ladder L so
    far from scale j - 1, adds (F^(j))^ph to W, and adds to L the series of
    24 W + L + L^f through bubble_at(j): (L + L^f) / 24 is the ph rung of
    L.  The refinement maps compose and commute with reduce_ph, so W is
    W_j = sum_{i <= j} (F^(i))^ph with each ph rung refined to scale j."""
    j0 = scheme.scales.params.j0
    W = L = BlockKernel.zeros(scheme.space(j0, directed=False))
    for j in range(j0, jtop):
        W, L = (scheme.resectorize(K, max(j0, j - 1), j) for K in (W, L))
        if j in family_F:
            W = W + _ph_rung(family_F[j])
        L = L + _ladder_series(24.0 * W + L + L.flip(), bubble_at(j), lmax)
    return L


def iterated_ladder(scheme: LadderScheme, jtop: int, family: LadderFamily,
                    lmax: int) -> BlockKernel:
    """Iterated particle-hole ladder up to scale jtop (covariances built
    from the running counterterm sum u_j)."""
    return _ph_ladders(
        scheme, jtop, family.F,
        lambda j: scheme.scale_bubble(j, family.u_below(j), directed=False),
        lmax)


def compound_ladder(scheme: LadderScheme, jtop: int, v: Optional[Callable],
                    family_F: Dict[int, BlockKernel],
                    lmax: int) -> BlockKernel:
    """Compound particle-hole ladder, one fixed v in both covariances, on
    directed rungs: scale j sums the directed ph ladders of
    w_j = W_j + antisymmetrize(value_ph(L)) / 8, with W_j the directed rung
    sum and L the ladder so far, both refined to scale j."""
    j0 = scheme.scales.params.j0
    W = BlockKernel.zeros(scheme.space(j0))
    L = BlockKernel.zeros(scheme.space(j0, directed=False))
    for j in range(j0, jtop):
        W, L = (scheme.resectorize(K, max(j0, j - 1), j) for K in (W, L))
        if j in family_F:
            W = W + family_F[j]
        w = W + L.value_ph(scheme.space(j)).antisymmetrize() / 8.0
        L = L + _ladder_series(w, scheme.scale_bubble(j, v), lmax, ph=True)
    return L


def ladder_closed_form(scheme: LadderScheme, jtop: int, v: Optional[Callable],
                       family_F: Dict[int, BlockKernel],
                       lmax: int) -> BlockKernel:
    """Compound ladder through the flipped-kernel closed form:
    chains of (24 F + L + L^f) joined by ph-reduced bubbles; agrees with
    compound_ladder identically."""
    return _ph_ladders(scheme, jtop, family_F,
                       lambda j: scheme.scale_bubble(j, v, directed=False),
                       lmax)


@dataclass
class TelescopeReport:
    residual: float
    per_scale_delta_norms: Dict[int, float]
    iterated: BlockKernel
    compound: BlockKernel


def delta_ladder_telescope(scheme: LadderScheme, jtop: int,
                           family: LadderFamily, lmax: int) -> TelescopeReport:
    """Evaluate the scale-swap telescoping identity: the iterated ladder
    (running u_j) minus the compound ladder (the full counterterm sum v)
    equals the sum of the per-scale covariance-swap corrections delta_j,
    refined to the final scale.

    One loop over the scales carries four undirected kernels, each refined
    from scale j - 1 at the start of scale j: the rung sum W (as in
    _ph_ladders), the iterated ladder it, the compound ladder comp and the
    correction sum D.  Scale j sums rung_j = 24 W + it + it^f through the
    u_j bubble (step_u, the iterated step) and through the v bubble
    (step_v); delta_j = step_u - step_v.  Above j0 the compound step is
    the v-bubble sum of 24 W + P + P^f, P = comp + D, so the compound rung
    carries the ph rung of the corrections so far with that of its own
    ladder; at j0 both ladders are zero and the compound step is step_v.
    Over s scales that is 3 s - 1 ladder sums, 4 (s - 1) resectorizations
    and two bubbles per scale.
    """
    v = family.v_total()
    j0 = scheme.scales.params.j0
    W = it = comp = D = BlockKernel.zeros(scheme.space(j0, directed=False))
    norms = {}
    for j in range(j0, jtop):
        W, it, comp, D = (scheme.resectorize(K, max(j0, j - 1), j)
                          for K in (W, it, comp, D))
        if j in family.F:
            W = W + _ph_rung(family.F[j])
        u_bub = scheme.scale_bubble(j, family.u_below(j), directed=False)
        v_bub = scheme.scale_bubble(j, v, directed=False)
        rung = 24.0 * W + it + it.flip()
        step_u = _ladder_series(rung, u_bub, lmax)
        step_v = _ladder_series(rung, v_bub, lmax)
        d = step_u - step_v
        norms[j] = d.max_abs()
        if j > j0:
            P = comp + D
            step_v = _ladder_series(24.0 * W + P + P.flip(), v_bub, lmax)
        it, comp, D = it + step_u, comp + step_v, D + d
    residual = float(np.abs(it.values - comp.values - D.values).max())
    return TelescopeReport(residual=residual, per_scale_delta_norms=norms,
                           iterated=it, compound=comp)
