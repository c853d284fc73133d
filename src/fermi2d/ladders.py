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
ladder L is (L + L^f) / 24.  So iterated_ladder, ladder_closed_form and
delta_ladder_telescope share one undirected recursion (_ph_ladders): a
telescope over s scales makes 3 s - 1 ladder sums, 4 (s - 1)
resectorizations and no directed kernel operation.  The rung family holds
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
from .kernels import EXT, INT, KernelSpace, Leg, MomentumGrid
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


def _ladder_series(rung: BlockKernel, bub: BubbleProp, lmax: int, ltol: float,
                   ph: bool = False) -> Tuple[BlockKernel, BlockKernel]:
    """The ladder sum of rung through bub and the last ladder L_ell, over the
    chain L_0 = rung, L_ell = L_(ell-1) . C . rung for ell = 1..lmax, one
    compose_blocks call per step.

    The sum is sum_l (-1)^l L_l or, with ph (rung and bub directed), the
    directed ph sum 2 sum_l (-1)^l 12^(l+1) L_l^ph over the undirected
    partner of the rung's space; the chain then carries only the row pairs
    that reduce_ph reads, since row (a, b) of L_ell depends only on row
    (a, b) of L_(ell-1), and L_ell is returned ph-reduced.  For an
    antisymmetric rung w, the ph sum of w is the plain sum of 24 w^ph over
    the undirected bubble of the same lines.  Stops after the first term
    whose max |.| is at most ltol times the largest so far (ltol > 0).
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

    acc, largest = 0.0, 0.0
    for ell in range(1, lmax + 1):
        chain = compose_blocks(chain, joins)
        t = coef * (-ratio) ** ell * flat(chain)
        acc = acc + t
        tnorm = float(np.abs(t).max(initial=0.0))
        largest = max(largest, tnorm)
        if ltol > 0.0 and tnorm <= ltol * max(largest, 1e-300):
            break
    return BlockKernel(out, acc), BlockKernel(out, flat(chain))


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
        src = self.space(i, directed)
        dst = self.space(j, directed)
        secz = self.sectorizations[j]
        hats = hat_weights(secz)
        curve = secz.curve
        R = np.zeros((dst.n, src.n), dtype=float)
        for col, g in enumerate(src.legs):
            if g.field != INT:
                R[dst.index[g], col] = 1.0
                continue
            s_arc = float(curve.arc_position(self.grid.kx[g.k], self.grid.ky[g.k]))
            placed = 0.0
            for loc, full in enumerate(self.sec_ids[j]):
                w = float(hats[full](s_arc))
                if w <= 0.0:
                    continue
                tgt = Leg(INT, g.k, g.spin, g.bar, loc)
                if tgt not in dst.index:
                    raise ValueError(
                        f"refinement target sector {full} at scale {j} lost "
                        f"grid point {g.k}")
                R[dst.index[tgt], col] += w
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
        ids = []
        ok_rows = []
        for s in secz:
            row = np.array([s.ext_contains(disp, grid.kx[i], grid.ky[i])
                            for i in range(len(grid))], dtype=bool)
            if row.any():
                ids.append(s.index)
                ok_rows.append(row)
        if not ids:
            raise ValueError(f"no scale-{j} sector touches the grid")
        sec_ok = np.array(ok_rows, dtype=bool)
        sectorizations[j] = secz
        sec_ids[j] = ids
        dir_spaces[j] = KernelSpace(grid, nspin=nspin, nsec=len(ids),
                                    sec_ok=sec_ok, fields=(EXT, INT),
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
    through reduce_ph (_rung_sums)."""

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


def _rung_sums(scheme: LadderScheme, jtop: int,
               family_F: Dict[int, BlockKernel]) -> Dict[int, BlockKernel]:
    """W_j = sum_{i <= j} (F^(i))^ph, each ph rung refined to scale j, for
    j0 <= j < jtop, by the running sum
    W_j = R(j-1 -> j) W_(j-1) + (F^(j))^ph: the refinement maps compose and
    commute with reduce_ph, so each step resectorizes only W_(j-1).  A
    directed rung in family_F enters through reduce_ph, an undirected one
    as it is."""
    j0 = scheme.scales.params.j0
    W, w = {}, BlockKernel.zeros(scheme.space(j0, directed=False))
    for j in range(j0, jtop):
        w = scheme.resectorize(w, max(j0, j - 1), j)
        if j in family_F:
            f = family_F[j]
            w = w + (f.reduce_ph() if f.space.directed else f)
        W[j] = w
    return W


def _ph_ladders(scheme: LadderScheme, jtop: int, W: Dict[int, BlockKernel],
                bubble_at: Callable[[int], BubbleProp], lmax: int, ltol: float,
                record: Optional[Callable] = None,
                first: Optional[BlockKernel] = None,
                D: Optional[Dict[int, BlockKernel]] = None) -> BlockKernel:
    """Particle-hole ladder recursion over the scales j0 <= j < jtop, on
    undirected kernels: the ladder L so far is resectorized to scale j, and
    scale j sums the series of rung_j = 24 W_j + P + P^f through
    bubble_at(j), with P = L (plus D_j, if D is given): (P + P^f) / 24 is
    the ph rung of P.  At j0, L is zero; first, if given, is the j0 ladder
    sum, computed by the caller.  record, if given, is called as
    record(j, rung_j, step_j) per scale."""
    j0 = scheme.scales.params.j0
    L = BlockKernel.zeros(scheme.space(j0, directed=False))
    for j in range(j0, jtop):
        L = scheme.resectorize(L, max(j0, j - 1), j)
        P = L + D[j] if D and j > j0 else L
        rung = 24.0 * W[j] + P + P.flip()
        step = first if j == j0 and first is not None \
            else _ladder_series(rung, bubble_at(j), lmax, ltol)[0]
        if record is not None:
            record(j, rung, step)
        L = L + step
    return L


def iterated_ladder(scheme: LadderScheme, jtop: int, family: LadderFamily,
                    lmax: int = 12, ltol: float = 1e-10) -> BlockKernel:
    """Iterated particle-hole ladder up to scale jtop (covariances built
    from the running counterterm sum u_j)."""
    return _ph_ladders(
        scheme, jtop, _rung_sums(scheme, jtop, family.F),
        lambda j: scheme.scale_bubble(j, family.u_below(j), directed=False),
        lmax, ltol)


def compound_ladder(scheme: LadderScheme, jtop: int, v: Optional[Callable],
                    family_F: Dict[int, BlockKernel], lmax: int = 12,
                    ltol: float = 1e-10) -> BlockKernel:
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
        L = L + _ladder_series(w, scheme.scale_bubble(j, v), lmax, ltol,
                               ph=True)[0]
    return L


def ladder_closed_form(scheme: LadderScheme, jtop: int, v: Optional[Callable],
                       family_F: Dict[int, BlockKernel], lmax: int = 12,
                       ltol: float = 1e-10) -> BlockKernel:
    """Compound ladder through the flipped-kernel closed form:
    chains of (24 F + L + L^f) joined by ph-reduced bubbles; agrees with
    compound_ladder identically."""
    return _ph_ladders(
        scheme, jtop, _rung_sums(scheme, jtop, family_F),
        lambda j: scheme.scale_bubble(j, v, directed=False), lmax, ltol)


@dataclass
class TelescopeReport:
    residual: float
    per_scale_delta_norms: Dict[int, float]
    iterated: BlockKernel
    compound: BlockKernel


def delta_ladder_telescope(scheme: LadderScheme, jtop: int,
                           family: LadderFamily, lmax: int = 12,
                           ltol: float = 1e-10) -> TelescopeReport:
    """Evaluate the scale-swap telescoping identity.

    The iterated ladder (running u_j) and the compound ladder with the full
    counterterm sum v are computed independently, from the same rung sums
    W_j; their difference must equal the sum of the per-scale
    covariance-swap corrections delta_j, refined to the final scale.  The
    corrections enter the compound rungs through the running sum
    D_j = R(j-1 -> j) (D_(j-1) + delta_(j-1)), D_j0 = 0: the compound rung
    at scale j carries the ph rung of D_j, taken together with that of its
    own ladder, and the sum of all corrections is
    D_(jtop-1) + delta_(jtop-1).
    """
    v = family.v_total()
    j0 = scheme.scales.params.j0
    v_bubbles = {j: scheme.scale_bubble(j, v, directed=False)
                 for j in range(j0, jtop)}
    W = _rung_sums(scheme, jtop, family.F)
    D, norms = {}, {}
    first = total = None

    def swap(j, rung, step):
        # delta_j = step(u_j) - step(v), both ladder sums over rung_j; the
        # compound ladder has the same rung and bubble at j0, so step(v) at
        # j0 is also its first ladder sum
        nonlocal first, total
        step_v = _ladder_series(rung, v_bubbles[j], lmax, ltol)[0]
        d = step - step_v
        norms[j] = d.max_abs()
        if j == j0:
            first, total = step_v, d
        else:
            D[j] = scheme.resectorize(total, j - 1, j)
            total = D[j] + d

    it = _ph_ladders(
        scheme, jtop, W,
        lambda j: scheme.scale_bubble(j, family.u_below(j), directed=False),
        lmax, ltol, swap)
    comp = _ph_ladders(scheme, jtop, W, v_bubbles.__getitem__, lmax, ltol,
                       first=first, D=D)
    residual = float(np.abs(it.values - comp.values - total.values).max())
    return TelescopeReport(residual=residual, per_scale_delta_norms=norms,
                           iterated=it, compound=comp)
