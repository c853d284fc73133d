"""Counterterm/two-point family resummation, budgets, and the proper
self-energy.

Families are scale-indexed momentum functions: counterterms p^(i)(k) with
p^(i)(0, k) = 0 summing to P(k), and two-point corrections q^(i,l)(k)
(i <= l) summing to Q(k).  Each q^(i,l) vanishes on the (i+2)-nd
neighbourhood of the Fermi curve and off the ultraviolet cutoff, is
k0-reflection real, and obeys the derivative budget

    sup_k |D^delta q^(i,l)| <= 2 lambda0^(1-2 upsilon) (l_l / M^l)
                               M^(aleph'(l-i)) M^(delta0 i) M^(|dvec| l)

for |delta| <= 2.  The budget checker reports measured/allowed ratios per
(i, l, delta) from central finite differences on each member's sampling
windows, plus the reflection-reality residual.  The measured value is
sup |D^delta q| itself, with no 1/delta! weight.  The derivative sups it
measures with (sup_derivatives and its grid and product forms) live here
too.

The proper self-energy is assembled from P and Q through the rational
closed form, and its k0-derivative through the tilde-variable formula
whose cancellations keep every ingredient bounded near the Fermi curve.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .scales import ScaleModel, ramp_down, rd_points


class SingularityError(ZeroDivisionError):
    """Evaluation requested on the singular set i k0 = e(k)."""


class ConditioningError(ArithmeticError):
    """Denominator of the self-energy form too close to zero."""


# ---------------------------------------------------------------------------
# families


@dataclass
class ScaleFamily:
    """Scale-indexed families p^(i), q^(i,l) with optional analytic
    k0-derivatives."""

    p: Dict[int, Callable] = field(default_factory=dict)
    dp_dk0: Dict[int, Callable] = field(default_factory=dict)
    q: Dict[Tuple[int, int], Callable] = field(default_factory=dict)
    p_amp: Dict[int, float] = field(default_factory=dict)
    lambda0: float = 0.0
    upsilon: float = 0.0


def resum_P(family: ScaleFamily, k0, kx, ky) -> complex:
    """P(k) = sum_i p^(i)(k), fixed ascending order."""
    total = 0.0 + 0.0j
    for i in sorted(family.p):
        total += family.p[i](k0, kx, ky)
    return total


def resum_Q(family: ScaleFamily, k0, kx, ky, jcut: Optional[int] = None) -> complex:
    """Q(k) (or the partial sum Q_j for jcut = j), fixed (i, l) order."""
    total = 0.0 + 0.0j
    for (i, l) in sorted(family.q):
        if jcut is not None and (i > jcut or l > jcut):
            continue
        total += family.q[(i, l)](k0, kx, ky)
    return total


# ---------------------------------------------------------------------------
# the saturating synthetic family


_K0_CENTER = 11.0   # profile center in x = M^i k0
_K0_PLATEAU = 4.0   # plateau half-width of the k0 envelope
_K0_EDGE = 10.0     # outer half-width (support |x| in [1, 21])
_KX_PLATEAU = 0.6
_KX_EDGE = 1.4


def _f0(x):
    """Even k0 profile in x = M^i k0: plateau bump times a unit wave."""
    ax = np.abs(x)
    env = ramp_down(np.abs(ax - _K0_CENTER), _K0_PLATEAU, _K0_EDGE)
    return env * np.cos(x)


def _gx(t, w):
    """Spatial profile in one cartesian direction at frequency w."""
    env = ramp_down(np.abs(t), _KX_PLATEAU, _KX_EDGE)
    return env * np.cos(w * t)


def saturating_q_family(params, scale: float = 1.0,
                        saturation: float = 0.9) -> ScaleFamily:
    """Build a q-family that saturates the derivative budget.

    One member per j0 <= i <= l <= jmax of params.  Profiles factorize as
    f0(M^i k0) gx(kx) gx(ky) with unit-amplitude waves under wide plateau
    envelopes, so the true derivative sups factorize into 1d factors.  The amplitude of each member is calibrated
    so its worst measured-to-allowed ratio equals `saturation`; `scale`
    multiplies every amplitude afterwards (3x produces a violating family).
    """
    M, la, up = params.M, params.lambda0, params.upsilon

    def sups_1d(f, lo, hi, npts):
        xs = np.linspace(lo, hi, npts)
        sups = product_sup_derivatives(1.0, [f(xs)], [xs[1] - xs[0]], 2)
        return [sups[(d,)] for d in range(3)]

    u_sup = sups_1d(_f0, 1.0, _K0_CENTER + _K0_EDGE, 60000)
    fam = ScaleFamily(lambda0=la, upsilon=up)
    v_sup_cache: Dict[int, List[float]] = {}
    for l in range(params.j0, params.jmax + 1):
        w = M ** l
        npts = int(max(8000, 40 * _KX_EDGE * 2 * w))
        raw = sups_1d(lambda t: _gx(t, w), -_KX_EDGE, _KX_EDGE, npts)
        v_sup_cache[l] = [raw[d] / w ** d for d in range(3)]
    for i in range(params.j0, params.jmax + 1):
        for l in range(i, params.jmax + 1):
            v = v_sup_cache[l]
            cmax = max(u_sup[d0] * v[d1] * v[d2]
                       for d0 in range(3) for d1 in range(3 - d0)
                       for d2 in range(3 - d0 - d1))
            amp = scale * saturation / cmax * _budget_base(params, la, up, i, l)
            fam.q[(i, l)] = _make_q_member(M, i, l, amp)
    return fam


@dataclass(frozen=True)
class ProductQ:
    """The q^(i,l) member amp f0(wi k0) gx(kx, wl) gx(ky, wl) of the
    saturating and file families, a product of one factor per axis."""

    amp: float
    wi: float
    wl: float

    def __call__(self, k0, kx, ky):
        return self.amp * _f0(self.wi * np.asarray(k0)) \
            * _gx(kx, self.wl) * _gx(ky, self.wl)

    def factors(self, k0, kx, ky):
        """The per-axis factors f0(wi k0), gx(kx, wl), gx(ky, wl) on 1d
        axis arrays; amp times their outer product is the member."""
        return _f0(self.wi * k0), _gx(kx, self.wl), _gx(ky, self.wl)


def _make_q_member(M, i, l, amp):
    return ProductQ(amp=amp, wi=M ** i, wl=M ** l)


def linear_p_family(params, imin: Optional[int] = None,
                    imax: Optional[int] = None,
                    amp0: Optional[float] = None) -> ScaleFamily:
    """Counterterms p^(i) = i a_i k0/(1+k0^2) s(k), a_i ~ lambda0^(1-u) l_i.

    Every member vanishes at k0 = 0, is reflection real, and the tail
    sum_{i>=j} |p^(i)| decays exactly like the sector length l_j.
    """
    imin = params.j0 if imin is None else imin
    imax = params.jmax if imax is None else imax
    la, up = params.lambda0, params.upsilon
    amp0 = la ** (1 - up) if amp0 is None else amp0
    fam = ScaleFamily(lambda0=la, upsilon=up)
    for i in range(imin, imax + 1):
        a = amp0 * params.sector_length(i)
        fam.p[i] = _make_p_member(a)
        fam.dp_dk0[i] = _make_dp_member(a)
        fam.p_amp[i] = a
    return fam


def _p_shape(kx, ky):
    return np.exp(-0.25 * (np.asarray(kx) ** 2 + np.asarray(ky) ** 2))


def _make_p_member(a):
    def p(k0, kx, ky):
        return 1j * a * np.asarray(k0) / (1.0 + np.asarray(k0) ** 2) * _p_shape(kx, ky)

    return p


def _make_dp_member(a):
    def dp(k0, kx, ky):
        k0 = np.asarray(k0)
        return 1j * a * (1.0 - k0 ** 2) / (1.0 + k0 ** 2) ** 2 * _p_shape(kx, ky)

    return dp


# ---------------------------------------------------------------------------
# momentum-space norms


def grid_sup_derivatives(f: Callable, box, shape, max_order: int):
    """sup |D^delta f| (see sup_derivatives) on the regular grid of shape[a]
    points spanning box[a] = (lo, hi) on each axis a.

    f is called once, on the open mesh (one 1d axis array per argument,
    shaped to broadcast), so a product of per-axis factors costs sum(shape)
    factor evaluations instead of prod(shape).  Its result is broadcast to
    the full grid: a member that ignores an axis or returns a scalar is
    still measured on the whole grid.  Returns the sups and the open mesh.
    """
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, shape)]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    F = np.broadcast_to(np.asarray(f(*mesh)), tuple(shape))
    return sup_derivatives(F, [ax[1] - ax[0] for ax in axes], max_order), mesh


def sup_derivatives(F: np.ndarray, steps, max_order: int) -> dict:
    """sup |D^delta F| for every multi-index delta with |delta| <= max_order,
    from central differences on a regular grid of spacings steps.

    D^delta is one pass (D[2:] - D[:-2]) / (2 step) along one axis, the
    interior formula of np.gradient, on its parent, delta less one unit on
    its last nonzero axis, so each derivative costs one pass and the passes
    of a delta run in ascending axis order.  A pass drops one cell per side
    on its axis.  The sup skips sum(delta) cells per side of the full grid
    on every axis, the cells that one-sided edge differences would reach,
    and is NaN when a measured cell is.
    """
    sups = {}

    def visit(D, delta, first_axis):
        total = sum(delta)
        sups[delta] = _sup_abs(D[tuple(slice(total - d, D.shape[a] - total + d)
                                       for a, d in enumerate(delta))])
        if total < max_order:
            for ax in range(first_axis, D.ndim):
                child = delta[:ax] + (delta[ax] + 1,) + delta[ax + 1:]
                pre = (slice(None),) * ax
                visit((D[pre + (slice(2, None),)] - D[pre + (slice(None, -2),)])
                      / (2. * steps[ax]), child, ax)

    visit(F, (0,) * F.ndim, 0)
    return sups


def product_sup_derivatives(amp, factors, steps, max_order: int) -> dict:
    """sup_derivatives of the rank-1 grid amp * factors[0] (x) factors[1]
    (x) ..., from the 1d factors alone.

    D^delta of a product is the product of the factors' own differences,
    so each axis gets one ladder of central differences (D[2:] - D[:-2]) /
    (2 step), and the sup of D^delta is |amp| times the product of the sups
    of rung delta[a] of each ladder, taken on the cells sup_derivatives
    reads: sum(delta) cells per side of the full grid.  Equal to
    sup_derivatives of the full grid up to rounding in the last digits.
    """
    ladders = []
    for f, step in zip(factors, steps):
        rungs = [np.asarray(f)]
        for _ in range(max_order):
            D = rungs[-1]
            rungs.append((D[2:] - D[:-2]) / (2. * step))
        ladders.append(rungs)
    sups = {}
    for delta in itertools.product(range(max_order + 1), repeat=len(ladders)):
        total = sum(delta)
        if total > max_order:
            continue
        sup = abs(amp)
        for rungs, d in zip(ladders, delta):
            R = rungs[d]
            sup *= _sup_abs(R[total - d:len(R) - total + d])
        sups[delta] = sup
    return sups


def _sup_abs(A) -> float:
    """max |A| as a float, NaN when an entry is."""
    if np.iscomplexobj(A):
        return float(np.abs(A).max())
    # abs maps a -0.0 sup to 0.0, as np.abs would
    return abs(float(max(A.max(), -A.min())))


# ---------------------------------------------------------------------------
# budget checker


@dataclass
class BudgetRow:
    i: int
    l: int
    delta: Tuple[int, int, int]
    measured: float
    allowed: float

    @property
    def ratio(self) -> float:
        return self.measured / self.allowed if self.allowed > 0 else math.inf

    @property
    def passed(self) -> bool:
        return self.measured <= self.allowed


@dataclass
class BudgetReport:
    rows: List[BudgetRow]
    reality_residual: float
    support_violation: float

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows) \
            and self.reality_residual <= 1e-12 and self.support_violation <= 1e-12

    def worst_ratio(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)

    def max_ratio_per_pair(self) -> Dict[Tuple[int, int], float]:
        out: Dict[Tuple[int, int], float] = {}
        for r in self.rows:
            key = (r.i, r.l)
            out[key] = max(out.get(key, 0.0), r.ratio)
        return out


def _budget_base(params, la: float, up: float, i: int, l: int) -> float:
    """2 lambda0^(1-2 upsilon) (l_l / M^l) M^(aleph'(l-i)), the delta = 0
    allowed value of member (i, l); the budget and the saturating family's
    calibration both call it."""
    M = params.M
    return 2.0 * la ** (1 - 2 * up) * params.sector_length(l) / M ** l \
        * M ** (params.aleph_prime * (l - i))


def _windows(i: int, l: int, M: float):
    """Per-axis sampling windows of member (i, l), adapted to the
    oscillation of the shipped profile at the scales M^i and M^l."""
    wi, wl = M ** i, M ** l
    k0_half = min(_K0_EDGE - 1.0, 3 * math.pi)
    k0_win = ((_K0_CENTER - k0_half) / wi, (_K0_CENTER + k0_half) / wi)
    sp_half = min(_KX_EDGE, 3 * 2 * math.pi / wl)
    sp_win = (-sp_half, sp_half)
    return k0_win, sp_win, sp_win


def check_q_budget(family: ScaleFamily, params,
                   npts: Tuple[int, int, int] = (112, 112, 112),
                   scales: Optional[ScaleModel] = None) -> BudgetReport:
    """Measure sup |D^delta q^(i,l)| by central differences on each
    member's sampling windows and compare with the budget; also report the
    k0-reflection reality residual and (when a scale model is given) the
    support conditions near the Fermi curve and off the UV cutoff.

    A ProductQ member is measured from its per-axis factors
    (product_sup_derivatives); any other callable on the open mesh of the
    full grid (grid_sup_derivatives)."""
    M, la, up = params.M, family.lambda0, family.upsilon
    rows: List[BudgetRow] = []
    reality = 0.0
    support = 0.0
    points = {}  # support sample points per i, shared by the members of i
    for (i, l), qf in sorted(family.q.items()):
        windows = _windows(i, l, M)
        if isinstance(qf, ProductQ):
            axes = [np.linspace(lo, hi, n)
                    for (lo, hi), n in zip(windows, npts)]
            sups = product_sup_derivatives(
                qf.amp, qf.factors(*axes), [ax[1] - ax[0] for ax in axes], 2)
            mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
        else:
            sups, mesh = grid_sup_derivatives(
                lambda *k: _real_if_zero_imag(qf(*k)), windows, npts, 2)
        base = _budget_base(params, la, up, i, l)
        for delta in sorted(sups):
            allowed = base * M ** (delta[0] * i) * M ** ((delta[1] + delta[2]) * l)
            rows.append(BudgetRow(i=i, l=l, delta=delta,
                                  measured=sups[delta], allowed=allowed))
        # reflection reality on paired samples
        k0, kx, ky = (m[::13, ::13, ::13] for m in mesh)
        res = np.abs(np.asarray(qf(-k0, kx, ky))
                     - np.conj(np.asarray(qf(k0, kx, ky))))
        reality = max(reality, float(res.max()))
        if scales is not None:
            if i not in points:
                points[i] = _support_points(scales, i)
            k0 = points[i][0]
            vals = np.broadcast_to(np.asarray(qf(*points[i])), k0.shape)
            support = max(support, float(np.abs(vals).max(initial=0.0)))
    return BudgetReport(rows=rows, reality_residual=reality,
                        support_violation=support)


def _real_if_zero_imag(q):
    q = np.asarray(q)
    return q.real if np.iscomplexobj(q) and not np.abs(q.imag).any() else q


def _support_points(scales: ScaleModel, i: int):
    """(k0, kx, ky) arrays of the points where a member of first index i
    must vanish, from two R_d sets (scales.rd_points): the first 400 points
    of a 3-d set at angle theta, radius fermi_radius(theta) (1 + s) with s
    in [-edge, edge), and k0 in [-edge, edge), kept where
    |i k0 - e| <= edge, the edge of the (i+2)-nd neighbourhood (on the
    shipped models e = (1 + s)^2 - 1, so the kept points fill it); and the
    first 200 points at angle theta, radius in [2.05, 4) and k0 in [-2, 2),
    kept where U = 0, off supp U.  Only the edge depends on i."""
    edge = scales.params.shell_hi(i + 2)
    th, s, k0 = rd_points(400, (0.0, -edge, -edge), (2 * np.pi, edge, edge)).T
    rad = scales.disp.fermi_radius(th) * (1.0 + s)
    near = np.stack([k0, rad * np.cos(th), rad * np.sin(th)])
    near = near[:, np.abs(scales.radius(*near)) <= edge]
    th, rad, k0 = rd_points(200, (0.0, 2.05, -2.0), (2 * np.pi, 4.0, 2.0)).T
    uv = np.stack([k0, rad * np.cos(th), rad * np.sin(th)])
    uv = uv[:, scales.disp.U(uv[1], uv[2]) == 0.0]
    return tuple(np.concatenate([near, uv], axis=1))


# ---------------------------------------------------------------------------
# partial-sum decay


@dataclass
class DecayFit:
    js: List[int]
    sups: List[float]
    slope: float          # fitted d log X_j / dj
    expected: float       # -aleph log M


def q_tail_decay(family: ScaleFamily, params, scales: ScaleModel,
                 js: List[int]) -> DecayFit:
    """Fit the decay of the sampled sup of |Q - Q_j| / min(|i k0 - e|, 1).

    Probes pin every oscillation at once: the spatial anchors are points
    with 2 pi dyadic coordinates lying (nearly) on the Fermi curve, where
    cos(M^l kx) = cos(M^l ky) = 1 for every member once M^l kx is a 2 pi
    multiple (frequency doubling keeps the deeper scales on-crest); the k0
    probe rides a temporal crest of the leading tail member.  The tail at
    the probe is then exactly shift-invariant in the cutoff, so the sampled
    sup decays at the sector-length rate the bound it saturates dictates.
    """
    p = params
    # dyadic-crest anchors near the curve for the quadratic model:
    # (pi/4, 3 pi/8) has e = 1.85e-3 and all scale-(>=4) waves at crest
    anchors = [(math.pi / 4, 3 * math.pi / 8), (3 * math.pi / 8, math.pi / 4)]
    sups = []
    for j in js:
        k0 = 3 * math.pi / p.M ** (j + 1)
        best = 0.0
        for (ax, ay) in anchors:
            r = float(scales.radius(k0, ax, ay))
            tail = 0.0 + 0.0j
            for (i, l) in sorted(family.q):
                if i <= j and l <= j:
                    continue
                tail += complex(family.q[(i, l)](k0, ax, ay))
            best = max(best, abs(tail) / min(r, 1.0))
        sups.append(best)
    slope = float(np.polyfit(np.asarray(js, dtype=float), np.log(sups), 1)[0])
    return DecayFit(js=list(js), sups=sups, slope=slope,
                    expected=-p.aleph * math.log(p.M))


# ---------------------------------------------------------------------------
# the proper self-energy


_COND_FLOOR = 1e-8  # smallest |denominator| of the self-energy formulas


def _require(ok, exc, what, k, size=None):
    """Raise exc(what) naming the first point of k = (k0, kx, ky) where the
    array ok is false (with size there, when given)."""
    if not np.all(ok):
        i = np.flatnonzero(~np.asarray(ok))[0]
        at = ", ".join(repr(float(np.broadcast_to(c, np.shape(ok)).flat[i]))
                       for c in k)
        what += "" if size is None else f" {np.asarray(size).flat[i]:.3e}"
        raise exc(f"{what} at (k0, kx, ky) = ({at})")


def _evaluate(scales: ScaleModel, k, fns, what: str, k0_nonzero=False):
    """E = i k0 - e at the points k = (k0, kx, ky) and each function of fns
    there, broadcast to E's shape; SingularityError(what) at the first
    point where E = 0 (or, with k0_nonzero, k0 = 0)."""
    E = np.asarray(scales.amputation(*k))
    ok = (E != 0) & (np.asarray(k[0]) != 0) if k0_nonzero else E != 0
    _require(ok, SingularityError, what, k)
    return E, [np.broadcast_to(f(*k), E.shape) for f in fns]


def _complex_if_0d(x):
    return complex(x) if np.ndim(x) == 0 else x


def proper_sigma(scales: ScaleModel, k0, kx, ky, P: Callable, Q: Callable):
    """Sigma = (P + Q - Q P/E) / (1 + Q/E - (P/E)(Q/E)), E = i k0 - e, at
    the points (k0, kx, ky), which broadcast together: an array, or a
    complex for scalar input.  The errors name the first failing point."""
    k = (k0, kx, ky)
    E, (Pv, Qv) = _evaluate(scales, k, (P, Q), "i k0 - e(k) vanishes")
    den = 1.0 + Qv / E - (Pv / E) * (Qv / E)
    size = np.abs(den)
    _require(size >= _COND_FLOOR, ConditioningError,
             "self-energy denominator", k, size)
    return _complex_if_0d((Pv + Qv - Qv * Pv / E) / den)


def sigma_k0_derivative(scales: ScaleModel, k0, kx, ky, P: Callable,
                        Q: Callable, dP: Callable, dQ: Callable):
    """dSigma/dk0 through the cancellation-stable tilde variables, at the
    points (k0, kx, ky) as in proper_sigma.

    Uses Q~(m) = (i k0)^m Q / E^(m+1), Q0~(m) = (i k0/E)^m dQ/dk0,
    P~ = P/(i k0), all bounded near the Fermi curve for compliant families.
    """
    k = (k0, kx, ky)
    E, (Pv, Qv, dPv, dQv) = _evaluate(
        scales, k, (P, Q, dP, dQ),
        "tilde variables need k0 != 0 and i k0 != e", k0_nonzero=True)
    ik0 = 1j * np.asarray(k0, dtype=float)
    Qt = [ik0 ** m * Qv / E ** (m + 1) for m in range(3)]
    Qt0 = [(ik0 / E) ** m * dQv for m in range(3)]
    Pt = Pv / ik0
    D = 1.0 + Qt[0] - Pt * Qt[1]
    size = np.abs(D)
    _require(size >= _COND_FLOOR, ConditioningError, "tilde denominator", k,
             size)
    term1 = (dPv + 2j * Qt[0] + Qt0[0] - 1j * Pt * Qt[1]
             - dPv * Qt[0] - Pt * Qt0[1]) / D
    term2 = Pt * (1j * Qt[1] + Qt0[1] - dPv * Qt[1] - Pt * Qt0[2]) / D ** 2
    term3 = ((Qt[0] - Pt * Qt[1])
             * (1j * Qt[0] + Qt0[0] - dPv * Qt[0] - Pt * Qt0[1])
             + 2j * Qt[0] + 2j * Pt ** 2 * Qt[2] - 4j * Pt * Qt[1]) / D ** 2
    return _complex_if_0d(term1 - term2 - term3)


# ---------------------------------------------------------------------------
# family file io


# The profile columns of every q line: k0 center and outer half-width in
# M^i k0, spatial outer and plateau half-widths (the profile of ProductQ).
_PROFILE = (_K0_CENTER, _K0_EDGE, _KX_EDGE, _KX_PLATEAU)


def family_to_text(family: ScaleFamily, params) -> str:
    """The family as text: the lambda0, upsilon and M keys, one
    `p i amp` line per counterterm and one `q i l amp` line plus the
    profile columns per two-point member.  The p lines come from
    family.p_amp, which must hold an amplitude for exactly the indices of
    family.p; a q member that is not the ProductQ of its (i, l) at params.M
    has no such line.  Either raises ValueError."""
    if sorted(family.p) != sorted(family.p_amp):
        raise ValueError(f"counterterm indices {sorted(family.p)} but "
                         f"amplitudes for {sorted(family.p_amp)}; a family "
                         f"file holds a p member only through its amplitude")
    lines = [
        "# fermi2d scale family",
        f"lambda0 = {family.lambda0!r}",
        f"upsilon = {family.upsilon!r}",
        f"M = {params.M!r}",
    ]
    for i in sorted(family.p_amp):
        lines.append(f"p {i} {family.p_amp[i]!r}")
    for (i, l), qf in sorted(family.q.items()):
        if not (isinstance(qf, ProductQ)
                and qf == _make_q_member(params.M, i, l, qf.amp)):
            raise ValueError(f"member ({i},{l}) is not a ProductQ of its "
                             f"scales; a family file cannot hold it")
        lines.append(f"q {i} {l} {qf.amp!r} " + " ".join(map(repr, _PROFILE)))
    return "\n".join(lines) + "\n"


def family_from_text(text: str, params) -> ScaleFamily:
    """Read a family written by family_to_text.

    The `lambda0` and `upsilon` keys are required and obey the ScaleParams
    rules; `M`, if given, must equal params.M.  Amplitudes are finite,
    indices satisfy j0 <= i <= l <= jmax, the budget scale factors of a q
    member (up to M^(2 l)) are finite floats, the profile columns are the
    shipped profile, and no key or member appears twice.  Any other line
    raises ValueError naming it.
    """
    fam = ScaleFamily()
    keys = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                _read_family_line(fam, keys, line, params)
            except ValueError as exc:
                msg = f"family line {lineno} {raw!r}: {exc}"
                raise ValueError(msg) from None
    for key in ("lambda0", "upsilon"):
        if key not in keys:
            raise ValueError(f"family file sets no {key}")
    fam.lambda0, fam.upsilon = keys["lambda0"], keys["upsilon"]
    return fam


def _read_family_line(fam: ScaleFamily, keys: dict, line: str, params):
    if "=" in line:
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in ("lambda0", "upsilon", "M") or key in keys:
            raise ValueError(f"unknown or repeated key {key!r}")
        keys[key] = float(val)
        if key == "M" and keys[key] != params.M:
            raise ValueError(f"M must be {params.M!r}, as in the budget")
        replace(params, **{key: keys[key]})  # the ScaleParams rules
        return
    kind, *cols = line.split()
    if kind == "p" and len(cols) == 2:
        i = l = key = int(cols[0])
        amp = float(cols[1])
    elif kind == "q" and len(cols) == 7:
        key = i, l = int(cols[0]), int(cols[1])
        amp = float(cols[2])
        if tuple(map(float, cols[3:])) != _PROFILE:
            raise ValueError("profile columns must be "
                             + " ".join(map(repr, _PROFILE)))
    else:
        raise ValueError("expected 'key = value', 'p i amp' or "
                         "'q i l amp' and the 4 profile columns")
    if not math.isfinite(amp):
        raise ValueError(f"amplitude {amp!r} is not finite")
    if not params.j0 <= i <= l <= params.jmax:
        raise ValueError(f"need j0 = {params.j0} <= i <= l <= "
                         f"jmax = {params.jmax}")
    if kind == "q":
        try:  # M^(2 l), the largest factor of the member and its budget
            params.M ** (2 * l)
        except OverflowError:
            raise ValueError(f"scale factor M^(2 l) = {params.M!r}^{2 * l} "
                             f"is not a finite float") from None
    if key in (fam.p if kind == "p" else fam.q):
        raise ValueError(f"member {key} given twice")
    if kind == "p":
        fam.p[i], fam.dp_dk0[i] = _make_p_member(amp), _make_dp_member(amp)
        fam.p_amp[i] = amp
    else:
        fam.q[key] = _make_q_member(params.M, i, l, amp)
