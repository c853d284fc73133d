"""Occupation number and its jump across the Fermi curve.

N(k, tau) = int dk0/2pi e^(i k0 tau) / (i k0 - e(k) - S(k0, k)) splits,
for any eta > 0, into

    N = I1 + I2 + I3 - I3' + I4

with I1 the linearized propagator on |k0| < eta, I2 the remainder there
(controlled by the Hoelder modulus of dS/dk0), I3 the free integral over
the whole line (known by residues), I3' its |k0| < eta part, and I4 the
interacting-minus-free tail.  The tau -> 0+ limit is evaluated through the
closed forms for I1, I3, I3' plus direct quadrature of I2 and I4, whose
integrands stay dominated at tau = 0; occupation_limits integrates them
for many points at once, as one vector on shared intervals, with the
in-tree adaptive Gauss-Kronrod 21 rule (_gk21_adaptive).  Across the
Fermi curve the limit jumps by 1 / (1 - (1/i) dS/dk0(0, kbar)).

The same rule integrates the one-point pieces i1_quad and i3_cutoff_quad
(the quadrature sides of the I1 and I3 closed forms) and i2_quad and
i4_quad (the one-point references for occupation_limits), each as one
complex integrand evaluated once per node.  The module needs numpy only.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .scales import DispersionModel, rd_points


class ModelHypothesisError(ValueError):
    """The self-energy model violates a smallness/reality hypothesis."""


class QuadratureError(ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""


class SingularPointError(ZeroDivisionError):
    """A point sits on the Fermi curve, where N(k) jumps, or a jump
    measurement's radial offsets are not all inside the Fermi radius or do
    not land on their own side of the curve."""


@dataclass
class SelfEnergyModel:
    """Self-energy S(k0, k) with its k0-derivative."""

    S: Callable
    dS_dk0: Callable

    def validate(self, disp: DispersionModel, samples: int = 200) -> None:
        """Check the hypotheses at the first `samples` points (k0, kx, ky)
        of the R_d sequence on [-30, 30] x [-2, 2]^2 (scales.rd_points):
        |S|, |dS/dk0| <= 1/2; |S(0,k)| <= |e(k)|/2; S(0,k) and
        (1/i) dS/dk0(0,k) real.  S and dS_dk0 are each called once, on the
        points followed by their k0 = 0 copies.  The first failing point
        raises ModelHypothesisError for the first hypothesis it fails; each
        check is written as not (value <= bound), so NaN fails it."""
        k0, kx, ky = rd_points(samples, (-30, -2, -2), (30, 2, 2)).T
        args = (np.concatenate([k0, np.zeros(samples)]),
                np.tile(kx, 2), np.tile(ky, 2))
        s, s0 = np.broadcast_to(self.S(*args), (2 * samples,)).reshape(2, -1)
        ds, ds0 = np.broadcast_to(self.dS_dk0(*args),
                                  (2 * samples,)).reshape(2, -1)
        fails = [
            (~((np.abs(s) <= 0.5 + 1e-12) & (np.abs(ds) <= 0.5 + 1e-12)),
             "|S| or |dS/dk0| exceeds 1/2 at ({},{},{})"),
            (~(np.abs(s0) <= 0.5 * np.abs(disp.e(kx, ky)) + 1e-12),
             "|S(0,k)| exceeds |e(k)|/2"),
            (~((np.abs(np.imag(s0)) <= 1e-12) & (np.abs(np.real(ds0)) <= 1e-12)),
             "S(0,k) and (1/i) dS/dk0(0,k) must be real"),
        ]
        bad = np.logical_or.reduce([mask for mask, _ in fails])
        if bad.any():
            n = int(np.argmax(bad))
            msg = next(msg for mask, msg in fails if mask[n])
            raise ModelHypothesisError(
                msg.format(float(k0[n]), float(kx[n]), float(ky[n])))


def linear_self_energy(lam: float, g: Callable) -> SelfEnergyModel:
    """S = i lam q(k0) g(k), q(k0) = k0/sqrt(1+k0^2).

    Linear in k0 near zero (so the jump is 1/(1 - lam g(kbar))) and
    saturating beyond |k0| ~ 1 so that |S| <= lam sup|g| globally, meeting
    the boundedness hypotheses.
    """

    def q(k0):
        return k0 / np.sqrt(1.0 + k0 ** 2)

    def dq(k0):
        return (1.0 + k0 ** 2) ** -1.5

    def S(k0, kx, ky):
        return 1j * lam * q(np.asarray(k0)) * g(kx, ky)

    def dS(k0, kx, ky):
        return 1j * lam * dq(np.asarray(k0)) * g(kx, ky)

    return SelfEnergyModel(S=S, dS_dk0=dS)


# ---------------------------------------------------------------------------
# pointwise data


def _aer(disp, model, kx, ky):
    """A(k) = 1 - (1/i) dS/dk0(0,k), E(k) = e(k) + S(0,k), both real, in the
    broadcast shape of kx, ky (numpy scalars for scalar input)."""
    A, E = np.broadcast_arrays(1.0 - np.imag(model.dS_dk0(0.0, kx, ky)),
                               disp.e(kx, ky) + np.real(model.S(0.0, kx, ky)))
    return A[()], E[()]


def _off_curve_e(disp, kx, ky):
    """e(k), raising SingularPointError when a point sits on the curve."""
    e = disp.e(kx, ky)
    if np.any(e == 0.0):
        raise SingularPointError("on the Fermi curve")
    return e


def default_eta(disp, model, kx, ky):
    """0.5 min(1, 10 |E(k)|), floored away from zero."""
    _, E = _aer(disp, model, kx, ky)
    return np.maximum(0.5 * np.minimum(1.0, 10.0 * np.abs(E)), 1e-5)


# GK21 of QUADPACK (Piessens et al., 1983): the positive Kronrod nodes, the
# Kronrod weights of those nodes and of 0, and the 10-point Gauss weights of
# the odd-numbered nodes; the rule is symmetric about 0.
_KRONROD_X = (0.995657163025808080735527280689003,
              0.973906528517171720077964012084452,
              0.930157491355708226001207180059508,
              0.865063366688984510732096688423493,
              0.780817726586416897063717578345042,
              0.679409568299024406234327365114874,
              0.562757134668604683339000099272694,
              0.433395394129247190799265943165784,
              0.294392862701460198131126603103866,
              0.148874338981631210884826001129720)
_KRONROD_V = (0.011694638867371874278064396062192,
              0.032558162307964727478818972459390,
              0.054755896574351996031381300244580,
              0.075039674810919952767043140916190,
              0.093125454583697605535065465083366,
              0.109387158802297641899210590325805,
              0.123491976262065851077958109831074,
              0.134709217311473325928054001771707,
              0.142775938577060080797094273138717,
              0.147739104901338491374841515972068)
_KRONROD_V0 = 0.149445554002916905664936468389821
_GAUSS_W = (0.066671344308688137593568809893332,
            0.149451349150580593145776339657697,
            0.219086362515982043995534934228163,
            0.269266719309996355091226921569469,
            0.295524224714752870173892994651338)
_GK21_X = _KRONROD_X + (0.0,) + tuple(-x for x in reversed(_KRONROD_X))
_GK21_V = _KRONROD_V + (_KRONROD_V0,) + _KRONROD_V[::-1]
_GK21_W = _GAUSS_W + _GAUSS_W[::-1]     # at nodes 1, 3, ..., 19

# the adaptive driver: subintervals kept at most, intervals bisected per
# round at most, and the message of each status
_GK21_LIMIT = 10000
_GK21_BATCH = 128
_GK21_STATUS = ("Target precision reached.",
                "Target precision not reached.",
                "Target precision could not be reached due to rounding error.",
                "Non-finite values encountered.")


def _max_norm(x) -> float:
    return float(np.max(np.abs(x)))


def _gk21(f, a, b):
    """GK21 of f on [a, b]: (integral, error estimate, rounding error), the
    error estimated as QUADPACK does, in the max norm."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = [f(c + h * x) for x in _GK21_X]
    s_k = s_k_abs = s_g = s_k_dabs = 0.0
    for v, y in zip(_GK21_V, fv):
        s_k += v * y
        s_k_abs += v * abs(y)
    for w, y in zip(_GK21_W, fv[1::2]):
        s_g += w * y
    y0 = s_k / 2.0
    for v, y in zip(_GK21_V, fv):
        s_k_dabs += v * abs(y - y0)
    err = _max_norm((s_k - s_g) * h)
    dabs = _max_norm(s_k_dabs * h)
    if dabs != 0 and err != 0:
        err = dabs * min(1.0, (200 * err / dabs) ** 1.5)
    round_err = _max_norm(50 * sys.float_info.epsilon * h * s_k_abs)
    if round_err > sys.float_info.min:
        err = max(err, round_err)
    return h * s_k, err, round_err


def _gk21_adaptive(f, a, b, tol):
    """Global adaptive GK21 quadrature of a vector-valued f on a finite
    [a, b] at epsabs = epsrel = tol in the max norm, with the algorithm and
    results of scipy.integrate.quad_vec(norm="max"): each round bisects the
    intervals of largest error (up to _GK21_BATCH, until their errors cover
    the excess over tol/8).  Each interval's heap entry carries its
    integral, so a bisected parent is never evaluated again.

    Returns (integral, error estimate, status), status an index into
    _GK21_STATUS: 0 once the error is below tol/8 on at least 2 intervals,
    2 when rounding dominates it, 3 on a non-finite error, 1 at
    _GK21_LIMIT intervals.
    """
    ig, error, rounding = _gk21(f, a, b)
    total = ig
    heap = [(-error, a, b, ig)]
    status = 1
    while heap and len(heap) < _GK21_LIMIT:
        goal = max(tol, tol * _max_norm(total))
        batch, batch_err = [], 0.0
        while heap and len(batch) < _GK21_BATCH and not (
                batch and batch_err > error - goal / 8):
            batch.append(heapq.heappop(heap))
            batch_err -= batch[-1][0]
        for neg_err, lo, hi, old in batch:
            mid = 0.5 * (lo + hi)
            s1, e1, r1 = _gk21(f, lo, mid)
            s2, e2, r2 = _gk21(f, mid, hi)
            total = total + (s1 + s2 - old)
            error += e1 + e2 + neg_err
            rounding += r1 + r2
            heapq.heappush(heap, (-e1, lo, mid, s1))
            heapq.heappush(heap, (-e2, mid, hi, s2))
        if len(heap) >= 2:
            if error < max(tol, tol * _max_norm(total)) / 8:
                status = 0
                break
            if error < rounding:
                status = 2
                break
        if not (math.isfinite(error) and math.isfinite(rounding)):
            status = 3
            break
    return total, error + rounding, status


def _quad_vec(f, a, b, tol) -> np.ndarray:
    """_gk21_adaptive of a scalar- or vector-valued f, checked: raises
    QuadratureError when it does not converge or its error estimate exceeds
    50 max(tol, tol |value|), |value| the max norm."""
    val, err, status = _gk21_adaptive(f, a, b, tol)
    if status != 0:
        raise QuadratureError(_GK21_STATUS[status])
    if err > 50 * max(tol, tol * _max_norm(val)):
        raise QuadratureError(f"estimated error {err:.2e}")
    return val


# ---------------------------------------------------------------------------
# the five pieces


def i1_quad(disp, model, kx, ky, eta: float, tau: float = 0.0,
            tol: float = 1e-10) -> complex:
    A, E = _aer(disp, model, kx, ky)

    def f(k0):
        return np.exp(1j * k0 * tau) / (1j * A * k0 - E) / (2 * math.pi)

    return complex(_quad_vec(f, -eta, eta, tol))


def i1_closed_limit(disp, model, kx, ky, eta):
    """lim_{tau->0} I1 = -(sgn e / (pi A)) arctan(eta |A/E|)."""
    A, E = _aer(disp, model, kx, ky)
    e = _off_curve_e(disp, kx, ky)
    return -np.sign(e) / (math.pi * A) * np.arctan(eta * np.abs(A / E))


def i2_quad(disp, model, kx, ky, eta: float, tol: float = 1e-10) -> complex:
    """The |k0| < eta remainder at tau = 0, by one-point quadrature (the
    first bisection splits at k0 = 0): the reference for the I2 part of
    occupation_limits."""
    A, E = _aer(disp, model, kx, ky)
    S0 = complex(model.S(0.0, kx, ky))
    dS0 = complex(model.dS_dk0(0.0, kx, ky))

    def f(k0):
        R = complex(model.S(k0, kx, ky)) - S0 - dS0 * k0
        lin = 1j * A * k0 - E
        return R / (lin * (lin - R)) / (2 * math.pi)

    return complex(_quad_vec(f, -eta, eta, tol))


def i3_closed(disp, kx, ky, tau: float) -> float:
    """By residues: e^(e tau) for e < 0, zero for e > 0 (tau > 0)."""
    if tau <= 0:
        raise ValueError("closed form needs tau > 0")
    e = float(_off_curve_e(disp, kx, ky))
    return math.exp(e * tau) if e < 0 else 0.0


def i3_cutoff_quad(disp, kx, ky, tau: float, cutoff: float,
                   tol: float = 1e-10) -> complex:
    """The free integral truncated to |k0| <= cutoff (oscillatory)."""
    e = float(disp.e(kx, ky))

    def f(k0):
        return np.exp(1j * tau * k0) / (1j * k0 - e) / (2 * math.pi)

    return complex(_quad_vec(f, -cutoff, cutoff, tol))


def i3_cutoff_extrapolated(disp, kx, ky, tau: float, base_cutoff: float = 60.0,
                           tol: float = 1e-10) -> float:
    """Richardson in the inverse cutoff, cutoffs pinned to whole periods so
    the oscillatory error terms carry fixed phases (then the tail is a pure
    power series in 1/K, eliminated through 1/K^3)."""
    period = 2 * math.pi / tau
    n0 = max(1, int(math.ceil(base_cutoff / period)))
    ks = [n0 * period * 2 ** m for m in range(4)]
    vals = [complex(i3_cutoff_quad(disp, kx, ky, tau, K, tol)).real for K in ks]
    a = [2 * vals[m + 1] - vals[m] for m in range(3)]
    b = [(4 * a[m + 1] - a[m]) / 3.0 for m in range(2)]
    return (8 * b[1] - b[0]) / 7.0


def i3p_closed_limit(disp, kx, ky, eta):
    """tau -> 0 limit of the |k0| < eta free piece (I1 form at A=1, E=e)."""
    e = _off_curve_e(disp, kx, ky)
    return -np.sign(e) / math.pi * np.arctan(eta / np.abs(e))


def i4_quad(disp, model, kx, ky, eta: float, tol: float = 1e-10) -> complex:
    """Interacting-minus-free tail over |k0| >= eta at tau = 0, folded
    symmetrically and mapped onto t in (0, 1] by k0 = eta/t: the
    reference for the I4 part of occupation_limits."""
    e = float(disp.e(kx, ky))

    def g(k0):
        S = complex(model.S(k0, kx, ky))
        free = 1j * k0 - e
        return S / (free * (free - S))

    def f(t):
        k0 = eta / t
        return k0 / t * (g(k0) + g(-k0)) / (2 * math.pi)

    return complex(_quad_vec(f, 0.0, 1.0, tol))


# ---------------------------------------------------------------------------
# assembled quantities


def occupation_limits(disp, model, kx, ky, eta=None, quad_tol: float = 1e-9):
    """occupation_limit at every point of the arrays kx, ky at once.

    I1, I3 and I3' are the closed forms.  I2 (k0 = +-eta t) and the I4 tail
    (k0 = +-eta/t, dk0 = eta/t^2 dt) are mapped onto t in (0, 1] and folded,
    so the I2 + I4 integrands of all points form one complex vector,
    integrated by a single checked _quad_vec call.  Near the curve eta is
    proportional to |E|, so the near-pole structure of every point has the
    same width in t and one adaptive subdivision serves all points.
    Returns arrays (values, imaginary residuals) in the broadcast shape of
    kx, ky; eta, when given, broadcasts against them.
    """
    kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=float),
                                 np.asarray(ky, dtype=float))
    e = _off_curve_e(disp, kx, ky)
    if e.size == 0:
        return np.zeros(e.shape), np.zeros(e.shape)
    A, E = _aer(disp, model, kx, ky)
    eta = default_eta(disp, model, kx, ky) if eta is None \
        else np.asarray(eta, dtype=float)
    eta = np.broadcast_to(eta, np.broadcast_shapes(eta.shape, e.shape))
    S0 = model.S(0.0, kx, ky)
    dS0 = model.dS_dk0(0.0, kx, ky)

    def integrand(t):
        # one S call per node, on the stacked k0 = +-eta t, +-eta / t
        near, far = eta * t, eta / t
        k0 = np.stack([near, -near, far, -far])
        S = np.broadcast_to(model.S(k0, kx, ky), k0.shape)
        R = S[:2] - S0 - dS0 * k0[:2]
        lin = 1j * A * k0[:2] - E
        i2 = R / (lin * (lin - R))
        free = 1j * k0[2:] - e
        i4 = S[2:] / (free * (free - S[2:]))
        return (eta * (i2[0] + i2[1])
                + far / t * (i4[0] + i4[1])) / (2 * math.pi)

    total = _quad_vec(integrand, 0.0, 1.0, quad_tol)
    total += i1_closed_limit(disp, model, kx, ky, eta)
    total += np.where(e < 0, 1.0, 0.0)
    total -= i3p_closed_limit(disp, kx, ky, eta)
    return total.real, np.abs(total.imag)


def occupation_limit(disp, model, kx, ky, eta: Optional[float] = None,
                     quad_tol: float = 1e-9):
    """N(k) = lim_{tau->0+} N(k, tau) via the closed forms for I1, I3, I3'
    and direct quadrature of I2, I4 at tau = 0 (occupation_limits at one
    point).

    Returns (value, imaginary residual); the residual must stay within the
    quadrature tolerance for reality-symmetric models.
    """
    val, resid = occupation_limits(disp, model, [kx], [ky], eta, quad_tol)
    return float(val[0]), float(resid[0])


def jump_predicted(model, kx, ky):
    """[1 - (1/i) dS/dk0(0, kbar)]^(-1)."""
    return 1.0 / (1.0 - np.imag(model.dS_dk0(0.0, kx, ky)))


def jump_at(disp, model, theta: float, deltas=(4e-3, 2e-3, 1e-3),
            quad_tol: float = 1e-9) -> SweepRow:
    """Measure the jump at the Fermi point with angle theta.

    N is evaluated at radial offsets straddling the curve and extrapolated
    to the curve by polynomial (Richardson-style) extrapolation in the
    offset.  The row's n_in/n_out are N at -/+ deltas[-1].
    """
    return _jump_rows(disp, model, [theta], deltas, quad_tol)[0]


def _jump_rows(disp, model, thetas, deltas, quad_tol) -> List[SweepRow]:
    """jump_at at every angle of thetas, all N values from one
    occupation_limits call."""
    thetas = np.asarray(thetas, dtype=float)
    ds = np.asarray(deltas, dtype=float)
    rad = disp.fermi_radius(thetas)
    # rad > delta keeps rad - delta on the ray and e at rad + delta below 3
    # on the quadratic models; a thinner ellipse overflows (i k0 - e)^2
    if not np.all(rad > ds.max()):
        raise SingularPointError(f"Fermi radius {rad.min():.3e} is not above "
                                 f"the largest radial offset {ds.max():.3e}")
    nx, ny = np.cos(thetas), np.sin(thetas)
    offsets = np.concatenate([-ds, ds])              # e < 0 side first
    r = rad[:, None] + offsets
    kx, ky = r * nx[:, None], r * ny[:, None]
    # a nonzero offset must land on its own side of the curve: at a radius
    # so large that rad +- delta rounds to rad, both sides read one point
    wrong = (offsets != 0) & (np.sign(disp.e(kx, ky)) != np.sign(offsets))
    if wrong.any():
        t, o = np.argwhere(wrong)[0]
        raise SingularPointError(f"radial offset {offsets[o]:.3e} does not "
                                 f"cross the curve at radius {rad[t]:.3e}")
    vals, _ = occupation_limits(disp, model, kx, ky, quad_tol=quad_tol)
    predicted = np.broadcast_to(jump_predicted(model, rad * nx, rad * ny),
                                thetas.shape)
    m = len(ds)
    rows = []
    for theta, inside, outside, pred in zip(thetas, vals[:, :m], vals[:, m:],
                                            predicted):
        measured = _extrapolate_to_zero(ds, inside) \
            - _extrapolate_to_zero(ds, outside)
        rows.append(SweepRow(theta=float(theta), n_in=float(inside[-1]),
                             n_out=float(outside[-1]),
                             jump_measured=measured,
                             jump_predicted=float(pred),
                             abs_err=abs(measured - float(pred))))
    return rows


def _extrapolate_to_zero(xs, ys) -> float:
    """Neville polynomial extrapolation to x = 0."""
    xs = list(map(float, xs))
    ys = list(map(float, ys))
    n = len(xs)
    tab = list(ys)
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = ((0.0 - xs[i + m]) * tab[i] + (xs[i] - 0.0) * tab[i + 1]) \
                / (xs[i] - xs[i + m])
    return tab[0]


@dataclass
class SweepRow:
    theta: float
    n_in: float
    n_out: float
    jump_measured: float
    jump_predicted: float
    abs_err: float
    flag: str = ""


def fermi_sweep(disp, model, npoints: int = 16, deltas=(4e-3, 2e-3, 1e-3),
                quad_tol: float = 1e-9) -> List[SweepRow]:
    """Jump measurement at npoints equally spaced Fermi-curve angles.

    Raises ModelHypothesisError when the model fails its hypotheses.  All
    angles are first measured together (one vector quadrature); when that
    fails, each angle is measured on its own and a per-point failure is
    recorded in its row flag rather than raised.  Rows are ordered by angle
    and computed in one thread, so the output is the same on every run.
    """
    model.validate(disp)
    thetas = [2 * math.pi * t / npoints for t in range(npoints)]
    try:
        return _jump_rows(disp, model, thetas, deltas, quad_tol)
    except (QuadratureError, SingularPointError):
        pass
    rows = []
    for theta in thetas:
        try:
            rows.append(jump_at(disp, model, theta, deltas, quad_tol))
        except (QuadratureError, SingularPointError) as exc:
            rows.append(SweepRow(theta=theta, n_in=math.nan, n_out=math.nan,
                                 jump_measured=math.nan,
                                 jump_predicted=math.nan, abs_err=math.nan,
                                 flag=type(exc).__name__))
    return rows
