"""Hoelder certificates for scale-decomposed function families.

If f = sum_j f_j with sup |f_j| <= C0 M^(-alpha j) and sup |f_j'| <=
C1 M^(beta j), then f is Hoelder continuous with exponent alpha/(alpha+beta)
and constant C' C0^(beta/(alpha+beta)) C1^(alpha/(alpha+beta)), where
C' = 2 (M^beta/(M^beta - 1) + M^alpha/(M^alpha - 1)).  The certificate is
checked on sampled pairs, and an empirical exponent estimator fits the
log-log modulus of continuity over dyadic separations.  Both sample their
pairs (t, t + sep) at every dyadic level from one fixed point set, the 1-D
R_d sequence (scales.rd_points) scaled to [lo, hi - sep): no seed, and the
same pairs on every run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .scales import rd_points


class EstimationError(ArithmeticError):
    """Degenerate data for the exponent regression."""


@dataclass(frozen=True)
class ScaleBounds:
    alpha: float
    beta: float
    C0: float
    C1: float
    M: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.C0,
                                       self.C1, self.M))):
            raise ValueError("alpha, beta, C0, C1 and M must be finite")
        if min(self.alpha, self.beta, self.C0, self.C1) <= 0:
            raise ValueError("alpha, beta, C0, C1 must be positive")
        if self.M <= 1:
            raise ValueError("M must exceed 1")


def hoelder_certificate(b: ScaleBounds) -> Tuple[float, float]:
    """(exponent, constant) certified by the two-sided scale bounds."""
    expo = b.alpha / (b.alpha + b.beta)
    cprime = 2.0 * (b.M ** b.beta / (b.M ** b.beta - 1.0)
                    + b.M ** b.alpha / (b.M ** b.alpha - 1.0))
    const = cprime * b.C0 ** (b.beta / (b.alpha + b.beta)) \
        * b.C1 ** (b.alpha / (b.alpha + b.beta))
    if not math.isfinite(const):
        raise OverflowError("certificate constant overflows a float")
    return expo, const


@dataclass
class FamilyReport:
    hypotheses_ok: bool
    hyp_worst: float          # worst sup-ratio against the hypotheses
    max_ratio: float          # worst |f(t)-f(t')| / (const |t-t'|^expo)
    worst_pair: Tuple[float, float]
    exponent: float
    constant: float


def verify_family(b: ScaleBounds, family: Sequence[Tuple[Callable, Callable]],
                  pair_points: int = 200, mmax: int = 18,
                  t_range: Tuple[float, float] = (0.0, 1.0)) -> FamilyReport:
    """Check the hypotheses on samples, then the certified modulus on
    dyadic pairs; family entries are (f_j, f_j') callables.  A NaN sample
    fails both checks: hyp_worst and max_ratio then read NaN."""
    expo, const = hoelder_certificate(b)
    ts = np.linspace(t_range[0], t_range[1], 2049)
    hyp_worst = 0.0
    for j, (f, fp) in enumerate(family):
        bound0 = b.C0 * b.M ** (-b.alpha * j)
        bound1 = b.C1 * b.M ** (b.beta * j)
        for r in (float(np.abs(f(ts)).max()) / bound0,
                  float(np.abs(fp(ts)).max()) / bound1):
            if not (r <= hyp_worst or math.isnan(hyp_worst)):
                hyp_worst = r
    hypotheses_ok = hyp_worst <= 1.0 + 1e-9

    def total(t):
        return sum(f(t) for f, _ in family)

    max_ratio = 0.0
    worst = (0.0, 0.0)
    for sep, base, diff in zip(*_dyadic_pairs(total, range(2, mmax + 1),
                                              pair_points, t_range)):
        ratios = diff / (const * sep ** expo)
        k = int(np.argmax(ratios))  # the first NaN, if there is one
        if not (ratios[k] <= max_ratio or math.isnan(max_ratio)):
            max_ratio = float(ratios[k])
            worst = (float(base[k]), float(base[k] + sep))
    return FamilyReport(hypotheses_ok=hypotheses_ok, hyp_worst=hyp_worst,
                        max_ratio=max_ratio, worst_pair=worst,
                        exponent=expo, constant=const)


def _dyadic_pairs(f: Callable, levels, pair_points: int,
                  t_range: Tuple[float, float]):
    """(seps, bases, diffs) over the dyadic separations sep = 2^-m (hi - lo),
    m in levels, one row per level: bases the pair_points R_d bases in
    [lo, hi - sep) and diffs |f(base + sep) - f(base)|, every level in one
    pair of calls of f."""
    lo, hi = t_range
    seps = [2.0 ** (-m) * (hi - lo) for m in levels]
    col = np.array(seps)[:, None]
    bases = _pair_bases(pair_points, lo, hi - col)
    return seps, bases, np.abs(np.asarray(f(bases + col))
                               - np.asarray(f(bases)))


def _pair_bases(n: int, lo, hi):
    """The first n points of the 1-D R_d set scaled to [lo, hi); hi may be
    a column of upper ends, one row of bases per end."""
    return lo + (hi - lo) * rd_points(n, (0.0,), (1.0,))[:, 0]


def saturating_family(b: ScaleBounds, jmax: int = 25):
    """f_j(t) = C0 M^(-alpha j) sin((C1/C0) M^((alpha+beta) j) t): the
    hypotheses hold with equality, making the certificate sharp in rate.
    OverflowError when a member's amplitude, frequency or derivative
    amplitude C1 M^(beta j) is not finite."""
    out = []
    for j in range(jmax + 1):
        ampj = b.C0 * b.M ** (-b.alpha * j)
        freqj = (b.C1 / b.C0) * b.M ** ((b.alpha + b.beta) * j)
        if not all(map(math.isfinite, (ampj, freqj, ampj * freqj))):
            raise OverflowError(f"member {j}: amplitude {ampj:g}, frequency "
                                f"{freqj:g}, derivative amplitude "
                                f"{ampj * freqj:g}")
        out.append(_sine_member(ampj, freqj))
    return out


def _sine_member(amp, freq):
    def f(t):
        return amp * np.sin(freq * np.asarray(t))

    def fp(t):
        return amp * freq * np.cos(freq * np.asarray(t))

    return f, fp


def empirical_exponent(f: Callable, m_range: Tuple[int, int] = (4, 18),
                       pair_points: int = 200,
                       t_range: Tuple[float, float] = (0.0, 1.0)
                       ) -> Tuple[float, float]:
    """Fitted slope of log max|f(t+sep)-f(t)| against log sep over dyadic
    separations, capped at 1 (Lipschitz saturation); returns
    (exponent, one-sigma band of the regression slope)."""
    m_lo, m_hi = m_range
    if m_hi - m_lo + 1 < 10:
        raise EstimationError("need at least 10 dyadic separation levels")
    xs, ys = [], []
    seps, _, diffs = _dyadic_pairs(f, range(m_lo, m_hi + 1), pair_points,
                                   t_range)
    for sep, diff in zip(seps, diffs):
        mx = float(diff.max())
        if mx <= 0.0:
            continue
        xs.append(math.log(sep))
        ys.append(math.log(mx))
    if len(xs) < 3:
        # (near-)constant function: zero modulus at every separation
        return 0.0, 0.0
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    coeffs, cov = np.polyfit(xs, ys, 1, cov=True)
    slope = float(coeffs[0])
    band = float(math.sqrt(max(cov[0, 0], 0.0)))
    if not math.isfinite(slope):
        raise EstimationError("regression produced a non-finite slope")
    return min(slope, 1.0), band
