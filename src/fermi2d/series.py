"""Truncated majorant power series with coefficients in [0, inf].

A FormalSeries tracks nonnegative coefficients over multi-indices
delta = (d0, d1, d2), truncated at d0 <= r0 temporal and d1 + d2 <= r
spatial derivatives; every coefficient outside that region is +inf.
Arithmetic is the extended one: inf + x = inf, inf * 0 = 0, so that the
ring laws survive on the finite region.  These series realize the norm
bookkeeping weights c_{i,j}, e_{i,j}(X) and the scale-norm aggregation.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Tuple

INF = float("inf")
_TINY = math.ulp(0.0)  # smallest positive float

MultiIndex = Tuple[int, int, int]


class DivergentSeriesError(ValueError):
    """Geometric resummation attempted with constant term >= 1."""


def finite_region(r0: int, r: int):
    """Multi-indices with d0 <= r0 and d1 + d2 <= r, graded by total degree."""
    idx = [(d0, d1, d2)
           for d0 in range(r0 + 1)
           for d1 in range(r + 1)
           for d2 in range(r + 1 - d1)]
    idx.sort(key=lambda d: (d[0] + d[1] + d[2], d))
    return idx


def _xmul(a: float, b: float) -> float:
    # extended [0, inf] product with 0 * inf = 0; a product of positive
    # coefficients never underflows to 0, which a later inf would absorb
    if a == 0.0 or b == 0.0:
        return 0.0
    return max(a * b, _TINY)


def _sum(terms) -> float:
    # exactly rounded (math.fsum, so independent of the order of terms) sum
    # of terms in [0, inf]; fsum raises on a finite sum beyond the float
    # range, which is inf here
    try:
        return math.fsum(terms)
    except OverflowError:
        return INF


@dataclass(frozen=True)
class FormalSeries:
    r0: int
    r: int
    coeff: Dict[MultiIndex, float]

    def __post_init__(self):
        for d, v in self.coeff.items():
            if math.isnan(v) or v < 0.0:
                raise ValueError(f"coefficient at {d} must be in [0, inf], got {v}")

    # -- access ---------------------------------------------------------

    def region(self):
        return finite_region(self.r0, self.r)

    def get(self, d: MultiIndex) -> float:
        d0, d1, d2 = d
        if d0 > self.r0 or d1 + d2 > self.r:
            return INF
        return self.coeff.get((d0, d1, d2), 0.0)

    def const(self) -> float:
        return self.get((0, 0, 0))

    # -- arithmetic -------------------------------------------------------

    def _like(self, coeff):
        return FormalSeries(self.r0, self.r, coeff)

    def _check_compatible(self, other: "FormalSeries"):
        if (self.r0, self.r) != (other.r0, other.r):
            raise ValueError("mismatched truncation orders")

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_compatible(other)
        return self._like({d: self.get(d) + other.get(d) for d in self.region()})

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        """Cauchy product; each coefficient is the exactly rounded sum of its
        terms, so a * b == b * a bit for bit."""
        self._check_compatible(other)
        out = {}
        for d in self.region():
            out[d] = _sum(_xmul(self.get((a0, a1, a2)),
                                other.get((d[0] - a0, d[1] - a1, d[2] - a2)))
                          for a0 in range(d[0] + 1)
                          for a1 in range(d[1] + 1)
                          for a2 in range(d[2] + 1))
        return self._like(out)

    def scale(self, c: float) -> "FormalSeries":
        if math.isnan(c) or c < 0.0:
            raise ValueError("scale factor must be in [0, inf]")
        return self._like({d: _xmul(c, self.get(d)) for d in self.region()})

    def shift_temporal(self, factor: float) -> "FormalSeries":
        """Multiply the coefficient at delta by factor^d0."""
        return self._like({d: _xmul(self.get(d), factor ** d[0])
                           for d in self.region()})

    def leq(self, other: "FormalSeries") -> bool:
        """Coefficientwise <= on the finite region (inf <= inf holds)."""
        self._check_compatible(other)
        return all(self.get(d) <= other.get(d) for d in self.region())

    def max_abs(self) -> float:
        return max((self.get(d) for d in self.region()), default=0.0)

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return ((self.r0, self.r) == (other.r0, other.r)
                and all(self.get(d) == other.get(d) for d in self.region()))

    def isclose(self, other: "FormalSeries", rtol=1e-12, atol=1e-12) -> bool:
        self._check_compatible(other)
        for d in self.region():
            a, b = self.get(d), other.get(d)
            if a == b:
                continue
            if math.isinf(a) or math.isinf(b):
                return False
            if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
                return False
        return True

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        body = {f"{d[0]},{d[1]},{d[2]}": ("inf" if math.isinf(v) else v)
                for d, v in ((d, self.get(d)) for d in self.region())}
        return json.dumps({"truncation": [self.r0, self.r], "coeff": body},
                          sort_keys=True)

    @staticmethod
    def from_text(text: str) -> "FormalSeries":
        data = json.loads(text)
        r0, r = data["truncation"]
        coeff = {}
        for key, v in data["coeff"].items():
            d = tuple(int(x) for x in key.split(","))
            coeff[d] = INF if v == "inf" else float(v)
        return FormalSeries(int(r0), int(r), coeff)


def zero_series(r0: int = 2, r: int = 2) -> FormalSeries:
    return FormalSeries(r0, r, {})


def const_series(value: float, r0: int = 2, r: int = 2) -> FormalSeries:
    return FormalSeries(r0, r, {(0, 0, 0): float(value)})


def from_coeffs(coeff: Dict[MultiIndex, float], r0: int = 2, r: int = 2) -> FormalSeries:
    return FormalSeries(r0, r, dict(coeff))


# -- canonical scale-weight series -------------------------------------------


def c_series(params, i: int, j: int) -> FormalSeries:
    """c_{i,j}: coefficient M^(i d0) M^(j (d1+d2)), inf beyond truncation."""
    if i < 0 or j < 0:
        raise ValueError("scale indices must be nonnegative")
    M = params.M
    coeff = {d: (M ** (i * d[0])) * (M ** (j * (d[1] + d[2])))
             for d in finite_region(params.r0, params.r)}
    return FormalSeries(params.r0, params.r, coeff)


def cj_series(params, j: int) -> FormalSeries:
    """c_j = c_{j,j}."""
    return c_series(params, j, j)


def geometric_series(y: FormalSeries) -> FormalSeries:
    """sum_{n>=0} y^n, resummed degree by degree.

    Requires y's constant coefficient < 1; coefficients of y may be +inf
    (they propagate to +inf in the output wherever they contribute).
    """
    y0 = y.const()
    if math.isinf(y0) or y0 >= 1.0:
        raise DivergentSeriesError(f"constant coefficient {y0} >= 1")
    inv = 1.0 / (1.0 - y0)
    out: Dict[MultiIndex, float] = {}
    for d in y.region():  # graded order: dependencies come first
        if d == (0, 0, 0):
            out[d] = inv
            continue
        acc = 0.0
        for a0 in range(d[0] + 1):
            for a1 in range(d[1] + 1):
                for a2 in range(d[2] + 1):
                    a = (a0, a1, a2)
                    if a == (0, 0, 0):
                        continue
                    acc += _xmul(y.get(a), out[(d[0] - a0, d[1] - a1, d[2] - a2)])
        out[d] = _xmul(inv, acc)
    return FormalSeries(y.r0, y.r, out)


def e_series(params, i: int, j: int, X: FormalSeries) -> FormalSeries:
    """e_{i,j}(X) = c_{i,j} / (1 - M^j X), truncated."""
    y = X.scale(params.M ** j)
    return c_series(params, i, j) * geometric_series(y)


def ej_series(params, j: int, X: FormalSeries) -> FormalSeries:
    return e_series(params, j, j, X)


def rho_tilde(m: int, n: int, lambda0: float, upsilon: float) -> float:
    """rho~_{m;n} = lambda0^(m upsilon/7) / lambda0^((1-upsilon) max(m+n-2,2)/2)."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be nonnegative")
    if not (0.0 < lambda0 < 1.0):
        raise ValueError("lambda0 must lie in (0,1)")
    expo = m * upsilon / 7.0 - (1.0 - upsilon) * max(m + n - 2, 2) / 2.0
    return lambda0 ** expo


def _p_weights(params, j: int, m: int, n: int) -> float:
    """Sum of the sector-norm weights over admissible p for degree (m, n).

    Weights follow the scale-norm definition: (1, 1, 1/l, 1/l, 1/l^2, 1/l^2)
    over p = 1..6 when m != 0, and (1, 1/l, 1/l^2) over odd p when m = 0;
    entries with p < m or p > m+n never contribute.
    """
    lj = params.sector_length(j)
    if m == 0:
        table = {1: 1.0, 3: 1.0 / lj, 5: 1.0 / lj ** 2}
    else:
        table = {1: 1.0, 2: 1.0, 3: 1.0 / lj, 4: 1.0 / lj,
                 5: 1.0 / lj ** 2, 6: 1.0 / lj ** 2}
    lo = max(m, 1)
    return sum(w for p, w in table.items() if lo <= p <= m + n)


def n_tilde_aggregate(params, j: int, X: FormalSeries,
                      per_degree: Dict[Tuple[int, int], FormalSeries],
                      alpha: float | None = None,
                      bconst: float | None = None) -> FormalSeries:
    """Aggregate per-degree momentum norms into the scale-j weight.

    N_j(w, alpha, X) = (M^{2j}/l_j) e_j(X) sum_{m,n} alpha^{m+n}
                       (l_j B / M^j)^{(m+n)/2} |w_{m,n}|_j,
    with |.|_j = rho~_{m;n} times the p-weighted sum of the given series
    (one series per degree, used for every admissible p).
    """
    alpha = params.alpha if alpha is None else alpha
    bconst = params.bconst if bconst is None else bconst
    lj = params.sector_length(j)
    M = params.M
    total = zero_series(params.r0, params.r)
    for (m, n) in sorted(per_degree):
        series = per_degree[(m, n)]
        w = _p_weights(params, j, m, n)
        if w == 0.0:
            continue
        rho = rho_tilde(m, n, params.lambda0, params.upsilon)
        fac = rho * (alpha ** (m + n)) * (lj * bconst / M ** j) ** ((m + n) / 2.0) * w
        total = total + series.scale(fac)
    pref = (M ** (2 * j)) / lj
    return ej_series(params, j, X) * total.scale(pref)
