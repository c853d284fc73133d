"""Dispersion model, UV cutoff, scale functions and cutoff covariances.

The scale decomposition lives in the single variable r(k) = |i k0 - e(k)|.
The j-th scale function nu_j is supported on the shell

    1/(sqrt(M) M^j)  <=  r(k)  <=  sqrt(2 M)/M^j

and only adjacent shells overlap.  The first scale j0 is special: it
absorbs everything between the top of its shell and the ultraviolet cutoff
(the first scales are always integrated out together), so that

    sum_{j=j0..J} nu_j(k) + nu_{>J}(k) = U(k)    pointwise, exactly.

Covariances are C^I_u(k) = nu^I(k) / (i k0 - e(k) - u(k)) for a scale
interval I, under the smallness hypothesis |u| <= |i k0 - e|/2 on the
support of nu^I.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ScaleRangeError(ValueError):
    """Scale index outside [j0, Jmax]."""


class HypothesisViolationError(ValueError):
    """A smallness hypothesis (|u| <= |A|/2 on shell support) failed."""


def rd_points(n: int, lo, hi) -> np.ndarray:
    """The first n points of the R_d Kronecker sequence, scaled to the box
    [lo, hi) of dimension d = len(lo), as an (n, d) array.

    u_m = frac(1/2 + m alpha) for m = 1..n with alpha_j = phi_d^(-j), and
    phi_d the positive root of x^(d+1) = x + 1 (Roberts 2018).  Each point
    depends only on m, so the first k of n points are the k-point set;
    the sequence fills the box more evenly than independent uniform draws.
    The hypothesis checks (SelfEnergyModel.validate and the support check
    of selfenergy.check_q_budget) sample it.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    phi = 2.0
    for _ in range(64):  # fixed point of x = (1 + x)^(1/(d+1)): a contraction
        phi = (1.0 + phi) ** (1.0 / (lo.size + 1))
    alpha = phi ** -np.arange(1.0, lo.size + 1)
    u = (0.5 + np.arange(1.0, n + 1)[:, None] * alpha) % 1.0
    return lo + (hi - lo) * u


def _smoothstep(t):
    """C^2 quintic step: 0 at t<=0, 1 at t>=1, vanishing s' and s'' at ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (6.0 * t - 15.0))


def ramp_down(x, lo, hi):
    """C^2 ramp: 1 for x <= lo, 0 for x >= hi."""
    return 1.0 - _smoothstep((np.asarray(x, dtype=float) - lo) / (hi - lo))


@dataclass(frozen=True)
class DispersionModel:
    """Dispersion e(k) (chemical potential absorbed) and UV cutoff U(k).

    e and U take (kx, ky) as scalars or numpy arrays.  fermi_radius(theta)
    parametrizes the Fermi curve e = 0 radially; it exists for every model
    this package ships (radially monotone dispersions).
    """

    e: Callable
    U: Callable
    fermi_radius: Callable


def quadratic_model(anisotropy: float = 1.0) -> DispersionModel:
    """e(k) = (kx^2 + a ky^2)/2 - 1, UV cutoff supported in |e| <= 1.

    a = 1 gives the circular Fermi curve of radius sqrt(2); a != 1, which a
    config selects as model = quadratic:a, gives an ellipse.
    """
    a = float(anisotropy)
    if not 0 < a < math.inf:
        raise ValueError("quadratic model anisotropy must be positive and "
                         f"finite, got {a}")

    def e(kx, ky):
        return 0.5 * (np.asarray(kx) ** 2 + a * np.asarray(ky) ** 2) - 1.0

    def U(kx, ky):
        return ramp_down(np.abs(e(kx, ky)), 0.5, 1.0)

    def fermi_radius(theta):
        th = np.asarray(theta, dtype=float)
        return np.sqrt(2.0 / (np.cos(th) ** 2 + a * np.sin(th) ** 2))

    return DispersionModel(e=e, U=U, fermi_radius=fermi_radius)


def make_model(name: str) -> DispersionModel:
    """Build a dispersion model from its config name."""
    if name == "quadratic":
        return quadratic_model()
    if name.startswith("quadratic:"):
        return quadratic_model(float(name.split(":", 1)[1]))
    raise ValueError(f"unknown dispersion model {name!r}")


@dataclass(frozen=True)
class ScaleInterval:
    """A set of scales: single shell, finite range, or half-line.

    hi=None means "all scales deeper than lo-1" (including everything below
    the deepest shell).
    """

    lo: int
    hi: Optional[int]

    @staticmethod
    def at(j: int) -> "ScaleInterval":
        return ScaleInterval(j, j)

    @staticmethod
    def ge(j: int) -> "ScaleInterval":
        return ScaleInterval(j, None)

    def __str__(self):
        if self.hi is None:
            return f"(>= {self.lo})"
        if self.lo == self.hi:
            return f"({self.lo})"
        return f"[{self.lo}, {self.hi}]"


class ScaleModel:
    """Scale functions, shells and covariances for one dispersion model."""

    def __init__(self, params, disp: DispersionModel):
        self.params = params
        self.disp = disp
        self._a = math.sqrt(params.M)
        self._b = math.sqrt(2.0 * params.M)

    # -- geometry -----------------------------------------------------

    def radius(self, k0, kx, ky):
        """r(k) = |i k0 - e(k)|."""
        e = self.disp.e(kx, ky)
        return np.hypot(np.asarray(k0, dtype=float), e)

    def amputation(self, k0, kx, ky):
        """A(k) = i k0 - e(k), the amputation factor of external legs."""
        return 1j * np.asarray(k0, dtype=float) - self.disp.e(kx, ky)

    def _phi(self, j: int, r):
        """Cumulative profile: 1 deep inside scale >= j, 0 above its shell."""
        return ramp_down((self.params.M ** j) * np.asarray(r, dtype=float),
                         self._a, self._b)

    def _check_scale(self, j: int, hi_slack: int = 0):
        p = self.params
        if not (p.j0 <= j <= p.jmax + hi_slack):
            raise ScaleRangeError(f"scale {j} outside [{p.j0}, {p.jmax + hi_slack}]")

    # -- scale functions ----------------------------------------------

    def nu(self, j: int, k0, kx, ky):
        """nu^(j)(k).  The first scale absorbs the ultraviolet remainder."""
        return self.nu_interval(ScaleInterval.at(j), k0, kx, ky)

    def nu_ge(self, j: int, k0, kx, ky):
        """nu^(>=j) = sum_{m>=j} nu^(m), including the deep tail."""
        return self.nu_interval(ScaleInterval.ge(j), k0, kx, ky)

    def nu_gt(self, j: int, k0, kx, ky):
        return self.nu_ge(j + 1, k0, kx, ky)

    def nu_interval(self, interval: ScaleInterval, k0, kx, ky):
        """nu^I = U (phi_lo - phi_hi): phi_lo is the profile of scales
        >= lo (1 from j0 up, so j0 absorbs the ultraviolet remainder) and
        phi_hi that of scales > hi (0 for the half-line).  A half-line
        may start one scale below the deepest shell, at Jmax + 1."""
        lo, hi = interval.lo, interval.hi
        self._check_scale(lo, hi_slack=int(hi is None))
        if hi is not None:
            self._check_scale(hi)
            if lo > hi:
                raise ScaleRangeError(f"empty interval [{lo}, {hi}]")
        U = self.disp.U(kx, ky)
        if lo == self.params.j0:
            lo = None
        if lo is None and hi is None:
            return U * np.ones_like(np.asarray(k0, dtype=float))
        r = self.radius(k0, kx, ky)
        top = 1.0 if lo is None else self._phi(lo, r)
        if hi is None:
            return U * top
        return U * (top - self._phi(hi + 1, r))

    # -- covariances ---------------------------------------------------

    def covariance(self, interval: ScaleInterval, u: Optional[Callable],
                   k0, kx, ky):
        """C^I_u(k) = nu^I(k) / (i k0 - e(k) - u(k)).

        Raises HypothesisViolationError unless |u| <= |i k0 - e|/2 on the
        support of nu^I, which keeps the denominator at least half the free
        amputation factor there.
        """
        nu = self.nu_interval(interval, k0, kx, ky)
        A = self.amputation(k0, kx, ky)
        uval = 0.0 if u is None else u(k0, kx, ky)
        nu_arr = np.asarray(nu)
        on = nu_arr > 0
        if np.any(on & (np.abs(uval) > 0.5 * np.abs(A))):
            raise HypothesisViolationError(
                f"|u| > |i k0 - e|/2 on the support of nu^{interval}")
        out = np.where(on, nu_arr / np.where(on, A - uval, 1.0), 0.0)
        if np.ndim(nu) == 0:
            return complex(out)
        return out
