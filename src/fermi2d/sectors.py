"""Sectorizations of the Fermi curve.

A sectorization of scale j tiles the Fermi curve F = {e(k) = 0} with arcs
[s_lo, s_hi) of length l_j = M^(-aleph j) (the last arc may be shorter).
The extended support of a sector is its arc fattened by one arc length on
each side and transversally by max(shell radius, l_j / 2); kernels with
sectorized legs vanish unless the leg momentum lies in the extended
support, which Sectorization.contains tests as one (sectors, points) matrix.

Refinement from scale j to j+1 distributes a sector's content over the
finer arcs with piecewise-linear hat weights, one (sectors, points) matrix
(hat_weights), that form a partition of unity along the curve, so refined
pieces always re-sum to the original.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class FermiCurve:
    """Arc-length parametrization of a radial Fermi curve."""

    length: float
    _s_of_theta: Callable = field(repr=False)

    def arc_position(self, kx, ky):
        """Arc-length position of the angular projection of (kx, ky)."""
        th = np.mod(np.arctan2(ky, kx), 2 * np.pi)
        return self._s_of_theta(th)


_NTHETA = 4096  # intervals of the arc-length table of a general curve


def build_fermi_curve(disp) -> FermiCurve:
    """Tabulate arc length along theta -> (r(theta) cos, r(theta) sin).

    Exact closed forms are used for circles (constant radius); general
    radial curves fall back to a trapezoid table of _NTHETA intervals.
    """
    thetas = np.linspace(0.0, 2 * np.pi, _NTHETA + 1)
    r = np.asarray(disp.fermi_radius(thetas), dtype=float)
    if np.allclose(r, r[0], rtol=1e-13, atol=1e-13):
        R = float(r[0])

        def s_of_theta(th):
            return np.asarray(th, dtype=float) * R

        return FermiCurve(length=2 * np.pi * R, _s_of_theta=s_of_theta)

    # general radial curve: ds = sqrt(r^2 + r'^2) dtheta on a dense table
    dr = np.gradient(r, thetas)
    speed = np.sqrt(r ** 2 + dr ** 2)
    s_tab = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1])
                                             * np.diff(thetas))])

    def s_of_theta(th):
        return np.interp(np.mod(th, 2 * np.pi), thetas, s_tab)

    return FermiCurve(length=float(s_tab[-1]), _s_of_theta=s_of_theta)


@dataclass(frozen=True)
class Sectorization:
    """The scale-j tiling: arc i is [s_lo[i], s_hi[i]), fattened by
    arc_margin on each side and by trans_width across the curve."""

    j: int
    curve: FermiCurve
    s_lo: np.ndarray
    s_hi: np.ndarray
    arc_margin: float
    trans_width: float

    def __len__(self):
        return len(self.s_lo)

    def contains(self, disp, kx, ky) -> np.ndarray:
        """(sectors, points) extended-support matrix of the momenta (kx, ky):
        |e| within the transversal width and the arc position in the
        fattened arc, cyclically."""
        kx, ky = np.ravel(kx), np.ravel(ky)
        near = ~(np.abs(disp.e(kx, ky)) > self.trans_width)
        margin, L = self.arc_margin, self.curve.length
        rel = np.mod(self.curve.arc_position(kx, ky)
                     - (self.s_lo - margin)[:, None], L)
        return near & (rel < ((self.s_hi - self.s_lo) + 2 * margin)[:, None])


def build_sectorization(params, curve: FermiCurve, j: int,
                        length_override: float | None = None) -> Sectorization:
    """Tile the curve with arcs of length l_j (last arc possibly shorter).

    length_override substitutes a custom arc length for desk-scale tests;
    the geometry is otherwise identical.
    """
    if j < params.j0:
        raise ValueError(f"scale {j} below the first scale {params.j0}")
    lj = params.sector_length(j) if length_override is None else float(length_override)
    L = curve.length
    bounds = np.append(np.arange(math.ceil(L / lj)) * lj, L)
    return Sectorization(j=j, curve=curve, s_lo=bounds[:-1], s_hi=bounds[1:],
                         arc_margin=lj,
                         trans_width=max(params.shell_hi(j), lj / 2.0))


def hat_weights(sectorization: Sectorization) -> Callable:
    """Piecewise-linear partition of unity along the curve, one hat per
    sector, centered at the arc midpoints (cyclic, non-uniform safe): a
    function of a 1-d array of arc positions giving the (sectors, points)
    weight matrix."""
    L = sectorization.curve.length
    c = 0.5 * (sectorization.s_lo + sectorization.s_hi)[:, None]
    if len(c) == 1:
        # a lone sector is its own neighbor: its hat covers the whole curve
        return lambda s: np.ones((1,) + np.shape(s))
    wl = np.mod(c - np.roll(c, 1), L)     # distance to the left neighbor
    wr = np.mod(np.roll(c, -1) - c, L)    # distance to the right neighbor

    def weights(s):
        rel = np.mod(np.asarray(s, dtype=float) - c + L / 2, L) - L / 2
        up = np.clip(1.0 + rel / wl, 0.0, None)
        down = np.clip(1.0 - rel / wr, 0.0, None)
        return np.where(rel < 0, np.minimum(up, 1.0), np.minimum(down, 1.0)) \
            * (np.abs(rel) < np.where(rel < 0, wl, wr))

    return weights
