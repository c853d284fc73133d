"""Sectorizations of the Fermi curve.

A sectorization of scale j tiles the Fermi curve F = {e(k) = 0} with arcs
of length l_j = M^(-aleph j) (the last arc may be shorter).  The extended
support of a sector is its arc fattened by one arc length on each side and
transversally by max(shell radius, l_j / 2); kernels with sectorized legs
vanish unless the leg momentum lies in the extended support.

Refinement from scale j to j+1 distributes a sector's content over the
finer arcs with piecewise-linear hat weights that form a partition of
unity along the curve, so refined pieces always re-sum to the original.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np


@dataclass(frozen=True)
class FermiCurve:
    """Arc-length parametrization of a radial Fermi curve."""

    length: float
    _theta_of_s: Callable
    _radius: Callable

    def point(self, s):
        """Curve point at arc-length position s (cyclic)."""
        th = self._theta_of_s(np.mod(s, self.length))
        r = self._radius(th)
        return r * np.cos(th), r * np.sin(th)

    def arc_position(self, kx, ky):
        """Arc-length position of the angular projection of (kx, ky)."""
        th = np.mod(np.arctan2(ky, kx), 2 * np.pi)
        return self._s_of_theta(th)

    # filled in by build_fermi_curve
    _s_of_theta: Callable = field(default=None, repr=False)


def build_fermi_curve(disp, ntheta: int = 4096) -> FermiCurve:
    """Tabulate arc length along theta -> (r(theta) cos, r(theta) sin).

    Exact closed forms are used for circles (constant radius); general
    radial curves fall back to a dense trapezoid table.
    """
    thetas = np.linspace(0.0, 2 * np.pi, ntheta + 1)
    r = np.asarray(disp.fermi_radius(thetas), dtype=float)
    if np.allclose(r, r[0], rtol=1e-13, atol=1e-13):
        R = float(r[0])
        L = 2 * np.pi * R

        def theta_of_s(s):
            return np.asarray(s, dtype=float) / R

        def s_of_theta(th):
            return np.asarray(th, dtype=float) * R

        return FermiCurve(length=L, _theta_of_s=theta_of_s,
                          _radius=disp.fermi_radius, _s_of_theta=s_of_theta)

    # general radial curve: ds = sqrt(r^2 + r'^2) dtheta on a dense table
    dr = np.gradient(r, thetas)
    speed = np.sqrt(r ** 2 + dr ** 2)
    s_tab = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1])
                                             * np.diff(thetas))])
    L = float(s_tab[-1])

    def theta_of_s(s):
        return np.interp(np.mod(s, L), s_tab, thetas)

    def s_of_theta(th):
        return np.interp(np.mod(th, 2 * np.pi), thetas, s_tab)

    return FermiCurve(length=L, _theta_of_s=theta_of_s,
                      _radius=disp.fermi_radius, _s_of_theta=s_of_theta)


def _cyclic_dist(a, b, period):
    d = np.mod(a - b, period)
    return np.minimum(d, period - d)


@dataclass(frozen=True)
class Sector:
    """One arc [s_lo, s_hi) of the scale-j sectorization."""

    j: int
    index: int
    s_lo: float
    s_hi: float
    length: float
    arc_margin: float
    trans_width: float
    curve: FermiCurve

    def center(self) -> float:
        return 0.5 * (self.s_lo + self.s_hi)

    def arc_contains(self, s) -> bool:
        """Membership of an arc position in the fattened arc, cyclically."""
        margin = self.arc_margin
        L = self.curve.length
        rel = np.mod(np.asarray(s, dtype=float) - (self.s_lo - margin), L)
        return bool(np.all(rel < (self.s_hi - self.s_lo) + 2 * margin))

    def ext_contains(self, disp, kx, ky) -> bool:
        """Extended-support predicate for a spatial momentum."""
        if abs(float(disp.e(kx, ky))) > self.trans_width:
            return False
        return self.arc_contains(self.curve.arc_position(kx, ky))


@dataclass(frozen=True)
class Sectorization:
    j: int
    curve: FermiCurve
    sectors: tuple

    def __len__(self):
        return len(self.sectors)

    def __iter__(self):
        return iter(self.sectors)

    def __getitem__(self, i):
        return self.sectors[i]


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
    n = int(math.ceil(L / lj))
    bounds = [i * lj for i in range(n)] + [L]
    trans = max(params.shell_hi(j), lj / 2.0)
    secs = tuple(
        Sector(j=j, index=i, s_lo=bounds[i], s_hi=bounds[i + 1],
               length=bounds[i + 1] - bounds[i], arc_margin=lj,
               trans_width=trans, curve=curve)
        for i in range(n))
    return Sectorization(j=j, curve=curve, sectors=secs)


def sector_of(sectorization: Sectorization, disp, k0, kx, ky) -> List[Sector]:
    """Sectors whose extended support contains the momentum (empty if far)."""
    del k0  # transversal position is measured through e(k) only
    return [s for s in sectorization if s.ext_contains(disp, kx, ky)]


def hat_weights(sectorization: Sectorization) -> List[Callable]:
    """Piecewise-linear partition of unity along the curve, one hat per
    sector, centered at the arc midpoints (cyclic, non-uniform safe)."""
    L = sectorization.curve.length
    centers = np.array([s.center() for s in sectorization])
    n = len(centers)
    if n == 1:
        # a lone sector is its own neighbor: its hat covers the whole curve
        return [lambda s: np.ones(np.shape(s))]

    def make(i):
        c = centers[i]
        left = centers[(i - 1) % n]
        right = centers[(i + 1) % n]
        wl = np.mod(c - left, L)     # distance to left neighbor
        wr = np.mod(right - c, L)    # distance to right neighbor

        def hat(s):
            rel = np.mod(np.asarray(s, dtype=float) - c + L / 2, L) - L / 2
            up = np.clip(1.0 + rel / wl, 0.0, None)
            down = np.clip(1.0 - rel / wr, 0.0, None)
            return np.where(rel < 0, np.minimum(up, 1.0), np.minimum(down, 1.0)) \
                * (np.abs(rel) < np.where(rel < 0, wl, wr))

        return hat

    return [make(i) for i in range(n)]


def refine_weights(params, coarse: Sector, fine: Sectorization) -> Dict[int, Callable]:
    """Partition-of-unity weights over fine sectors meeting the coarse one.

    Maps fine-sector index -> weight function of arc position.  The weights
    of the returned sectors sum to 1 on the coarse sector's (fattened)
    support; fine sectors that never meet it are omitted.
    """
    if fine.j <= coarse.j:
        raise ValueError("refinement target must be a finer (larger j) scale")
    hats = hat_weights(fine)
    L = fine.curve.length
    out: Dict[int, Callable] = {}
    for t, hat in zip(fine.sectors, hats):
        # hat support: (center - wl, center + wr); keep those meeting the
        # coarse fattened arc
        reach = max(np.mod(t.center() - fine.sectors[(t.index - 1) % len(fine)].center(), L),
                    np.mod(fine.sectors[(t.index + 1) % len(fine)].center() - t.center(), L))
        gap = _cyclic_dist(t.center(), 0.5 * (coarse.s_lo + coarse.s_hi), L)
        half_span = 0.5 * (coarse.s_hi - coarse.s_lo) + coarse.arc_margin
        if gap <= half_span + reach:
            out[t.index] = hat
    return out


def sectorization_to_csv(sectorization: Sectorization) -> str:
    """Dump (index, arc start, arc end) rows for plotting."""
    buf = io.StringIO()
    buf.write("index,arc_start,arc_end\n")
    for s in sectorization:
        buf.write(f"{s.index},{s.s_lo:.17g},{s.s_hi:.17g}\n")
    return buf.getvalue()
