import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d.scales import quadratic_model
from fermi2d.sectors import (build_fermi_curve, build_sectorization,
                             hat_weights)


@pytest.fixture(scope="module")
def curve(disp):
    return build_fermi_curve(disp)


def curve_point(disp, curve, s):
    """The point at arc position s of the quadratic model's circle, placed
    from its angle 2 pi s / length."""
    th = 2 * math.pi * s / curve.length
    rad = float(disp.fermi_radius(th))
    return rad * math.cos(th), rad * math.sin(th)


def containing(secz, disp, kx, ky):
    """Indices of the sectors whose extended support holds (kx, ky): the
    membership test of the ladder scheme's sector refinement."""
    return set(np.flatnonzero(secz.contains(disp, kx, ky)[:, 0]).tolist())


def contains_loop(secz, disp, kx, ky):
    """Reference membership, one sector and one point at a time: |e| not
    above the transversal width, then the arc position in the arc fattened
    by the margin on each side, cyclically."""
    L, margin = secz.curve.length, secz.arc_margin
    out = np.zeros((len(secz), len(kx)), dtype=bool)
    for i, (lo, hi) in enumerate(zip(secz.s_lo, secz.s_hi)):
        for p, (x, y) in enumerate(zip(kx, ky)):
            if abs(float(disp.e(x, y))) > secz.trans_width:
                continue
            s = float(secz.curve.arc_position(x, y))
            out[i, p] = np.mod(s - (lo - margin), L) < (hi - lo) + 2 * margin
    return out


def hats_loop(secz, ss):
    """Reference hat weights, one sector and one arc position at a time:
    a hat rises from the left neighbor's center to its own and falls to the
    right neighbor's, cyclically; a lone sector's hat is 1."""
    L, n = secz.curve.length, len(secz)
    centers = [0.5 * (lo + hi) for lo, hi in zip(secz.s_lo, secz.s_hi)]
    out = np.zeros((n, len(ss)))
    for i, c in enumerate(centers):
        wl = np.mod(c - centers[(i - 1) % n], L)
        wr = np.mod(centers[(i + 1) % n] - c, L)
        for p, s in enumerate(ss):
            if n == 1:
                out[i, p] = 1.0
                continue
            rel = np.mod(s - c + L / 2, L) - L / 2
            if rel < 0:
                w = min(max(1.0 + rel / wl, 0.0), 1.0) if -rel < wl else 0.0
            else:
                w = min(max(1.0 - rel / wr, 0.0), 1.0) if rel < wr else 0.0
            out[i, p] = w
    return out


def test_sector_length_formula(params):
    assert math.isclose(params.sector_length(5), 2.0 ** (-3.0))


def test_sector_count_circle(params, curve):
    # circumference 2 pi sqrt(2), arcs of length 1/8
    secz = build_sectorization(params, curve, 5)
    assert len(secz) == math.ceil(2 * math.pi * math.sqrt(2) / 0.125)
    assert len(secz) == 72
    assert secz.arc_margin == 0.125
    assert secz.trans_width == max(params.shell_hi(5), 0.0625)


def test_tiling_exact(params, curve):
    for j in (3, 5, 7):
        secz = build_sectorization(params, curve, j)
        total = math.fsum(secz.s_hi - secz.s_lo)
        assert abs(total - curve.length) <= 1e-12
        # deterministic ordering by arc start, arcs abutting
        assert np.all(np.diff(secz.s_lo) > 0)
        assert np.array_equal(secz.s_lo[1:], secz.s_hi[:-1])
        assert secz.s_lo[0] == 0.0 and secz.s_hi[-1] == curve.length


def test_nesting_counts(params, curve):
    # each scale-j sector meets ceil(l_j / l_{j+1}) or one more sectors of
    # the finer sectorization (boundary straddling)
    j = 4
    coarse = build_sectorization(params, curve, j)
    fine = build_sectorization(params, curve, j + 1)
    base = math.ceil(params.sector_length(j) / params.sector_length(j + 1))
    hits = ((fine.s_lo < coarse.s_hi[:, None])
            & (fine.s_hi > coarse.s_lo[:, None])).sum(axis=1)
    assert set(hits.tolist()) <= {base, base + 1}


def test_sector_of_midpoint(params, disp, curve):
    j = 5
    secz = build_sectorization(params, curve, j)
    kx, ky = curve_point(disp, curve, 0.5 * (secz.s_lo[10] + secz.s_hi[10]))
    # the one-arc-length fattening catches exactly the sector and both
    # neighbors at an interior midpoint
    assert containing(secz, disp, kx, ky) == {9, 10, 11}


def test_sector_of_boundary(params, disp, curve):
    j = 5
    secz = build_sectorization(params, curve, j)
    kx, ky = curve_point(disp, curve, secz.s_hi[10])
    assert {10, 11} <= containing(secz, disp, kx, ky)


def test_sector_of_far_is_empty(params, disp, curve):
    secz = build_sectorization(params, curve, 5)
    # |e| far beyond every transversal width
    assert containing(secz, disp, 0.2, 0.1) == set()


def test_hat_weights_partition(params, curve):
    secz = build_sectorization(params, curve, 4)
    ss = np.linspace(0, curve.length, 257)
    weights = hat_weights(secz)(ss)
    assert weights.shape == (len(secz), len(ss))
    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.05, 0.95),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_hat_weights_partition_any_count(params, curve, count, short, fracs):
    # arc length L / (count - short) tiles the curve with exactly count
    # sectors, the last one shorter; count 1 is a single sector
    L = curve.length
    secz = build_sectorization(params, curve, 4,
                               length_override=L / (count - short))
    assert len(secz) == count
    total = hat_weights(secz)(np.array(fracs) * L).sum(axis=0)
    assert np.abs(total - 1.0).max() <= 1e-12


@settings(max_examples=80, deadline=None)
@given(anisotropy=st.sampled_from([1.0, 0.5, 3.0]),
       count=st.integers(1, 12), short=st.floats(0.05, 0.95),
       j=st.integers(2, 6),
       points=st.lists(st.tuples(st.floats(0.0, 2 * math.pi),
                                 st.floats(-0.4, 0.4)),
                       min_size=1, max_size=12))
def test_array_geometry_matches_the_sector_loop(params, anisotropy, count,
                                                short, j, points):
    # the membership matrix and the hat matrix equal, bit for bit, a loop
    # over sectors and points, on circles and ellipses, for any sector
    # count (a lone sector, a short last arc, the wrap at s = 0) and points
    # near and off the curve; each column of hats sums to 1
    disp = quadratic_model(anisotropy)
    curve = build_fermi_curve(disp)
    secz = build_sectorization(params, curve, j,
                               length_override=curve.length / (count - short))
    th, dr = np.array(points).T
    rad = disp.fermi_radius(th) * (1.0 + dr)
    kx, ky = rad * np.cos(th), rad * np.sin(th)
    assert np.array_equal(secz.contains(disp, kx, ky),
                          contains_loop(secz, disp, kx, ky))
    ss = curve.arc_position(kx, ky)
    weights = hat_weights(secz)(ss)
    assert np.array_equal(weights, hats_loop(secz, ss))
    assert np.abs(weights.sum(axis=0) - 1.0).max() <= 1e-12


def test_scale_below_first_rejected(params, curve):
    with pytest.raises(ValueError):
        build_sectorization(params, curve, params.j0 - 1)
