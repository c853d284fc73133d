import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    return {t.index for t in secz if t.ext_contains(disp, kx, ky)}


def test_sector_length_formula(params):
    assert math.isclose(params.sector_length(5), 2.0 ** (-3.0))


def test_sector_count_circle(params, curve):
    # circumference 2 pi sqrt(2), arcs of length 1/8
    secz = build_sectorization(params, curve, 5)
    assert len(secz) == math.ceil(2 * math.pi * math.sqrt(2) / 0.125)
    assert len(secz) == 72


def test_tiling_exact(params, curve):
    for j in (3, 5, 7):
        secz = build_sectorization(params, curve, j)
        total = math.fsum(s.length for s in secz)
        assert abs(total - curve.length) <= 1e-12
        # deterministic ordering by arc start
        starts = [s.s_lo for s in secz]
        assert starts == sorted(starts)


def test_nesting_counts(params, curve):
    # each scale-j sector meets ceil(l_j / l_{j+1}) or one more sectors of
    # the finer sectorization (boundary straddling)
    j = 4
    coarse = build_sectorization(params, curve, j)
    fine = build_sectorization(params, curve, j + 1)
    base = math.ceil(params.sector_length(j) / params.sector_length(j + 1))
    for s in coarse:
        hits = sum(1 for t in fine
                   if t.s_lo < s.s_hi and t.s_hi > s.s_lo)
        assert hits in (base, base + 1)


def test_sector_of_midpoint(params, disp, curve):
    j = 5
    secz = build_sectorization(params, curve, j)
    s = secz[10]
    kx, ky = curve_point(disp, curve, s.center())
    idxs = containing(secz, disp, kx, ky)
    # the one-arc-length fattening catches exactly the sector and both
    # neighbors at an interior midpoint
    assert idxs == {9, 10, 11}


def test_sector_of_boundary(params, disp, curve):
    j = 5
    secz = build_sectorization(params, curve, j)
    kx, ky = curve_point(disp, curve, secz[10].s_hi)
    idxs = containing(secz, disp, kx, ky)
    assert {10, 11} <= idxs


def test_sector_of_far_is_empty(params, disp, curve):
    secz = build_sectorization(params, curve, 5)
    # |e| far beyond every transversal width
    assert containing(secz, disp, 0.2, 0.1) == set()


def test_hat_weights_partition(params, curve):
    secz = build_sectorization(params, curve, 4)
    hats = hat_weights(secz)
    ss = np.linspace(0, curve.length, 257)
    total = sum(np.asarray(h(ss), dtype=float) for h in hats)
    assert np.abs(total - 1.0).max() <= 1e-12


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
    ss = np.array(fracs) * L
    total = sum(np.asarray(h(ss), dtype=float) for h in hat_weights(secz))
    assert np.abs(total - 1.0).max() <= 1e-12


def test_scale_below_first_rejected(params, curve):
    with pytest.raises(ValueError):
        build_sectorization(params, curve, params.j0 - 1)
