import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d.sectors import (build_fermi_curve, build_sectorization,
                             hat_weights, refine_weights, sector_of,
                             sectorization_to_csv)


@pytest.fixture(scope="module")
def curve(disp):
    return build_fermi_curve(disp)


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
    mid = s.center()
    kx, ky = curve.point(mid)
    found = sector_of(secz, disp, 0.0, kx, ky)
    idxs = {t.index for t in found}
    # the one-arc-length fattening catches exactly the sector and both
    # neighbors at an interior midpoint
    assert idxs == {9, 10, 11}


def test_sector_of_boundary(params, disp, curve):
    j = 5
    secz = build_sectorization(params, curve, j)
    kx, ky = curve.point(secz[10].s_hi)
    idxs = {t.index for t in sector_of(secz, disp, 0.0, kx, ky)}
    assert {10, 11} <= idxs


def test_sector_of_far_is_empty(params, disp, curve):
    secz = build_sectorization(params, curve, 5)
    # |e| far beyond every transversal width
    assert sector_of(secz, disp, 0.0, 0.2, 0.1) == []


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


def test_refine_weights_sum_to_one(params, disp, curve):
    j = 4
    coarse = build_sectorization(params, curve, j)
    fine = build_sectorization(params, curve, j + 1)
    s = coarse[3]
    weights = refine_weights(params, s, fine)
    rng = np.random.default_rng(0)
    margin = s.arc_margin
    for _ in range(100):
        pos = rng.uniform(s.s_lo - margin, s.s_hi + margin)
        total = sum(float(w(pos)) for w in weights.values())
        assert abs(total - 1.0) <= 1e-12


def test_refine_weights_nonoverlapping_zero(params, curve):
    j = 4
    coarse = build_sectorization(params, curve, j)
    fine = build_sectorization(params, curve, j + 1)
    weights = refine_weights(params, coarse[0], fine)
    # a fine sector on the far side of the curve is omitted entirely
    far = len(fine) // 2
    assert far not in weights


def test_refine_resums_constant(params, curve):
    # distributing a constant over the fine weights and re-summing returns
    # the constant (partition of unity)
    j = 4
    coarse = build_sectorization(params, curve, j)
    fine = build_sectorization(params, curve, j + 1)
    weights = refine_weights(params, coarse[5], fine)
    value = 2.75
    pos = coarse[5].center() + 0.3 * params.sector_length(j)
    resummed = sum(value * float(w(pos)) for w in weights.values())
    assert abs(resummed - value) <= 1e-12


def test_double_refinement_idempotent(params, curve):
    # j -> j+1 -> j+2 re-sums to the same totals as direct evaluation
    j = 4
    c0 = build_sectorization(params, curve, j)
    c1 = build_sectorization(params, curve, j + 1)
    c2 = build_sectorization(params, curve, j + 2)
    s = c0[7]
    w01 = refine_weights(params, s, c1)
    pos = s.center()
    total = 0.0
    for t_idx, w1 in w01.items():
        w12 = refine_weights(params, c1[t_idx], c2)
        for w2 in w12.values():
            total += float(w1(pos)) * float(w2(pos))
    assert abs(total - 1.0) <= 1e-12


def test_csv_dump(params, curve):
    secz = build_sectorization(params, curve, 4)
    text = sectorization_to_csv(secz)
    lines = text.strip().splitlines()
    assert lines[0] == "index,arc_start,arc_end"
    assert len(lines) == len(secz) + 1


def test_scale_below_first_rejected(params, curve):
    with pytest.raises(ValueError):
        build_sectorization(params, curve, params.j0 - 1)
