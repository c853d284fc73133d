import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d.config import ScaleParams
from fermi2d.scales import (HypothesisViolationError, Momentum,
                            NotInSupportError, ScaleInterval, ScaleModel,
                            ScaleRangeError, momentum, quadratic_model,
                            rd_points)


def test_momentum_rejects_nonfinite():
    with pytest.raises(ValueError):
        momentum(float("nan"), (0.0, 0.0))
    with pytest.raises(ValueError):
        momentum(0.0, (float("inf"), 0.0))
    assert momentum(0.1, (0.2, 0.3)) == Momentum(0.1, 0.2, 0.3)


@pytest.mark.parametrize("d, phi", [(1, (1 + math.sqrt(5)) / 2),
                                    (2, 1.324717957244746),
                                    (3, 1.2207440846057596)])
def test_rd_points_formula(d, phi):
    # u_m = frac(1/2 + m phi_d^(-j)), m = 1..n, phi_d the root of
    # x^(d+1) = x + 1
    assert phi ** (d + 1) == pytest.approx(phi + 1, rel=1e-15)
    m = np.arange(1, 51)[:, None]
    alpha = phi ** -np.arange(1.0, d + 1)
    assert np.array_equal(rd_points(50, [0.0] * d, [1.0] * d),
                          (0.5 + m * alpha) % 1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
           st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d),
           st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d))),
       st.integers(0, 500), st.integers(0, 500))
def test_rd_points_in_box_and_prefix_stable(box, n, k):
    lo, width = (np.array(v) for v in box)
    hi = lo + width
    pts = rd_points(n, lo, hi)
    assert pts.shape == (n, lo.size)
    assert ((lo <= pts) & (pts < hi)).all()
    assert np.array_equal(rd_points(min(k, n), lo, hi), pts[:min(k, n)])


@pytest.mark.parametrize("lo, hi", [((0.0, -0.5), (2 * math.pi, 0.5)),
                                    ((-30, -2, -2), (30, 2, 2)),
                                    ((0.0, 2.05, -2.0), (2 * math.pi, 4.0, 2.0))])
def test_rd_points_cover_each_coordinate(lo, hi):
    # the 200-point sets of the hypothesis checks leave no gap wider than
    # 0.013 of the box on any coordinate, ends included (independent
    # uniform draws leave 0.023-0.055)
    pts = rd_points(200, lo, hi)
    for j in range(len(lo)):
        edges = np.concatenate([[lo[j]], np.sort(pts[:, j]), [hi[j]]])
        assert np.diff(edges).max() < 0.013 * (hi[j] - lo[j])


def test_partition_of_unity_random(scales, params, disp):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        k0 = rng.uniform(-1.5, 1.5)
        kx, ky = rng.uniform(-2.2, 2.2, 2)
        total = sum(float(scales.nu(j, k0, kx, ky))
                    for j in range(params.j0, params.jmax + 1))
        total += float(scales.nu_gt(params.jmax, k0, kx, ky))
        worst = max(worst, abs(total - float(disp.U(kx, ky))))
    assert worst <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-2.2, 2.2), st.floats(-2.2, 2.2))
def test_partition_of_unity_property(k0, kx, ky):
    params = ScaleParams()
    scales = ScaleModel(params, quadratic_model())
    total = sum(float(scales.nu(j, k0, kx, ky))
                for j in range(params.j0, params.jmax + 1))
    total += float(scales.nu_gt(params.jmax, k0, kx, ky))
    assert abs(total - float(scales.disp.U(kx, ky))) <= 1e-12


def test_shell_support(scales, params, fermi_point):
    # interior scales vanish outside their shell (the first scale also
    # absorbs the ultraviolet remainder, so it is exempt above its shell)
    _, kx, ky = fermi_point
    for j in range(params.j0 + 1, params.jmax + 1):
        lo, hi = params.shell_lo(j), params.shell_hi(j)
        for k0 in (lo * 0.5, lo * 0.999, hi * 1.001, hi * 3.0):
            assert float(scales.nu(j, k0, kx, ky)) == 0.0
        k0 = math.sqrt(lo * hi)
        assert float(scales.nu(j, k0, kx, ky)) > 0.0


def test_only_adjacent_shells_overlap(scales, params, fermi_point):
    # at r = M^-j only the j-th scale function is active, and the partition
    # reduces to the three-term neighbor sum
    _, kx, ky = fermi_point
    U = float(scales.disp.U(kx, ky))
    for j in range(params.j0 + 1, params.jmax):
        k0 = params.M ** (-j)
        three = sum(float(scales.nu(m, k0, kx, ky)) for m in (j - 1, j, j + 1))
        assert abs(three - U) <= 1e-12
        for m in range(params.j0, params.jmax + 1):
            if abs(m - j) > 1:
                assert float(scales.nu(m, k0, kx, ky)) == 0.0


def test_nu_outside_cutoff_is_zero(scales, params):
    # |k| = 3 lies outside supp U for the quadratic model
    for j in range(params.j0, params.jmax + 1):
        assert float(scales.nu(j, 0.1, 3.0, 0.0)) == 0.0


def test_nu_scale_range_error(scales, params):
    with pytest.raises(ScaleRangeError):
        scales.nu(params.j0 - 1, 0.1, 1.0, 0.0)
    with pytest.raises(ScaleRangeError):
        scales.nu(params.jmax + 1, 0.1, 1.0, 0.0)
    # the deep aggregate is allowed one step past Jmax
    scales.nu_ge(params.jmax + 1, 0.1, 1.0, 0.0)


def test_scale_of_examples(scales, params, fermi_point):
    _, kx, ky = fermi_point
    # |i k0 - e| = sqrt(2)/M^5 sits at the open lower edge of shell 4, so
    # the smallest active scale is 5
    assert scales.scale_of(math.sqrt(2.0) / params.M ** 5, kx, ky) == 5
    # on the Fermi curve with k0 = 0 all shells vanish: deepest scale
    assert scales.scale_of(0.0, kx, ky) == params.jmax
    # |i k0 - e| = 1 is absorbed by the first scale
    assert scales.scale_of(1.0, kx, ky) == params.j0
    with pytest.raises(NotInSupportError):
        scales.scale_of(0.1, 3.0, 0.0)


def test_amputation_examples(scales, fermi_point):
    _, kx, ky = fermi_point
    assert abs(scales.amputation(0.0, kx, ky)) <= 1e-12
    # e = 0 on the curve, k0 = 1 gives exactly i
    assert abs(complex(scales.amputation(1.0, kx, ky)) - 1j) <= 1e-12
    # |A| equals the scale radius at shell centers along the k0 axis
    r = 0.3
    assert abs(abs(complex(scales.amputation(r, kx, ky))) - r) <= 1e-12


def test_covariance_free_single_shell(scales, params, fermi_point):
    _, kx, ky = fermi_point
    j = 4
    k0 = math.sqrt(params.shell_lo(j) * params.shell_hi(j))
    nu = float(scales.nu(j, k0, kx, ky))
    A = complex(scales.amputation(k0, kx, ky))
    got = complex(scales.covariance(ScaleInterval.at(j), None, k0, kx, ky))
    assert abs(got - nu / A) <= 1e-14


def test_covariance_interval_telescopes(scales, params):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        th = rng.uniform(0, 2 * np.pi)
        rad = float(scales.disp.fermi_radius(th)) * (1 + rng.uniform(-0.02, 0.02))
        kx, ky = rad * math.cos(th), rad * math.sin(th)
        k0 = rng.uniform(1e-3, 0.6)
        total = sum(complex(scales.covariance(ScaleInterval.at(m), None,
                                              k0, kx, ky))
                    for m in range(3, 7))
        got = complex(scales.covariance(ScaleInterval.range(3, 6), None,
                                        k0, kx, ky))
        worst = max(worst, abs(total - got))
    assert worst <= 1e-12


def test_covariance_halfline_telescopes(scales):
    k = (0.09, 1.38, 0.2)
    ge3 = complex(scales.covariance(ScaleInterval.ge(3), None, *k))
    mid = complex(scales.covariance(ScaleInterval.range(3, 6), None, *k))
    ge7 = complex(scales.covariance(ScaleInterval.ge(7), None, *k))
    assert abs(ge3 - (mid + ge7)) <= 1e-12


def test_covariance_bound_on_shell(scales, params):
    # |A(k) C^(j)_u(k)| <= 2 whenever |u| <= |A|/2 (sampled over the shell)
    rng = np.random.default_rng(2)

    def u(k0, kx, ky):
        return 0.49 * complex(scales.amputation(k0, kx, ky))

    worst = 0.0
    for _ in range(200):
        j = rng.integers(params.j0, params.jmax + 1)
        th = rng.uniform(0, 2 * np.pi)
        rad = float(scales.disp.fermi_radius(th))
        k0 = rng.uniform(params.shell_lo(j), params.shell_hi(j))
        c = complex(scales.covariance(ScaleInterval.at(j), u, k0,
                                      rad * math.cos(th), rad * math.sin(th)))
        A = complex(scales.amputation(k0, rad * math.cos(th), rad * math.sin(th)))
        nu = float(scales.nu(j, k0, rad * math.cos(th), rad * math.sin(th)))
        worst = max(worst, abs(A * c))
        assert abs(A * c) <= 2 * nu + 1e-12
    assert worst <= 2.0 + 1e-12


def test_covariance_hypothesis_violation(scales, fermi_point):
    _, kx, ky = fermi_point

    def u_big(k0, kx_, ky_):
        return 0.9 * complex(scales.amputation(k0, kx_, ky_))

    with pytest.raises(HypothesisViolationError):
        scales.covariance(ScaleInterval.at(4), u_big, 0.05, kx, ky)


def test_covariance_rejects_large_u_with_large_denominator(scales, fermi_point):
    # |u| <= |i k0 - e|/2 is the hypothesis, not only a lower bound on the
    # denominator: u = -0.9 (i k0 - e) leaves |i k0 - e - u| = 1.9 |i k0 - e|
    _, kx, ky = fermi_point

    def u_big(k0, kx_, ky_):
        return -0.9 * complex(scales.amputation(k0, kx_, ky_))

    with pytest.raises(HypothesisViolationError, match="support of nu"):
        scales.covariance(ScaleInterval.at(4), u_big, 0.05, kx, ky)


def test_params_validation():
    with pytest.raises(ValueError):
        ScaleParams(aleph=0.7)   # above aleph'
    with pytest.raises(ValueError):
        ScaleParams(M=0.9)
    with pytest.raises(ValueError):
        ScaleParams(upsilon=0.3)
    with pytest.raises(ValueError):
        ScaleParams(j0=1)
