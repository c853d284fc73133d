import itertools
import math

import numpy as np
import pytest

from fermi2d import hoelder as hl


def test_certificate_spot_values():
    expo, const = hl.hoelder_certificate(hl.ScaleBounds(1, 1, 1, 1, 2))
    assert expo == 0.5
    assert const == 8.0  # C' = 2 (2 + 2) with unit C0, C1


def test_certificate_scaling_law():
    b1 = hl.ScaleBounds(1, 1, 1, 1, 2)
    b2 = hl.ScaleBounds(1, 1, 2, 1, 2)
    _, c1 = hl.hoelder_certificate(b1)
    _, c2 = hl.hoelder_certificate(b2)
    assert math.isclose(c2 / c1, 2 ** 0.5)


def test_exponent_monotone_in_beta():
    e1, _ = hl.hoelder_certificate(hl.ScaleBounds(1, 1, 1, 1, 2))
    e2, _ = hl.hoelder_certificate(hl.ScaleBounds(1, 2, 1, 1, 2))
    assert e2 < e1


def test_bounds_validation():
    with pytest.raises(ValueError):
        hl.ScaleBounds(0, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        hl.ScaleBounds(1, 1, 1, 1, 1.0)


def test_saturating_family_hypotheses_and_certificate():
    for abm in ((1.0, 1.0, 2.0), (0.6, 0.4, 2.0), (1.0, 2.0, 3.0)):
        b = hl.ScaleBounds(abm[0], abm[1], 1.0, 1.0, abm[2])
        fam = hl.saturating_family(b)
        rep = hl.verify_family(b, fam)
        assert rep.hypotheses_ok
        assert abs(rep.hyp_worst - 1.0) <= 1e-9  # sharp hypotheses
        assert rep.max_ratio <= 1.0


def test_single_term_family():
    b = hl.ScaleBounds(1, 1, 1, 1, 2)
    fam = hl.saturating_family(b)[:1]
    rep = hl.verify_family(b, fam)
    assert rep.max_ratio <= 1.0


def test_zero_family():
    b = hl.ScaleBounds(1, 1, 1, 1, 2)
    zero = [(lambda t: 0.0 * np.asarray(t), lambda t: 0.0 * np.asarray(t))]
    rep = hl.verify_family(b, zero)
    assert rep.max_ratio == 0.0


def test_nan_member_fails_the_checks():
    # Python's max() and a > test skip NaN; verify_family must not
    b = hl.ScaleBounds(1, 1, 1, 1, 2)
    nan = (lambda t: np.full_like(np.asarray(t, dtype=float), np.nan),) * 2
    rep = hl.verify_family(b, hl.saturating_family(b) + [nan])
    assert not rep.hypotheses_ok
    assert math.isnan(rep.hyp_worst) and math.isnan(rep.max_ratio)


def test_empirical_exponent_smooth_capped():
    expo, _ = hl.empirical_exponent(lambda t: np.sin(3 * np.asarray(t)))
    assert abs(expo - 1.0) <= 0.02


def test_empirical_exponent_step():
    expo, _ = hl.empirical_exponent(
        lambda t: (np.asarray(t) > 0.5).astype(float))
    assert abs(expo) <= 0.05


def test_pairs_are_fixed_rd_points():
    # every dyadic level m = 2..18 of the certificate samples the same 200
    # points of the 1-D R_d set, u_k = frac(1/2 + k / golden ratio), scaled
    # to [0, 1 - 2^-m); no seed
    seen = []

    def f(t):
        seen.append(np.array(t, dtype=float))
        return 0.0 * seen[-1]

    hl.verify_family(hl.ScaleBounds(1, 1, 1, 1, 2), [(f, f)])
    u = (0.5 + np.arange(1, 201) / ((1 + 5 ** 0.5) / 2)) % 1.0
    seps = 2.0 ** -np.arange(2, 19)[:, None]
    ends, bases = seen[-2:]  # total(bases + sep) is taken first
    assert bases.shape == (17, 200)
    # u here divides by the golden ratio, rd_points multiplies by its
    # inverse: the two differ by up to 1.4e-14 at k = 200
    assert np.allclose(bases, (1.0 - seps) * u, rtol=0, atol=1e-13)
    assert np.array_equal(ends, bases + seps)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_hoelder_check_domain(alpha):
    # every combination that hoelder-check runs on in the budget-resum
    # benchmark workload: alpha, beta in {0.5, 1, 1.5, 2}, C0, C1 in
    # {0.5, 1, 2}, M = 2; each must exit 0 there
    for beta, c0, c1 in itertools.product((0.5, 1.0, 1.5, 2.0),
                                          (0.5, 1.0, 2.0), (0.5, 1.0, 2.0)):
        b = hl.ScaleBounds(alpha, beta, c0, c1, 2.0)
        fam = hl.saturating_family(b)
        rep = hl.verify_family(b, fam)
        assert rep.hypotheses_ok
        assert rep.max_ratio <= 1.0
        expo, _ = hl.empirical_exponent(lambda t: sum(f(t) for f, _ in fam))
        assert abs(expo - rep.exponent) <= 0.05, (alpha, beta, c0, c1)
