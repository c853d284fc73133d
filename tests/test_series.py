import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermi2d.config import ScaleParams
from fermi2d.series import (INF, DivergentSeriesError, FormalSeries, c_series,
                            cj_series, const_series, e_series, finite_region,
                            from_coeffs, geometric_series, n_tilde_aggregate,
                            rho_tilde, zero_series)

P = ScaleParams()


def small_series(entries):
    return from_coeffs(entries, P.r0, P.r)


coeff_values = st.one_of(st.floats(0.0, 10.0), st.just(INF))
series_strategy = st.builds(
    small_series,
    st.dictionaries(st.sampled_from(finite_region(2, 2)), coeff_values,
                    max_size=6))


def test_c_series_examples():
    c = c_series(P, 3, 3)
    assert c.get((0, 0, 0)) == 1.0
    assert c.get((1, 1, 0)) == 2 ** 3 * 2 ** 3
    assert c.get((0, 3, 0)) == INF  # beyond spatial truncation
    # monotone in the first index
    assert c_series(P, 2, 5).leq(c_series(P, 5, 5))


def test_c_series_shift_law():
    lo = c_series(P, 2, 5)
    hi = c_series(P, 3, 5)
    assert hi == lo.shift_temporal(P.M)


def test_e_series_at_zero():
    X = zero_series()
    assert e_series(P, 2, 4, X) == c_series(P, 2, 4)


def test_e_series_scalar_geometric():
    # oracle: plain scalar geometric sum
    x = 0.03
    j = 3
    oracle = sum((P.M ** j * x) ** n for n in range(200))
    got = e_series(P, j, j, const_series(x))
    assert abs(got.get((0, 0, 0)) - oracle) <= 1e-12 * oracle


def test_e_series_matches_bruteforce_expansion():
    # oracle: partial sums of powers stabilize exactly once n exceeds the
    # truncation degree for series with zero constant coefficient
    X = small_series({(1, 0, 0): 0.3, (0, 1, 0): 0.2, (1, 1, 1): 5.0})
    j = 2
    y = X.scale(P.M ** j)
    acc = const_series(1.0)
    power = const_series(1.0)
    for _ in range(8):
        power = power * y
        acc = acc + power
    expected = c_series(P, 2, 2) * acc
    got = e_series(P, 2, 2, X)
    assert got.isclose(expected)


def test_e_series_divergence():
    with pytest.raises(DivergentSeriesError):
        e_series(P, 2, 3, const_series(1.0))


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_e_series_monotone(Xa, Xb):
    Xsum = Xa + Xb  # Xsum >= Xa coefficientwise
    try:
        ea = e_series(P, 2, 3, Xa)
        es = e_series(P, 2, 3, Xsum)
    except DivergentSeriesError:
        return
    assert ea.leq(es)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
@example(small_series({(0, 0, 0): 1e-200}), small_series({(0, 0, 0): 1e-200}),
         small_series({(0, 0, 0): INF}))  # a * b underflows
@example(small_series({(0, 0, 1): INF, (0, 0, 0): 2.0,
                       (2, 0, 2): 1.6231663313947489, (0, 0, 2): 2.0}),
         small_series({(0, 0, 1): INF, (0, 0, 0): 0.375, (2, 0, 2): 3.0,
                       (0, 1, 0): INF, (2, 0, 0): 1.0}),
         small_series({}))  # a * b and b * a sum their terms in reverse order
def test_ring_laws(a, b, c):
    # commutativity is bit-exact; associativity/distributivity hold exactly
    # in the extended (inf-absorbing) structure and to machine precision in
    # the float coefficients
    assert (a + b) == (b + a)
    assert (a * b) == (b * a)
    assert ((a + b) + c).isclose(a + (b + c), rtol=1e-12)
    assert ((a * b) * c).isclose(a * (b * c), rtol=1e-12)
    assert (a * (b + c)).isclose(a * b + a * c, rtol=1e-12)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_monotone_arithmetic(a, b, c):
    big = a + b  # >= a
    assert (a + c).leq(big + c)
    assert (a * c).leq(big * c)


def test_rho_tilde_examples():
    la, up = 0.1, 0.2
    assert math.isclose(rho_tilde(0, 4, la, up), la ** (-(1 - up)))
    assert math.isclose(rho_tilde(2, 2, la, up), la ** (2 * up / 7 - (1 - up)))
    assert math.isclose(rho_tilde(1, 1, la, up), la ** (up / 7 - (1 - up)))


def test_n_tilde_empty():
    out = n_tilde_aggregate(P, 3, zero_series(), {})
    for d in out.region():
        assert out.get(d) == 0.0


def test_n_tilde_single_degree_hand_arithmetic():
    # hand oracle for a single (0, 4) entry with scalar norm v:
    # weights over admissible p = 1, 3 are 1 and 1/l_j; the prefactor is
    # (M^2j / l_j) alpha^4 (l_j B / M^j)^2 rho~_{0;4}, times e_j(0) = c_j
    j, v = 3, 0.7
    lj = P.sector_length(j)
    rho = rho_tilde(0, 4, P.lambda0, P.upsilon)
    pref = (P.M ** (2 * j) / lj) * P.alpha ** 4 \
        * (lj * P.bconst / P.M ** j) ** 2 * rho * (1.0 + 1.0 / lj)
    out = n_tilde_aggregate(P, j, zero_series(), {(0, 4): const_series(v)})
    assert math.isclose(out.get((0, 0, 0)), pref * v, rel_tol=1e-12)


def test_n_tilde_alpha_homogeneity():
    j = 3
    per = {(1, 3): const_series(0.2)}
    base = n_tilde_aggregate(P, j, zero_series(), per, alpha=1.0)
    doubled = n_tilde_aggregate(P, j, zero_series(), per, alpha=2.0)
    m_plus_n = 4
    assert math.isclose(doubled.get((0, 0, 0)),
                        2 ** m_plus_n * base.get((0, 0, 0)), rel_tol=1e-12)


def test_geometric_series_with_inf_entry():
    X = small_series({(2, 0, 0): INF})
    out = geometric_series(X)
    assert out.get((0, 0, 0)) == 1.0
    assert out.get((2, 0, 0)) == INF
    assert out.get((1, 0, 0)) == 0.0


def test_serialization_roundtrip():
    s = small_series({(0, 0, 0): 1.5, (1, 1, 0): INF, (0, 2, 0): 0.25})
    back = FormalSeries.from_text(s.to_text())
    assert back == s


def test_cj_is_diagonal():
    assert cj_series(P, 4) == c_series(P, 4, 4)
