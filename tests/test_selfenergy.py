import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d import selfenergy as se
from fermi2d.config import ScaleParams
from fermi2d.scales import ScaleModel, quadratic_model, rd_points


@pytest.fixture(scope="module")
def budget_params():
    return ScaleParams(lambda0=1e-3, upsilon=0.2, jmax=5)


@pytest.fixture(scope="module")
def budget_scales(budget_params):
    return ScaleModel(budget_params, quadratic_model())


@pytest.fixture(scope="module")
def qfam(budget_params):
    return se.saturating_q_family(budget_params)


# ---------------------------------------------------------------------------
# resummation basics


def test_resum_single_term_and_empty(scales):
    fam = se.ScaleFamily()
    assert se.resum_P(fam, 0.3, 1.0, 0.2) == 0.0
    assert se.resum_Q(fam, 0.3, 1.0, 0.2) == 0.0

    def p2(k0, kx, ky):
        return 1j * 0.01 * k0 * np.exp(-kx ** 2 - ky ** 2)

    fam.p[2] = p2
    k = (0.4, 0.7, -0.3)
    assert se.resum_P(fam, *k) == p2(*k)


def test_p_family_vanishes_at_zero_frequency(budget_params):
    fam = se.linear_p_family(budget_params)
    for i in fam.p:
        assert fam.p[i](0.0, 0.8, 0.2) == 0.0


def test_reality_propagates(budget_params, qfam, budget_scales):
    pfam = se.linear_p_family(budget_params)
    fam = se.ScaleFamily(p=pfam.p, q=qfam.q, lambda0=1e-3, upsilon=0.2)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        k0 = rng.uniform(0.01, 2.0)
        kx, ky = rng.uniform(-1.3, 1.3, 2)
        for f in (se.resum_P, se.resum_Q):
            a = complex(f(fam, k0, kx, ky))
            b = complex(f(fam, -k0, kx, ky))
            worst = max(worst, abs(b - np.conj(a)))
        P = lambda *k: se.resum_P(fam, *k)
        Q = lambda *k: se.resum_Q(fam, *k)
        s1 = se.proper_sigma(budget_scales, k0, kx, ky, P, Q)
        s2 = se.proper_sigma(budget_scales, -k0, kx, ky, P, Q)
        worst = max(worst, abs(s2 - np.conj(s1)))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# budget checker


def test_budget_zero_family_all_pass(budget_params, budget_scales):
    fam = se.ScaleFamily(lambda0=1e-3, upsilon=0.2)
    fam.q[(2, 2)] = lambda k0, kx, ky: 0.0 * np.asarray(k0)
    rep = se.check_q_budget(fam, budget_params, scales=budget_scales)
    assert rep.all_pass
    assert rep.worst_ratio() == 0.0


def test_budget_saturating_family(budget_params, budget_scales, qfam):
    rep = se.check_q_budget(qfam, budget_params, scales=budget_scales)
    assert rep.all_pass
    assert rep.reality_residual <= 1e-12
    assert rep.support_violation <= 1e-12
    for ratio in rep.max_ratio_per_pair().values():
        assert 0.5 < ratio <= 1.0
    assert all(r.ratio <= 1.0 for r in rep.rows)
    assert min(r.ratio for r in rep.rows) > 0.5


def test_budget_scaled_family_fails(budget_params, budget_scales):
    fam3 = se.saturating_q_family(budget_params, scale=3.0)
    rep = se.check_q_budget(fam3, budget_params, scales=budget_scales)
    assert not rep.all_pass
    assert rep.worst_ratio() > 1.0


def test_budget_oracle_on_finer_grid(budget_params, qfam):
    # independent oracle: re-measure a representative subset of members on
    # a finer grid; ratios must agree and stay below the budget
    subset = se.ScaleFamily(lambda0=qfam.lambda0, upsilon=qfam.upsilon)
    for key in ((2, 2), (2, 4), (4, 5)):
        subset.q[key] = qfam.q[key]
    coarse = se.check_q_budget(subset, budget_params, npts=(112, 112, 112))
    fine = se.check_q_budget(subset, budget_params, npts=(168, 168, 168))
    cmap = {(r.i, r.l, r.delta): r.ratio for r in coarse.rows}
    for r in fine.rows:
        assert abs(cmap[(r.i, r.l, r.delta)] - r.ratio) <= 0.06
        assert r.ratio <= 1.0


def test_budget_detects_support_violation(budget_params, budget_scales):
    fam = se.ScaleFamily(lambda0=1e-3, upsilon=0.2)
    # constant in space: does not vanish off the ultraviolet cutoff
    fam.q[(2, 2)] = lambda k0, kx, ky: 1e-6 * np.ones_like(np.asarray(k0, dtype=float))
    rep = se.check_q_budget(fam, budget_params, scales=budget_scales)
    assert rep.support_violation > 0.0
    assert not rep.all_pass


def test_budget_detects_support_violation_off_the_curve(budget_params,
                                                       budget_scales):
    # nonzero at k0 = 0 just off the Fermi curve, zero on it and off the
    # ultraviolet cutoff: only near points with 0 < |e| <= edge see it
    e, U = budget_scales.disp.e, budget_scales.disp.U
    fam = _one_member_family(lambda k0, kx, ky: 1e-3 * e(kx, ky) * U(kx, ky)
                             + 0.0 * np.asarray(k0))
    rep = se.check_q_budget(fam, budget_params, npts=(9, 9, 9),
                            scales=budget_scales)
    assert rep.support_violation > 1e-12
    assert not rep.all_pass
    # the member is within rounding of 0 on the curve itself
    th = np.linspace(0.0, 2 * np.pi, 64)
    rad = budget_scales.disp.fermi_radius(th)
    assert np.abs(fam.q[2, 2](0.0, rad * np.cos(th), rad * np.sin(th))).max() \
        <= 1e-12


def _support_points_loop(scales, i):
    # reference: the scalar sampling loop over the R_d points, one point
    # at a time
    edge = scales.params.shell_hi(i + 2)
    pts = []
    for th, s, k0 in rd_points(400, (0.0, -edge, -edge), (2 * np.pi, edge, edge)):
        rad = float(scales.disp.fermi_radius(th)) * (1.0 + s)
        kx, ky = rad * math.cos(th), rad * math.sin(th)
        if abs(scales.radius(k0, kx, ky)) <= edge:
            pts.append((k0, kx, ky))
    for th, rad, k0 in rd_points(200, (0.0, 2.05, -2.0), (2 * np.pi, 4.0, 2.0)):
        kx, ky = rad * math.cos(th), rad * math.sin(th)
        if scales.disp.U(kx, ky) == 0.0:
            pts.append((k0, kx, ky))
    return pts


@pytest.mark.parametrize("which", ["saturating", "scaled", "zero",
                                   "constant", "scalar", "oscillating"])
def test_support_points_match_scalar_loop(budget_params, budget_scales, qfam,
                                          which):
    # each support point is drawn once per i and every member is evaluated
    # once on the point arrays; the scalar loop gives the same points and
    # the same violation
    fam = {"saturating": lambda: qfam,
           "scaled": lambda: se.saturating_q_family(budget_params, scale=3.0),
           "zero": lambda: _one_member_family(
               lambda k0, kx, ky: 0.0 * np.asarray(k0)),
           "constant": lambda: _one_member_family(
               lambda k0, kx, ky: 1e-6 * np.ones_like(np.asarray(k0, dtype=float))),
           "scalar": lambda: _one_member_family(lambda k0, kx, ky: 1e-7),
           "oscillating": lambda: _one_member_family(
               lambda k0, kx, ky: 1e-6 * np.cos(3 * k0) * np.exp(1j * kx * ky))}[which]()
    rep = se.check_q_budget(fam, budget_params, npts=(9, 9, 9),
                            scales=budget_scales)
    loops = {i: _support_points_loop(budget_scales, i) for i, _ in fam.q}
    for i, pts in loops.items():
        np.testing.assert_allclose(se._support_points(budget_scales, i),
                                   np.array(pts).T, rtol=1e-15, atol=0)
    ref = max(abs(complex(qf(*pt)))
              for (i, _), qf in fam.q.items() for pt in loops[i])
    assert abs(rep.support_violation - ref) <= 1e-15 * ref
    assert (rep.support_violation <= 1e-12) == (ref <= 1e-12)


def test_budget_reality_residual(budget_params):
    fam = se.ScaleFamily(lambda0=1e-3, upsilon=0.2)
    # odd real part in k0 breaks the reflection-reality condition
    fam.q[(2, 2)] = lambda k0, kx, ky: 1e-9 * np.asarray(k0)
    rep = se.check_q_budget(fam, budget_params)
    assert rep.reality_residual > 0.0


def _one_member_family(qf):
    fam = se.ScaleFamily(lambda0=1e-3, upsilon=0.2)
    fam.q[(2, 2)] = qf
    return fam


def dense_budget_oracle(family, params, npts):
    """Measured sups and reality residual with every member evaluated on
    the dense meshgrid, each of its npts[0] npts[1] npts[2] points."""
    measured, reality = {}, 0.0
    for (i, l), qf in sorted(family.q.items()):
        wins = se._windows(i, l, params.M)
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(wins, npts)]
        K0, KX, KY = np.meshgrid(*axes, indexing="ij")
        Q = np.asarray(qf(K0, KX, KY))
        if np.iscomplexobj(Q) and not np.abs(Q.imag).any():
            Q = Q.real
        sups = se.sup_derivatives(Q, [ax[1] - ax[0] for ax in axes], 2)
        measured.update({(i, l, d): s for d, s in sups.items()})
        S0, SX, SY = (K[::13, ::13, ::13] for K in (K0, KX, KY))
        res = np.abs(qf(-S0, SX, SY) - np.conj(qf(S0, SX, SY)))
        reality = max(reality, float(res.max()))
    return measured, reality


OPEN_GRID_MEMBERS = {
    "zero": lambda k0, kx, ky: 0.0 * np.asarray(k0),
    "k0-only": lambda k0, kx, ky: 1e-9 * np.asarray(k0),
    "constant": lambda k0, kx, ky: 1e-6 * np.ones_like(np.asarray(k0, dtype=float)),
    "kx-only": lambda k0, kx, ky: 1e-8 * np.cos(3.0 * kx),
    "complex": lambda k0, kx, ky: 1e-9 * (1j * np.sin(k0) + np.cos(kx) * np.cos(ky)),
    "complex-real": lambda k0, kx, ky: (1e-9 + 0j) * np.cos(7.0 * k0) * np.cos(kx),
}


@pytest.mark.parametrize("name", sorted(OPEN_GRID_MEMBERS))
def test_budget_open_grid_matches_dense_mesh(budget_params, name):
    fam = _one_member_family(OPEN_GRID_MEMBERS[name])
    npts = (40, 36, 44)
    rep = se.check_q_budget(fam, budget_params, npts=npts)
    measured, reality = dense_budget_oracle(fam, budget_params, npts)
    assert {(r.i, r.l, r.delta): r.measured for r in rep.rows} == measured
    assert rep.reality_residual == reality


# A ProductQ member is measured from its per-axis factors, the dense mesh
# from the rounded products: the two agree to the last digits.
PRODUCT_RTOL = 1e-14


def _assert_matches_oracle(rep, measured):
    assert {(r.i, r.l, r.delta) for r in rep.rows} == measured.keys()
    for r in rep.rows:
        m = measured[(r.i, r.l, r.delta)]
        assert abs(r.measured - m) <= PRODUCT_RTOL * m
        assert r.passed == (m <= r.allowed)


def test_budget_open_grid_matches_dense_mesh_saturating(budget_params, qfam):
    # worst relative gap here: 2.3e-16
    subset = se.ScaleFamily(lambda0=qfam.lambda0, upsilon=qfam.upsilon)
    for key in ((2, 2), (2, 4), (4, 5)):
        subset.q[key] = qfam.q[key]
        assert isinstance(subset.q[key], se.ProductQ)
    npts = (40, 36, 44)
    rep = se.check_q_budget(subset, budget_params, npts=npts)
    measured, reality = dense_budget_oracle(subset, budget_params, npts)
    _assert_matches_oracle(rep, measured)
    assert rep.reality_residual == reality


@settings(max_examples=40, deadline=None)
@given(amp=st.floats(1e-12, 1e3), negative=st.booleans(),
       i=st.integers(2, 6), dl=st.integers(0, 2),
       npts=st.tuples(*[st.integers(8, 24)] * 3))
def test_product_member_matches_dense_mesh(budget_params, amp, negative, i,
                                           dl, npts):
    # from 8 points per axis up; on 7 a central difference spans whole
    # periods of the spatial waves of l >= 4 (the windows hold three per
    # side), only the envelope is left of it, and the dense mesh's rounding
    # of the products grows past the bound (1.8e-14 at npts (13, 7, 7))
    l = i + dl
    amp = -amp if negative else amp
    fam = se.ScaleFamily(lambda0=1e-3, upsilon=0.2)
    fam.q[(i, l)] = se._make_q_member(budget_params.M, i, l, amp)
    rep = se.check_q_budget(fam, budget_params, npts=npts)
    measured, reality = dense_budget_oracle(fam, budget_params, npts)
    _assert_matches_oracle(rep, measured)
    assert rep.reality_residual == reality


def test_budget_of_product_members_allocates_no_grid(budget_params,
                                                     budget_scales, qfam):
    # factor ladders and the support points only: one 112^3 float grid
    # alone is 11 MB (the first call runs untraced, so that one-time setup
    # stays out of the peak; it loads no module)
    se.check_q_budget(qfam, budget_params, scales=budget_scales)
    tracemalloc.start()
    try:
        rep = se.check_q_budget(qfam, budget_params, scales=budget_scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_pass
    assert peak < 1 << 20


def test_budget_scalar_member_measured_on_whole_grid(budget_params):
    # a member returning a bare scalar is broadcast to the grid like the
    # same constant returned as an array
    scalar = se.check_q_budget(_one_member_family(lambda k0, kx, ky: 1e-7),
                               budget_params, npts=(20, 20, 20))

    def full(k0, kx, ky):
        return np.full(np.broadcast(k0, kx, ky).shape, 1e-7)

    array = se.check_q_budget(_one_member_family(full), budget_params,
                              npts=(20, 20, 20))
    assert [(r.delta, r.measured, r.allowed) for r in scalar.rows] \
        == [(r.delta, r.measured, r.allowed) for r in array.rows]
    assert len(scalar.rows) == 10
    assert {r.delta: r.measured for r in scalar.rows}[(0, 0, 0)] == 1e-7
    assert scalar.reality_residual == 0.0


def _sup_derivs_1d_reference(f, lo, hi, npts):
    xs = np.linspace(lo, hi, npts)
    d = np.asarray(f(xs), dtype=float)
    out = []
    for order in range(3):
        trim = slice(order, -order) if order else slice(None)
        out.append(float(np.abs(d[trim]).max()))
        d = np.gradient(d, xs[1] - xs[0])
    return out


def test_saturating_amplitudes_match_reference_loop(budget_params, qfam):
    p = budget_params
    M, la, up = p.M, p.lambda0, p.upsilon
    u = _sup_derivs_1d_reference(se._f0, 1.0, se._K0_CENTER + se._K0_EDGE, 60000)
    for (i, l), q in sorted(qfam.q.items()):
        w = M ** l
        npts = int(max(8000, 40 * se._KX_EDGE * 2 * w))
        raw = _sup_derivs_1d_reference(lambda t: se._gx(t, w),
                                       -se._KX_EDGE, se._KX_EDGE, npts)
        v = [raw[d] / w ** d for d in range(3)]
        cmax = max(u[d0] * v[d1] * v[d2] for d0 in range(3)
                   for d1 in range(3 - d0) for d2 in range(3 - d0 - d1))
        allowed0 = 2.0 * la ** (1 - 2 * up) * p.sector_length(l) / M ** l \
            * M ** (p.aleph_prime * (l - i))
        assert q.amp == 0.9 / cmax * allowed0


# ---------------------------------------------------------------------------
# partial sums


def test_partial_sum_bound(scales):
    # |Q - Q_j| <= lambda0^(1-3u) l_j min(|i k0 - e|, 1) for small lambda0
    params = ScaleParams(lambda0=1e-5, upsilon=0.2, jmax=8)
    fam = se.saturating_q_family(params)
    la, up = params.lambda0, params.upsilon
    sm = ScaleModel(params, quadratic_model())
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(200):
        k0 = rng.uniform(-2, 2)
        kx, ky = rng.uniform(-1.9, 1.9, 2)
        r = float(sm.radius(k0, kx, ky))
        for j in (3, 4, 5, 6):
            tail = abs(se.resum_Q(fam, k0, kx, ky)
                       - se.resum_Q(fam, k0, kx, ky, jcut=j))
            bound = la ** (1 - 3 * up) * params.sector_length(j) * min(r, 1.0)
            worst = max(worst, tail / bound)
    assert worst <= 1.0


def test_q_tail_decay_slope():
    params = ScaleParams(lambda0=1e-3, upsilon=0.2, jmax=12)
    sm = ScaleModel(params, quadratic_model())
    fam = se.saturating_q_family(params)
    fit = se.q_tail_decay(fam, params, sm, js=list(range(3, 9)))
    assert abs(fit.slope - fit.expected) <= 0.1 * abs(fit.expected)


# ---------------------------------------------------------------------------
# proper self-energy


def _smooth_pq():
    def P(k0, kx, ky):
        return 0.02j * k0 / (1 + k0 ** 2) * np.exp(-0.2 * (kx ** 2 + ky ** 2))

    def dP(k0, kx, ky):
        return 0.02j * (1 - k0 ** 2) / (1 + k0 ** 2) ** 2 \
            * np.exp(-0.2 * (kx ** 2 + ky ** 2))

    def Q(k0, kx, ky):
        e = 0.5 * (kx ** 2 + ky ** 2) - 1.0
        z = 1j * k0 - e
        return 0.01 * z ** 2 / (1.0 + np.abs(z) ** 2) \
            * np.exp(-0.1 * (kx ** 2 + ky ** 2))

    def dQ(k0, kx, ky):
        e = 0.5 * (kx ** 2 + ky ** 2) - 1.0
        z = 1j * k0 - e
        w = 1.0 + np.abs(z) ** 2
        return 0.01 * (2j * z / w - 2 * k0 * z ** 2 / w ** 2) \
            * np.exp(-0.1 * (kx ** 2 + ky ** 2))

    return P, dP, Q, dQ


def test_proper_sigma_trivials(scales, fermi_point):
    _, kx, ky = fermi_point
    P, _, Q, _ = _smooth_pq()
    Z = lambda k0, kx_, ky_: 0.0
    k = (0.3, kx, ky)
    assert abs(se.proper_sigma(scales, *k, P, Z) - P(*k)) <= 1e-15
    A = complex(scales.amputation(*k))
    qv = complex(Q(*k))
    assert abs(se.proper_sigma(scales, *k, Z, Q) - qv / (1 + qv / A)) <= 1e-15


def _off_curve(k):
    # the rejection rule of criterion 6
    k0, kx, ky = k
    return abs(1j * k0 - quadratic_model().e(kx, ky)) >= 0.15 \
        and abs(k0) >= 0.05


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.8, 1.8),
                          st.floats(-1.8, 1.8)).filter(_off_curve),
                min_size=1, max_size=40))
def test_sigma_array_call_is_the_per_point_call(scales, points):
    # the analytic dQ: a finite-difference one would turn last-digit
    # differences between the array and scalar loops into ~1e-10
    P, dP, Q, dQ = _smooth_pq()
    k = np.array(points).T
    S = se.proper_sigma(scales, *k, P, Q)
    dS = se.sigma_k0_derivative(scales, *k, P, Q, dP, dQ)
    assert S.shape == dS.shape == (len(points),)
    for i, point in enumerate(points):
        s = se.proper_sigma(scales, *point, P, Q)
        ds = se.sigma_k0_derivative(scales, *point, P, Q, dP, dQ)
        assert type(s) is type(ds) is complex
        # against |P| + |Q|, not |Sigma|, which cancels
        assert abs(S[i] - s) <= 1e-15 * (abs(P(*point)) + abs(Q(*point)))
        assert abs(dS[i] - ds) <= 1e-14 * abs(ds)


_NEGATIVE_K0 = [(-0.2, 1.2, 0.3), (-0.5, 0.9, 0.1)]


@pytest.mark.parametrize("name, spoilt, bad, exc", [
    # (1, 1) and (-1, 1) lie exactly on the curve in floating point
    ("proper_sigma", {}, [(0.0, 1.0, 1.0), (0.0, -1.0, 1.0)],
     se.SingularityError),
    ("sigma_k0_derivative", {}, [(0.0, 1.2, 0.3), (0.0, 0.9, 0.1)],
     se.SingularityError),
    ("proper_sigma", {"P": "nan"}, _NEGATIVE_K0, se.ConditioningError),
    ("sigma_k0_derivative", {"Q": "nan"}, _NEGATIVE_K0,
     se.ConditioningError),
    ("proper_sigma", {"P": "zero", "Q": "tiny"}, _NEGATIVE_K0,
     se.ConditioningError),
    ("sigma_k0_derivative", {"P": "zero", "Q": "tiny"}, _NEGATIVE_K0,
     se.ConditioningError),
], ids=["on-curve", "k0-zero", "nan-P", "nan-Q", "tiny", "tiny-tilde"])
def test_sigma_errors_name_the_first_bad_point(scales, name, spoilt, bad,
                                               exc):
    # a point after a good one fails, alone and in an array call, whose
    # message names it and not the bad point after it
    P, dP, Q, dQ = _smooth_pq()
    fns = {"P": P, "Q": Q, "dP": dP, "dQ": dQ}
    spoilers = {"nan": lambda *k: np.nan, "zero": lambda *k: 0.0,
                # with P = 0 the denominators are 1 + Q/E = 1e-10
                "tiny": lambda *k: -(1 - 1e-10) * scales.amputation(*k)}
    for key, kind in spoilt.items():
        fns[key] = lambda k0, kx, ky, f=fns[key], g=spoilers[kind]: \
            np.where(np.asarray(k0) < 0, g(k0, kx, ky), f(k0, kx, ky))
    keys = ("P", "Q") if name == "proper_sigma" else ("P", "Q", "dP", "dQ")
    args = [fns[key] for key in keys]
    call = getattr(se, name)
    good = (0.4, 1.2, 0.3)
    call(scales, *good, *args)
    with pytest.raises(exc):
        call(scales, *bad[0], *args)
    at = "at (k0, kx, ky) = ({!r}, {!r}, {!r})".format(*bad[0])
    with pytest.raises(exc, match=re.escape(at)):
        call(scales, *np.array([good, *bad]).T, *args)


@pytest.mark.parametrize("member", [
    lambda k0, kx, ky: 1e-8 * np.cos(3.0 * kx),
    se._make_q_member(3.0, 2, 2, 1e-6),
], ids=["callable", "product-at-other-M"])
def test_family_text_rejects_member_it_cannot_hold(budget_params, member):
    # written from its amplitude alone, the member would read back as the
    # ProductQ of (2, 2) at M = 2: a different function
    with pytest.raises(ValueError, match="ProductQ"):
        se.family_to_text(_one_member_family(member), budget_params)


@pytest.mark.parametrize("amps", [{}, "drop-one", "extra"])
def test_family_text_rejects_p_without_its_amplitude(budget_params, qfam,
                                                     amps):
    # p lines come from p_amp: a counterterm without its amplitude would be
    # left out of the file without a word, an amplitude alone would add one
    pfam = se.linear_p_family(budget_params)
    if amps == "drop-one":
        amps = dict(pfam.p_amp)
        del amps[max(amps)]
    elif amps == "extra":
        amps = {**pfam.p_amp, budget_params.jmax + 1: 1e-3}
    fam = se.ScaleFamily(p=pfam.p, p_amp=amps, q=qfam.q,
                         lambda0=qfam.lambda0, upsilon=qfam.upsilon)
    with pytest.raises(ValueError, match="counterterm indices"):
        se.family_to_text(fam, budget_params)


def test_family_text_roundtrip(budget_params, qfam):
    pfam = se.linear_p_family(budget_params)
    fam = se.ScaleFamily(p=pfam.p, dp_dk0=pfam.dp_dk0, p_amp=pfam.p_amp,
                         q=qfam.q,
                         lambda0=qfam.lambda0, upsilon=qfam.upsilon)
    text = se.family_to_text(fam, budget_params)
    back = se.family_from_text(text, budget_params)
    assert set(back.q) == set(fam.q)
    assert set(back.p) == set(fam.p)
    k = (0.37, 0.8, -0.3)
    for key in fam.q:
        assert abs(complex(fam.q[key](*k)) - complex(back.q[key](*k))) <= 1e-15
    for key in fam.p:
        assert abs(complex(fam.p[key](*k)) - complex(back.p[key](*k))) <= 1e-15
