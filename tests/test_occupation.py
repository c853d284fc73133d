import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fermi2d import cli
from fermi2d import occupation as oc
from fermi2d.scales import quadratic_model, rd_points


@pytest.fixture(scope="module")
def model():
    return oc.linear_self_energy(0.2, lambda kx, ky: 1.0)


def test_model_validation(disp, model):
    model.validate(disp)
    bad = oc.SelfEnergyModel(S=lambda k0, kx, ky: 0.9 + 0 * np.asarray(k0),
                             dS_dk0=lambda k0, kx, ky: 0.0 * np.asarray(k0))
    with pytest.raises(oc.ModelHypothesisError):
        bad.validate(disp)


@pytest.mark.parametrize("bad_at", [0, 137, 199])
def test_model_validation_names_first_failing_sample(disp, bad_at):
    # |S| = 0.9 at one point of the validation set and 0 elsewhere: the
    # error names that point, in the (k0,kx,ky) form of the scalar check
    draws = rd_points(200, (-30, -2, -2), (30, 2, 2))
    k0_bad = draws[bad_at, 0]

    def spike(k0, kx, ky):
        return 0.9j * (np.asarray(k0) == k0_bad) + 0 * np.asarray(kx)

    bad = oc.SelfEnergyModel(S=spike, dS_dk0=lambda k0, kx, ky: 0.0)
    k0, kx, ky = map(float, draws[bad_at])
    with pytest.raises(oc.ModelHypothesisError) as exc:
        bad.validate(disp)
    assert str(exc.value) == f"|S| or |dS/dk0| exceeds 1/2 at ({k0},{kx},{ky})"
    bad.validate(disp, samples=bad_at)  # the points before it all pass


def test_model_validation_finds_any_k0_window(disp):
    # |S| = 0.9 on a k0 window of width 0.6, 1/100 of the k0 range, and 0
    # elsewhere, at k0 = 0 too: some validation point falls in it, wherever
    # it lies, and the k0 = 0 copies do not find it for them
    for lo in np.linspace(-30.0, 29.4, 100):
        def spike(k0, kx, ky, lo=lo):
            k0 = np.asarray(k0)
            return 0.9j * ((lo <= k0) & (k0 <= lo + 0.6) & (k0 != 0)) \
                + 0 * np.asarray(kx)

        bad = oc.SelfEnergyModel(S=spike, dS_dk0=lambda k0, kx, ky: 0.0)
        with pytest.raises(oc.ModelHypothesisError, match="exceeds 1/2"):
            bad.validate(disp)


def test_free_occupation_step(disp):
    # S = 0: N is 1 inside the Fermi curve and 0 outside (pure residue)
    free = oc.linear_self_energy(0.0, lambda kx, ky: 1.0)
    for off, want in ((-0.07, 1.0), (0.07, 0.0)):
        rad = math.sqrt(2) + off
        val, resid = oc.occupation_limit(disp, free, rad, 0.0)
        assert abs(val - want) <= 1e-10
        assert resid <= 1e-9


def test_i1_closed_spot_value(disp, model):
    # A = 1, E = e = 1, eta = 1 gives -arctan(1)/pi = -1/4
    free = oc.linear_self_energy(0.0, lambda kx, ky: 1.0)
    rad = 2.0  # e = 1 for the quadratic model
    got = oc.i1_closed_limit(disp, free, rad, 0.0, eta=1.0)
    assert abs(got - (-0.25)) <= 1e-14


def test_i1_limit_jump_is_inverse_a(disp, model):
    # at fixed eta, the difference of the inside/outside limits of the I1
    # closed form approaches 1/A(kbar)
    lam = 0.2
    A = 1.0 - lam
    eta = 0.2
    diffs = []
    for d in (1e-4, 1e-6):
        rad_in = math.sqrt(2) - d
        rad_out = math.sqrt(2) + d
        diffs.append(oc.i1_closed_limit(disp, model, rad_in, 0.0, eta)
                     - oc.i1_closed_limit(disp, model, rad_out, 0.0, eta))
    assert abs(diffs[0] - 1.0 / A) <= 1e-3
    assert abs(diffs[1] - 1.0 / A) <= 1e-5


def test_i3_spot_values(disp):
    # e = -1 at the origin-side radius 0, tau = 1/2
    assert abs(oc.i3_closed(disp, 0.0, 0.0, 0.5) - math.exp(-0.5)) <= 1e-15
    # e > 0 gives zero
    assert oc.i3_closed(disp, 2.0, 0.0, 0.5) == 0.0
    # (1, 1) sits exactly on the curve in floating point
    with pytest.raises(oc.SingularPointError):
        oc.i3_closed(disp, 1.0, 1.0, 0.5)


def test_eta_splitting_consistency(disp, model):
    tol = 1e-9
    kx, ky = math.sqrt(2) * 1.02, 0.0
    v1, _ = oc.occupation_limit(disp, model, kx, ky, eta=0.1, quad_tol=tol)
    v2, _ = oc.occupation_limit(disp, model, kx, ky, eta=0.4, quad_tol=tol)
    assert abs(v1 - v2) <= 2 * tol


def test_occupation_real_for_symmetric_model(disp, model):
    rng = np.random.default_rng(4)
    for _ in range(10):
        rad = math.sqrt(2) * (1 + rng.uniform(0.02, 0.3) * rng.choice([-1, 1]))
        th = rng.uniform(0, 2 * np.pi)
        _, resid = oc.occupation_limit(disp, model, rad * math.cos(th),
                                       rad * math.sin(th))
        assert resid <= 1e-8


def test_occupation_continuity_off_curve(disp, model):
    # sampled Lipschitz-type bound along a path avoiding the Fermi curve
    rads = np.linspace(math.sqrt(2) * 1.05, math.sqrt(2) * 1.3, 30)
    vals = [oc.occupation_limit(disp, model, r, 0.0)[0] for r in rads]
    diffs = np.abs(np.diff(vals))
    assert diffs.max() <= 0.05


def test_jump_free_model(disp):
    free = oc.linear_self_energy(0.0, lambda kx, ky: 1.0)
    row = oc.jump_at(disp, free, 0.3)
    measured, predicted = row.jump_measured, row.jump_predicted
    assert predicted == 1.0
    assert abs(measured - 1.0) <= 1e-6


def test_jump_constant_g(disp, model):
    row = oc.jump_at(disp, model, 0.3)
    measured, predicted = row.jump_measured, row.jump_predicted
    assert abs(predicted - 1.25) <= 1e-14
    assert abs(measured - predicted) <= 1e-3


def test_fermi_sweep_free_and_angular(disp):
    free = oc.linear_self_energy(0.0, lambda kx, ky: 1.0)
    rows = oc.fermi_sweep(disp, free, npoints=6)
    assert len(rows) == 6
    assert all(r.flag == "" for r in rows)
    assert all(abs(r.jump_measured - 1.0) <= 1e-3 for r in rows)
    assert all(r.jump_predicted == 1.0 for r in rows)
    # angle-dependent g: predicted tracks 1/(1 - lam g(theta))
    lam = 0.2
    g = lambda kx, ky: 0.6 + 0.3 * np.cos(np.arctan2(ky, kx))
    m = oc.linear_self_energy(lam, g)
    rows = oc.fermi_sweep(disp, m, npoints=6)
    for r in rows:
        kx = math.sqrt(2) * math.cos(r.theta)
        ky = math.sqrt(2) * math.sin(r.theta)
        want = 1.0 / (1.0 - lam * float(g(kx, ky)))
        assert abs(r.jump_predicted - want) <= 1e-12
        assert r.abs_err <= 1e-3
    # constant-g model: constant predicted column
    rows = oc.fermi_sweep(disp, oc.linear_self_energy(0.1, lambda kx, ky: 1.0),
                          npoints=4)
    preds = {r.jump_predicted for r in rows}
    assert len(preds) == 1


def test_occupation_limit_on_curve_raises(disp, model):
    with pytest.raises(oc.SingularPointError):
        oc.occupation_limit(disp, model, 1.0, 1.0)


def _vec_not_converged(f, a, b, tol):
    return np.zeros_like(f(0.5)), 0.0, 1


def _vec_huge_error(f, a, b, tol):
    return np.zeros_like(f(0.5)), 1.0, 0


# "warning": the rule stops short of its tolerance (status 1)
@pytest.mark.parametrize("fake", [_vec_huge_error, _vec_not_converged],
                         ids=["error-estimate", "warning"])
@pytest.mark.parametrize("evaluate", [
    lambda disp, model: oc.i1_quad(disp, model, 1.45, 0.0, 0.2, 0.02),
    lambda disp, model: oc.i2_quad(disp, model, 1.45, 0.0, 0.2),
    lambda disp, model: oc.i3_cutoff_quad(disp, 1.2, 0.0, 0.5, 60.0),
    lambda disp, model: oc.i4_quad(disp, model, 1.45, 0.0, 0.2),
], ids=["i1_quad", "i2_quad", "i3_cutoff_quad", "i4_quad"])
def test_quadrature_failure_raises(disp, model, monkeypatch, fake, evaluate):
    monkeypatch.setattr(oc, "_gk21_adaptive", fake)
    with pytest.raises(oc.QuadratureError):
        evaluate(disp, model)


def _scipy_quad(f, a, b, tol, **kwargs):
    """The complex integral of f by scipy.integrate.quad (QUADPACK), real
    and imaginary parts apart, at epsabs = epsrel = tol."""
    parts = [integrate.quad(lambda x: part(f(x)), a, b, epsabs=tol,
                            epsrel=tol, limit=3000, **kwargs)[0]
             for part in (np.real, np.imag)]
    return complex(*parts)


def _oracle_i1(disp, model, kx, ky, eta, tau, tol):
    A, E = oc._aer(disp, model, kx, ky)
    return _scipy_quad(lambda k0: np.exp(1j * k0 * tau) / (1j * A * k0 - E),
                       -eta, eta, tol) / (2 * math.pi)


def _oracle_i2(disp, model, kx, ky, eta, tol):
    A, E = oc._aer(disp, model, kx, ky)
    S0, dS0 = model.S(0.0, kx, ky), model.dS_dk0(0.0, kx, ky)

    def f(k0):
        R = model.S(k0, kx, ky) - S0 - dS0 * k0
        lin = 1j * A * k0 - E
        return R / (lin * (lin - R))

    return _scipy_quad(f, -eta, eta, tol, points=[0.0]) / (2 * math.pi)


def _oracle_i3(disp, kx, ky, tau, cutoff, tol):
    # QAWO: the cos and sin weights of 1 / (i k0 - e), recombined
    e = float(disp.e(kx, ky))
    c, s = (_scipy_quad(lambda k0: 1 / (1j * k0 - e), -cutoff, cutoff, tol,
                        weight=w, wvar=tau) for w in ("cos", "sin"))
    return (c + 1j * s) / (2 * math.pi)


def _oracle_i4(disp, model, kx, ky, eta, tol):
    # QAGI on [eta, inf), the k0 and -k0 halves folded
    e = float(disp.e(kx, ky))

    def g(k0):
        S = model.S(k0, kx, ky)
        return S / ((1j * k0 - e) * (1j * k0 - e - S))

    return _scipy_quad(lambda k0: g(k0) + g(-k0), eta, np.inf, tol) \
        / (2 * math.pi)


# (theta, radial offset): near the curve (0.002) and away from it
_ORACLE_POINTS = [(0.3, -0.002), (1.9, 0.002), (2.5, -0.05), (4.0, 0.05),
                  (5.2, -0.3), (0.9, 0.3)]


@pytest.mark.parametrize("piece, oracle, args", [
    (oc.i1_quad, _oracle_i1, lambda m, x, y, eta: (m, x, y, eta, 0.0)),
    (oc.i1_quad, _oracle_i1, lambda m, x, y, eta: (m, x, y, eta, 0.7)),
    (oc.i2_quad, _oracle_i2, lambda m, x, y, eta: (m, x, y, eta)),
    # i3_cutoff_quad integrates at 1e-10, the tol of this test
    (lambda disp, x, y, tau, cutoff, tol:
        oc.i3_cutoff_quad(disp, x, y, tau, cutoff),
     _oracle_i3, lambda m, x, y, eta: (x, y, 0.5, 60.0)),
    (oc.i4_quad, _oracle_i4, lambda m, x, y, eta: (m, x, y, eta)),
], ids=["i1_quad", "i1_quad-tau", "i2_quad", "i3_cutoff_quad", "i4_quad"])
def test_pieces_match_scipy_quad(disp, piece, oracle, args):
    # an oracle independent of the in-tree rule: QUADPACK's QAGS, QAWO and
    # QAGI through scipy.integrate.quad, within 50 tol
    model = oc.linear_self_energy(
        0.2, lambda kx, ky: 0.6 + 0.3 * np.cos(np.arctan2(ky, kx)))
    tol = 1e-10
    for th, off in _ORACLE_POINTS:
        rad = math.sqrt(2) * (1 + off)
        kx, ky = rad * math.cos(th), rad * math.sin(th)
        eta = float(oc.default_eta(disp, model, kx, ky))
        call = args(model, kx, ky, eta)
        got, want = piece(disp, *call, tol), oracle(disp, *call, tol)
        assert abs(got - want) <= 50 * tol * max(1.0, abs(want)), (th, off)


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_fermi_sweep_is_one_vector_quadrature(disp, model, monkeypatch):
    vec_calls = _counting(monkeypatch, oc, "_gk21_adaptive")
    quad_calls = _counting(monkeypatch, integrate, "quad")
    rows = oc.fermi_sweep(disp, model, npoints=4)
    assert (len(vec_calls), len(quad_calls)) == (1, 0)
    d = 1e-3  # deltas[-1]
    for r in rows:
        rad = float(disp.fermi_radius(r.theta))
        nx, ny = math.cos(r.theta), math.sin(r.theta)
        n_in, _ = oc.occupation_limit(disp, model, (rad - d) * nx, (rad - d) * ny)
        n_out, _ = oc.occupation_limit(disp, model, (rad + d) * nx, (rad + d) * ny)
        assert abs(r.n_in - n_in) <= 1e-12
        assert abs(r.n_out - n_out) <= 1e-12


def test_occupation_limits_call_s_once_per_node(disp, monkeypatch):
    # the I2 + I4 integrand evaluates the self-energy once per quadrature
    # node, on the stacked k0 = +-eta t, +-eta / t of every point
    model = oc.linear_self_energy(0.2, lambda kx, ky: 1.0)
    counts = {"nodes": 0, "S": 0}
    S, inside = model.S, []

    def counted_S(*args):
        counts["S"] += bool(inside)
        return S(*args)

    real = oc._gk21_adaptive

    def counted_quad(f, a, b, tol):
        def node(t):
            counts["nodes"] += 1
            inside.append(t)
            try:
                return f(t)
            finally:
                inside.pop()
        return real(node, a, b, tol)

    monkeypatch.setattr(model, "S", counted_S)
    monkeypatch.setattr(oc, "_gk21_adaptive", counted_quad)
    th = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    r = disp.fermi_radius(th) + 2e-3
    oc.occupation_limits(disp, model, r * np.cos(th), r * np.sin(th))
    assert counts["nodes"] > 0
    assert counts["S"] == counts["nodes"]


@pytest.mark.parametrize("fake", [_vec_not_converged, _vec_huge_error],
                         ids=["status", "error-estimate"])
def test_fermi_sweep_redoes_each_angle_when_the_batch_fails(
        disp, model, monkeypatch, fake):
    want = oc.fermi_sweep(disp, model, npoints=4)
    real = oc._gk21_adaptive
    calls = []

    def batch_fails(f, a, b, tol):
        calls.append(1)
        return (fake if len(calls) == 1 else real)(f, a, b, tol)

    monkeypatch.setattr(oc, "_gk21_adaptive", batch_fails)
    rows = oc.fermi_sweep(disp, model, npoints=4)
    assert len(calls) == 1 + 4
    for r, w in zip(rows, want):
        assert r.flag == "" and r.theta == w.theta
        for col in ("n_in", "n_out", "jump_measured", "jump_predicted"):
            assert abs(getattr(r, col) - getattr(w, col)) <= 1e-12


@pytest.mark.parametrize("fake", [_vec_not_converged, _vec_huge_error],
                         ids=["status", "error-estimate"])
def test_fermi_sweep_flags_every_failed_angle(disp, model, monkeypatch, fake,
                                              tmp_path, capsys):
    monkeypatch.setattr(oc, "_gk21_adaptive", fake)
    rows = oc.fermi_sweep(disp, model, npoints=3)
    assert [r.flag for r in rows] == ["QuadratureError"] * 3
    assert all(math.isnan(r.jump_measured) for r in rows)
    with pytest.raises(oc.QuadratureError):
        oc.occupation_limit(disp, model, 1.45, 0.0)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[scenario]\nnpoints = 3\n")
    rc = cli.main(["jump-sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "sweep.csv")])
    assert rc == cli.EXIT_TOLERANCE
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["scenario"] == "jump-sweep"
    assert diag["error"] == "tolerance"


def test_fermi_sweep_without_points(disp, model, monkeypatch):
    calls = _counting(monkeypatch, oc, "_gk21_adaptive")
    assert oc.fermi_sweep(disp, model, npoints=0) == []
    assert calls == []


def test_fermi_sweep_flags_only_points_on_the_curve(disp, model):
    # with offset 0 the sample point lands on e == 0 exactly at some angles
    # only; the other rows are measured as usual
    rows = oc.fermi_sweep(disp, model, npoints=8, deltas=(2e-3, 1e-3, 0.0))
    on_curve = []
    for r in rows:
        rad = float(disp.fermi_radius(r.theta))
        on_curve.append(float(disp.e(rad * math.cos(r.theta),
                                     rad * math.sin(r.theta))) == 0.0)
    assert 0 < sum(on_curve) < len(rows)
    assert [r.flag for r in rows] == ["SingularPointError" if hit else ""
                                      for hit in on_curve]
    with pytest.raises(oc.SingularPointError):
        oc.occupation_limits(disp, model, [1.45, 1.0], [0.0, 1.0])


def test_fermi_sweep_flags_radii_below_the_offsets(model):
    # at anisotropy 1e300 the Fermi radius is 1e-134 at theta = pi: its
    # offset points would leave the ray and e(rad + delta) ~ 1e263 would
    # overflow; that row is flagged, the theta = 0 row measured as usual
    thin = quadratic_model(1e300)
    rows = oc.fermi_sweep(thin, model, npoints=2)
    assert [r.flag for r in rows] == ["", "SingularPointError"]
    assert rows[0].abs_err <= 1e-6
    with pytest.raises(oc.SingularPointError, match="radial offset"):
        oc.jump_at(thin, model, math.pi)


def test_fermi_sweep_flags_offsets_that_do_not_cross_the_curve(model,
                                                               tmp_path):
    # at anisotropy 1e-300 the Fermi radius is 2.3e16 at theta = pi/2 and
    # 3 pi/2: rad -+ delta rounds to rad, so the inner offsets land outside
    # too (e = 2.2e-16) and no jump is measured there; those rows are
    # flagged, the theta = 0 and pi rows measured as usual
    wide = quadratic_model(1e-300)
    rows = oc.fermi_sweep(wide, model, npoints=4)
    assert [r.flag for r in rows] == ["", "SingularPointError"] * 2
    assert all(rows[t].abs_err <= 1e-6 for t in (0, 2))
    with pytest.raises(oc.SingularPointError, match="does not cross"):
        oc.jump_at(wide, model, math.pi / 2)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("model = quadratic:1e-300\n[scenario]\nnpoints = 4\n")
    out = tmp_path / "sweep.csv"
    rc = cli.main(["jump-sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_TOLERANCE
    flags = [line.rsplit(",", 1)[1] for line in
             out.read_text().splitlines()[1:]]
    assert flags == ["", "SingularPointError"] * 2


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(0.0, 0.5),
       points=st.lists(st.tuples(st.floats(0.0, 2 * math.pi),
                                 st.floats(0.002, 0.3), st.booleans()),
                       min_size=1, max_size=4))
def test_occupation_limits_match_the_five_pieces(disp, lam, points):
    model = oc.linear_self_energy(
        lam, lambda kx, ky: 0.6 + 0.3 * np.cos(np.arctan2(ky, kx)))
    kx, ky = [], []
    for th, off, inside in points:
        rad = math.sqrt(2) * (1 - off if inside else 1 + off)
        kx.append(rad * math.cos(th))
        ky.append(rad * math.sin(th))
    vals, resid = oc.occupation_limits(disp, model, kx, ky)
    for x, y, v, res in zip(kx, ky, vals, resid):
        eta = oc.default_eta(disp, model, x, y)
        want = (oc.i1_closed_limit(disp, model, x, y, eta)
                + oc.i2_quad(disp, model, x, y, eta, 1e-9)
                + (1.0 if float(disp.e(x, y)) < 0 else 0.0)
                - oc.i3p_closed_limit(disp, x, y, eta)
                + oc.i4_quad(disp, model, x, y, eta, 1e-9))
        assert abs(v - want.real) <= 1e-12
        assert res <= 1e-8


def test_fermi_sweep_validates_model(disp):
    with pytest.raises(oc.ModelHypothesisError):
        oc.fermi_sweep(disp, oc.linear_self_energy(0.9, lambda kx, ky: 1.0),
                       npoints=2)


@settings(max_examples=10, deadline=None)
@given(g=st.floats(0.1, 1.0), lam_g=st.floats(0.0, 0.45),
       theta=st.floats(0.0, 2 * math.pi))
def test_jump_matches_prediction_for_constant_g(disp, g, lam_g, theta):
    lam = lam_g / g
    row = oc.jump_at(disp, oc.linear_self_energy(lam, lambda kx, ky: g), theta)
    assert abs(row.jump_measured - 1.0 / (1.0 - lam * g)) <= 1e-3


def _sweep_integrand(disp):
    # the I2 + I4 integrand of occupation_limits at 8 points near the curve
    model = oc.linear_self_energy(
        0.17, lambda kx, ky: 0.6 + 0.3 * np.cos(np.arctan2(ky, kx)))
    th = np.linspace(0.0, 2 * math.pi, 4, endpoint=False)[:, None]
    r = disp.fermi_radius(th) + np.array([-2e-3, 1e-3])
    seen = []

    def record(f, a, b, tol):
        seen.append(f)
        return np.zeros_like(f(1.0))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oc, "_quad_vec", record)
        oc.occupation_limits(disp, model, r * np.cos(th), r * np.sin(th))
    return seen[0]


_RATES = np.linspace(0.1, 3.0, 7)
_POLY = np.random.default_rng(2).normal(size=(5, 32))


@pytest.mark.parametrize("make, tol", [
    (lambda disp: lambda t: np.exp(1j * _RATES * t) / (1 + _RATES * t * t),
     1e-10),
    (_sweep_integrand, 1e-9),
    (_sweep_integrand, 1e-3),
    (lambda disp: lambda t: _POLY @ t ** np.arange(32), 1e-12),
    (lambda disp: lambda t: np.array([1 / np.sqrt(t), np.log(t)]), 1e-10),
    (lambda disp: lambda t: np.sin(1 / (t + 1e-3)) * _RATES, 1e-12),
    (lambda disp: lambda t: np.array([1.0, np.nan if t > 0.3 else 1.0]), 1e-9),
], ids=["smooth-complex", "sweep-tight", "sweep-cli-tol", "degree-31",
        "endpoint-singular", "oscillating", "nan"])
def test_gk21_adaptive_matches_scipy_quad_vec(disp, make, tol):
    f = make(disp)
    nodes = []

    def counted(t):
        nodes.append(t)
        return f(t)

    with np.errstate(invalid="ignore"):
        val, err, status = oc._gk21_adaptive(counted, 0.0, 1.0, tol)
        want, want_err, info = integrate.quad_vec(
            f, 0.0, 1.0, epsabs=tol, epsrel=tol, norm="max", full_output=True)
    assert np.array_equal(val, want, equal_nan=True)
    assert np.array_equal(err, want_err, equal_nan=True)
    assert status == info.status
    assert oc._GK21_STATUS[status] == info.message
    assert len(nodes) == info.neval     # f once per node, parents cached


def test_gk21_integrates_degree_31_exactly():
    val, _, status = oc._gk21_adaptive(lambda t: _POLY @ t ** np.arange(32),
                                       0.0, 1.0, 1e-12)
    exact = _POLY @ (1.0 / np.arange(1, 33))
    assert status == 0
    assert np.max(np.abs(val - exact)) <= 1e-13


def test_quad_vec_raises_on_non_finite_values():
    with np.errstate(invalid="ignore"):
        _, _, status = oc._gk21_adaptive(
            lambda t: np.array([np.nan, 1.0]), 0.0, 1.0, 1e-9)
        assert status == 3
        with pytest.raises(oc.QuadratureError,
                           match="Non-finite values encountered"):
            oc._quad_vec(lambda t: np.array([np.nan, 1.0]), 0.0, 1.0, 1e-9)
