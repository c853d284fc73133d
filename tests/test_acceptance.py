"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report lines.
"""
import itertools
import math
import time

import numpy as np

from fermi2d import cli
from fermi2d import hoelder as hl
from fermi2d import ladders as ld
from fermi2d import occupation as oc
from fermi2d import selfenergy as se
from fermi2d.blocks import BlockKernel
from fermi2d.config import ScaleParams
from fermi2d.kernels import (Kernel4, KernelSpace, antisymmetrize,
                             component_mask, extract_component, flip,
                             make_grid, pi_collapse, random_kernel,
                             reduce_ph, reduce_pp, s_kappa, sct_prime, shear,
                             shear_prime, value_ph, value_pp)
from fermi2d.scales import ScaleModel, quadratic_model
from fermi2d.sectors import build_fermi_curve


def _report(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


# ---------------------------------------------------------------------------


def test_criterion_1_jump_formula():
    """Jump vs [1 - lam g]^-1 within 1e-3 at 16 Fermi points, < 60 s."""
    disp = quadratic_model()
    profiles = {
        "constant": lambda kx, ky: 1.0,
        "cosine": lambda kx, ky: 0.6 + 0.3 * np.cos(np.arctan2(ky, kx)),
        "twolobe": lambda kx, ky: 0.5 + 0.3 * np.cos(2 * np.arctan2(ky, kx)),
    }
    start = time.time()
    worst = 0.0
    for lam in (0.1, 0.2, 0.4):
        for name, g in profiles.items():
            model = oc.linear_self_energy(lam, g)
            rows = oc.fermi_sweep(disp, model, npoints=16)
            assert len(rows) == 16
            for r in rows:
                assert r.flag == ""
                assert r.abs_err <= 1e-3
                worst = max(worst, r.abs_err)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(1, f"9 sweeps x 16 points, worst |measured - predicted| = "
               f"{worst:.2e} <= 1e-3, {elapsed:.1f} s")


def test_criterion_2_closed_form_oracles():
    """Quadrature I1 vs arctan closed form (1e-8); cutoff-extrapolated I3
    vs residue formula (1e-6)."""
    disp = quadratic_model()
    model = oc.linear_self_energy(0.2, lambda kx, ky: 1.0)
    rng = np.random.default_rng(3)
    worst_i1 = 0.0
    for _ in range(20):
        th = rng.uniform(0, 2 * np.pi)
        rad = math.sqrt(2) * (1 + rng.uniform(-0.3, 0.3))
        kx, ky = rad * math.cos(th), rad * math.sin(th)
        eta = rng.uniform(0.05, 0.8)
        closed = oc.i1_closed_limit(disp, model, kx, ky, eta)
        quadv = oc.i1_quad(disp, model, kx, ky, eta, 0.0, 1e-12)
        worst_i1 = max(worst_i1, abs(closed - quadv))
    assert worst_i1 <= 1e-8
    worst_i3 = 0.0
    for e_sign in (-1, 1):
        for tau in (0.3, 0.5, 0.7):
            rad = math.sqrt(2 * (1 + e_sign * 0.3))
            closed = oc.i3_closed(disp, rad, 0.0, tau)
            extr = oc.i3_cutoff_extrapolated(disp, rad, 0.0, tau)
            worst_i3 = max(worst_i3, abs(closed - extr))
    assert worst_i3 <= 1e-6
    _report(2, f"I1 quad vs closed {worst_i1:.2e} <= 1e-8; "
               f"I3 extrapolated vs residue {worst_i3:.2e} <= 1e-6")


def test_criterion_3_kernel_identities():
    """Reconstruction, flip normalization, involution, and component
    extraction, exact to 1e-13 on a 2-point grid over all spins/bars."""
    grid = make_grid([(0.25, 1.2, 0.55)])
    sp = KernelSpace(grid, nspin=2, nsec=1)
    und = sp.undirected()
    rng = np.random.default_rng(0)
    worst_rec = 0.0
    for _ in range(50):
        f = random_kernel(sp, rng, antisym=True)
        rec = value_pp(reduce_pp(f), sp).values \
            + value_ph(reduce_ph(f), sp).values
        worst_rec = max(worst_rec, np.abs(rec - f.values).max())
    assert worst_rec <= 1e-13
    worst_d4 = 0.0
    for _ in range(20):
        L = random_kernel(und, rng, conserving=False, number_conserving=False)
        L = Kernel4(und, 0.5 * (L.values + L.values.transpose(3, 2, 1, 0)))
        lhs = reduce_ph(antisymmetrize(value_ph(L, sp)), und).values
        rhs = (L.values + flip(L).values) / 3.0
        worst_d4 = max(worst_d4, np.abs(lhs - rhs).max())
    assert worst_d4 <= 1e-13
    f = random_kernel(sp, rng, antisym=True)
    assert np.abs(flip(flip(f)).values - f.values).max() == 0.0
    # Cauchy extraction over all primed components, exact by degree
    sp2 = KernelSpace(grid, nspin=2, nsec=1)
    g = random_kernel(sp2, rng, antisym=True)
    table = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    lookup = {(grid.k0[i], grid.kx[i], grid.ky[i]): table[i]
              for i in range(len(grid))}
    gp = shear_prime(g, lambda k0, kx, ky: lookup[(k0, kx, ky)])
    worst_ext = 0.0
    for ivec in itertools.product((-1, 0, 1), repeat=4):
        comp = extract_component(gp, ivec)
        idx = component_mask(gp.space, ivec)
        direct = np.zeros_like(gp.values)
        direct[np.ix_(*idx)] = gp.values[np.ix_(*idx)]
        worst_ext = max(worst_ext, np.abs(comp.values - direct).max())
    assert worst_ext <= 1e-13 * max(1.0, gp.max_abs())
    # on the block a direct copy is what extraction writes by construction;
    # the S_kappa node average itself, over all 3^4 node combinations, tests
    # the exactness by degree: 8 seeded components, each S_kappa taken once
    ivecs = list(itertools.product((-1, 0, 1), repeat=4))
    chosen = [ivecs[c] for c in sorted(rng.choice(len(ivecs), size=8,
                                                  replace=False))]
    nodes = np.exp(2j * np.pi * np.arange(3) / 3)
    avgs = [np.zeros_like(gp.values) for _ in chosen]
    for combo in itertools.product(range(3), repeat=4):
        kappas = nodes[list(combo)]
        scaled = s_kappa(gp, kappas).values
        for ivec, avg in zip(chosen, avgs):
            avg += np.prod(kappas ** (np.array(ivec) - 1)) * scaled
    worst_avg = max(np.abs(extract_component(gp, ivec).values - avg / 81).max()
                    for ivec, avg in zip(chosen, avgs))
    assert worst_avg <= 1e-13 * max(1.0, gp.max_abs())
    _report(3, f"reconstruction {worst_rec:.1e}; flip identity {worst_d4:.1e}; "
               f"involution exact; extraction {worst_ext:.1e}, against the "
               f"S_kappa average {worst_avg:.1e} (all <= 1e-13)")


def _ladder_fixture():
    params = ScaleParams()
    disp = quadratic_model()
    curve = build_fermi_curve(disp)
    th = 0.45
    rad = float(disp.fermi_radius(th))
    pts = []
    for r_t in (0.21, 0.105):
        e_off = 0.3 * r_t
        k0 = math.sqrt(r_t ** 2 - e_off ** 2)
        drad = e_off / rad
        pts.append((k0, (rad + drad) * math.cos(th),
                    (rad + drad) * math.sin(th)))
    grid = make_grid(pts)
    L = curve.length
    scheme = ld.build_scheme(params, disp, grid, [2, 3], nspin=1,
                             sector_lengths={2: L / 3, 3: L / 5})
    rng = np.random.default_rng(7)
    fam = ld.LadderFamily(F={}, p={})
    for i in (2, 3):
        fam.F[i] = BlockKernel.from_dense(
            random_kernel(scheme.space(i), rng, amp=1e-5, antisym=True))
    pfam = se.linear_p_family(params, imin=2, imax=3, amp0=5e-3)
    fam.p = pfam.p
    return scheme, fam


def test_criterion_4_ladder_equivalences():
    """Recursion vs closed form, telescoping, inversion symmetry: residuals
    <= 1e-12 on 2 scales, 2-point grid, lmax = 4."""
    scheme, fam = _ladder_fixture()
    v = fam.v_total()
    comp = ld.compound_ladder(scheme, 4, v, fam.F, lmax=4)
    closed = ld.ladder_closed_form(scheme, 4, v, fam.F, lmax=4)
    scale = comp.max_abs()
    assert scale > 0.0
    r_closed = np.abs(comp.values - closed.values).max() / scale
    assert r_closed <= 1e-12
    rep = ld.delta_ladder_telescope(scheme, 4, fam, lmax=4)
    r_tel = rep.residual / max(rep.iterated.max_abs(), 1e-300)
    assert r_tel <= 1e-12
    assert max(rep.per_scale_delta_norms.values()) > 0.0
    for kern in (comp, closed, rep.iterated, rep.compound):
        assert kern.is_inversion_symmetric(tol=1e-11)
    _report(4, f"recursion vs closed form {r_closed:.1e}; telescoping {r_tel:.1e} "
               f"(both <= 1e-12 relative); all outputs inversion symmetric")


def test_criterion_5_shear_composition():
    """shear(f, B1 B2) = Pi(sct'(shear'(f, B1), B2)) on 20 random kernels."""
    grid = make_grid([(0.25, 1.2, 0.55)])
    sp = KernelSpace(grid, nspin=1, nsec=2)
    rng = np.random.default_rng(11)

    def table_fn(seed):
        r = np.random.default_rng(seed)
        t = r.standard_normal(len(grid)) + 1j * r.standard_normal(len(grid))
        lookup = {(grid.k0[i], grid.kx[i], grid.ky[i]): t[i]
                  for i in range(len(grid))}
        return lambda k0, kx, ky: lookup[(k0, kx, ky)]

    worst = 0.0
    for t in range(20):
        f = random_kernel(sp, rng, antisym=True)
        B1 = table_fn(100 + t)
        B2 = table_fn(200 + t)
        lhs = shear(f, lambda k0, kx, ky: B1(k0, kx, ky) * B2(k0, kx, ky))
        rhs = pi_collapse(sct_prime(shear_prime(f, B1), B2), sp)
        resid = np.abs(lhs.values - rhs.values).max() / max(lhs.max_abs(), 1.0)
        worst = max(worst, resid)
    assert worst <= 1e-13
    _report(5, f"shear composition exact on 20 kernels, worst relative "
               f"residual {worst:.1e}")


def test_criterion_6_selfenergy_algebra():
    """1/(E - Sigma) = 1/(E - P) + Q/E^2 to 1e-12 relative; derivative
    formula vs finite differences to 1e-6 relative, 200 off-shell samples."""
    params = ScaleParams()
    scales = ScaleModel(params, quadratic_model())

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

    def dQ(k0, kx, ky, h=1e-6):
        return (Q(k0 + h, kx, ky) - Q(k0 - h, kx, ky)) / (2 * h)

    rng = np.random.default_rng(42)
    worst_g2 = worst_ds = 0.0
    n = 0
    while n < 200:
        k0 = rng.uniform(-1.5, 1.5)
        kx, ky = rng.uniform(-1.8, 1.8, 2)
        A = complex(scales.amputation(k0, kx, ky))
        if abs(A) < 0.15 or abs(k0) < 0.05:
            continue
        n += 1
        S = se.proper_sigma(scales, k0, kx, ky, P, Q)
        lhs = 1.0 / (A - S)
        rhs = 1.0 / (A - P(k0, kx, ky)) + Q(k0, kx, ky) / A ** 2
        worst_g2 = max(worst_g2, abs(lhs - rhs) / abs(rhs))
        ds = se.sigma_k0_derivative(scales, k0, kx, ky, P, Q, dP, dQ)
        h = 1e-5 * max(abs(k0), abs(A))
        fd = (se.proper_sigma(scales, k0 + h, kx, ky, P, Q)
              - se.proper_sigma(scales, k0 - h, kx, ky, P, Q)) / (2 * h)
        worst_ds = max(worst_ds, abs(ds - fd) / max(abs(fd), 1e-12))
    assert worst_g2 <= 1e-12
    assert worst_ds <= 1e-6
    _report(6, f"two-point identity {worst_g2:.1e} <= 1e-12; derivative "
               f"formula vs FD {worst_ds:.1e} <= 1e-6 (200 samples)")


def test_criterion_7_budget_checker():
    """Saturating family passes with ratios <= 1 (each pair saturating in
    (0.5, 1]); 3x-scaled fails; |Q - Q_j| tracks the sector length."""
    params = ScaleParams(lambda0=1e-3, upsilon=0.2, jmax=5)
    scales = ScaleModel(params, quadratic_model())
    fam = se.saturating_q_family(params)
    rep = se.check_q_budget(fam, params, scales=scales)
    assert rep.all_pass
    assert all(r.ratio <= 1.0 for r in rep.rows)
    per_pair = rep.max_ratio_per_pair()
    assert all(0.5 < ratio <= 1.0 for ratio in per_pair.values())
    fam3 = se.saturating_q_family(params, scale=3.0)
    rep3 = se.check_q_budget(fam3, params, scales=scales)
    assert not rep3.all_pass
    # partial-sum decay rate
    dparams = ScaleParams(lambda0=1e-3, upsilon=0.2, jmax=12)
    dscales = ScaleModel(dparams, quadratic_model())
    dfam = se.saturating_q_family(dparams)
    fit = se.q_tail_decay(dfam, dparams, dscales, js=list(range(3, 9)))
    dev = abs(fit.slope - fit.expected) / abs(fit.expected)
    assert dev <= 0.10
    _report(7, f"budget pass (worst ratio {rep.worst_ratio():.3f}); 3x fails "
               f"(worst {rep3.worst_ratio():.2f}); decay slope {fit.slope:.4f} "
               f"vs {fit.expected:.4f} ({100 * dev:.1f}% <= 10%)")


def test_criterion_8_hoelder():
    """Certificate ratio <= 1 on the saturating sine family; empirical
    exponent within 0.05; C' spot value 8."""
    worst_ratio = 0.0
    worst_dev = 0.0
    for abm in ((1.0, 1.0, 2.0), (0.6, 0.4, 2.0), (1.0, 2.0, 3.0)):
        b = hl.ScaleBounds(abm[0], abm[1], 1.0, 1.0, abm[2])
        fam = hl.saturating_family(b)
        rep = hl.verify_family(b, fam)
        assert rep.hypotheses_ok
        assert rep.max_ratio <= 1.0
        worst_ratio = max(worst_ratio, rep.max_ratio)

        def f(t, fam=fam):
            return sum(g(t) for g, _ in fam)

        expo, _ = hl.empirical_exponent(f)
        dev = abs(expo - b.alpha / (b.alpha + b.beta))
        assert dev <= 0.05
        worst_dev = max(worst_dev, dev)
    _, const = hl.hoelder_certificate(hl.ScaleBounds(1, 1, 1, 1, 2))
    assert const == 8.0
    _report(8, f"certificate ratios <= {worst_ratio:.3f}; exponent within "
               f"{worst_dev:.3f} <= 0.05; C' = 8 at (1,1,2)")


def test_criterion_9_infrastructure(tmp_path):
    """Partition of unity <= 1e-12; byte-identical CLI output across
    runs."""
    params = ScaleParams()
    scales = ScaleModel(params, quadratic_model())
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        k0 = rng.uniform(-1.5, 1.5)
        kx, ky = rng.uniform(-2.2, 2.2, 2)
        total = sum(float(scales.nu(j, k0, kx, ky))
                    for j in range(params.j0, params.jmax + 1))
        total += float(scales.nu_gt(params.jmax, k0, kx, ky))
        worst = max(worst, abs(total - float(scales.disp.U(kx, ky))))
    assert worst <= 1e-12
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("M = 2.0\naleph = 0.6\nalephPrime = 0.62\nj0 = 2\n"
                   "Jmax = 8\nlambda0 = 1e-3\nupsilon = 0.2\n"
                   "model = quadratic\n\n[scenario]\nnpoints = 4\n"
                   "lambda = 0.2\ngprofile = cosine\ntol = 1e-3\n")
    blobs = []
    for run in (1, 2):
        out = tmp_path / f"sweep_{run}.csv"
        rc = cli.main(["jump-sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    _report(9, f"partition of unity worst {worst:.1e} <= 1e-12; CLI output "
               f"byte-identical across two runs")
