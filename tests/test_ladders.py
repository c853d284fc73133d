import itertools
import math
import random
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d import ladders as ld
from fermi2d import selfenergy as se
from fermi2d.blocks import BlockKernel
from fermi2d.kernels import (INT, Kernel4, _apply_per_axis, antisymmetrize,
                             is_inversion_symmetric, make_grid, random_kernel,
                             reduce_ph, value_ph, zero_kernel)
from fermi2d.scales import HypothesisViolationError, ScaleInterval
from fermi2d.sectors import build_fermi_curve


def quadratic_model_cached():
    from fermi2d.scales import quadratic_model
    return quadratic_model()


def overlap_grid(disp, th=0.45, radii=(0.21, 0.105), e_frac=0.3):
    """Momentum pairs with |i k0 - e| equal to the given radii, sharing one
    spatial momentum direction (so few sectors are admissible)."""
    rad = float(disp.fermi_radius(th))
    pts = []
    for r_t in radii:
        e_off = e_frac * r_t
        k0 = math.sqrt(r_t ** 2 - e_off ** 2)
        drad = e_off / rad
        pts.append((k0, (rad + drad) * math.cos(th), (rad + drad) * math.sin(th)))
    return make_grid(pts)


@pytest.fixture(scope="module")
def scheme(params, disp):
    curve = build_fermi_curve(disp)
    grid = overlap_grid(disp)
    L = curve.length
    return ld.build_scheme(params, disp, grid, [2, 3], nspin=1,
                           sector_lengths={2: L / 3, 3: L / 5})


@pytest.fixture(scope="module")
def family(scheme, params):
    rng = np.random.default_rng(7)
    fam = ld.LadderFamily(F={}, p={})
    for i in (2, 3):
        fam.F[i] = BlockKernel.from_dense(
            random_kernel(scheme.space(i), rng, amp=1e-5, antisym=True))
    pfam = se.linear_p_family(params, imin=2, imax=3, amp0=5e-3)
    fam.p = pfam.p
    return fam


def test_bubble_is_symmetric_in_lines(scheme):
    A = lambda k0, kx, ky: 0.7 + 0.2j
    B = lambda k0, kx, ky: 0.3 - 0.5j
    sp = scheme.space(2)
    b1 = ld.bubble(sp, A, B)
    b2 = ld.bubble(sp, B, A)
    rng = np.random.default_rng(0)
    r = random_kernel(sp, rng, amp=1e-2, antisym=True)
    out1 = ld.compose(r.values, b1, r.values)
    out2 = ld.compose(r.values, b2, r.values)
    assert np.abs(out1 - out2).max() <= 1e-18


def test_bubble_pair_symmetry(scheme):
    # P(x1, x2; x3, x4) = P(x2, x1; x4, x3) on the explicit pair matrix
    sp = scheme.space(2)
    bub = ld.bubble(sp, lambda *k: 0.4 + 0.1j, lambda *k: -0.2 + 0.9j)
    ii = sp.field_indices(INT)
    n = len(ii)
    pair = np.einsum("wp,xq->wxpq", bub.line_a, bub.line_b) \
        + np.einsum("wp,xq->wxpq", bub.line_b, bub.line_a)
    assert np.abs(pair - pair.transpose(1, 0, 3, 2)).max() == 0.0
    assert pair.shape == (n, n, n, n)


def test_bubble_equal_lines_doubles(scheme):
    sp = scheme.space(2)
    A = lambda k0, kx, ky: 0.5 - 0.3j
    bub = ld.bubble(sp, A, A)
    single = ld.line_matrix(sp, ld.propagator_line_values(sp, A))
    assert np.allclose(bub.line_a, single)
    rng = np.random.default_rng(1)
    r = random_kernel(sp, rng, amp=1e-2, antisym=True)
    got = ld.compose(r.values, bub, r.values)
    ii = sp.field_indices(INT)
    lv = r.values[:, :, ii, :][:, :, :, ii]
    rv = r.values[ii][:, ii]
    manual = 2.0 * np.einsum("abwx,wp,xq,pqcd->abcd", lv, single, single, rv,
                             optimize=True)
    assert np.abs(got - manual).max() <= 1e-18


def test_line_values_match_the_per_point_loop(scheme, family):
    # one covariance call on the grid arrays gives, bit for bit, the values
    # of one call per grid point; a constant propagator broadcasts
    g, cov = scheme.grid, scheme.scales.covariance
    nonzero = 0
    for j in (2, 3):
        for interval in (ScaleInterval.at(j), ScaleInterval.ge(j + 1)):
            prop = partial(cov, interval, family.u_below(j))
            loop = np.array([prop(*g.values(i)) for i in range(len(g))],
                            dtype=complex)
            nonzero += np.count_nonzero(loop)
            assert np.array_equal(
                ld.propagator_line_values(scheme.space(j), prop), loop)
    assert nonzero > 0
    assert np.array_equal(
        ld.propagator_line_values(scheme.space(2), lambda *k: 0.5 - 0.3j),
        np.full(len(g), 0.5 - 0.3j))


def compose_oracle(sp, left, right, av, bv):
    """left . C(A,B) . right by brute force over explicit leg loops; a line
    joins internal legs of equal momentum and spin, of opposite bars on
    directed spaces."""
    def joined(g, h):
        # g, h: (field, k, spin, bar, sector) rows of the leg table
        return g[1] == h[1] and g[2] == h[2] \
            and (not sp.directed or g[3] != h[3])

    ii = list(sp.field_indices(INT))
    legs = sp.leg_table.tolist()
    oracle = np.zeros(left.shape, dtype=complex)
    for w, x in itertools.product(ii, repeat=2):
        gw, gx = legs[w], legs[x]
        for p, q in itertools.product(ii, repeat=2):
            gp, gq = legs[p], legs[q]
            line = 0.0
            if joined(gw, gp) and joined(gx, gq):
                line = av[gw[1]] * bv[gx[1]] + bv[gw[1]] * av[gx[1]]
            if line != 0.0:
                oracle += line * np.multiply.outer(
                    left[:, :, w, x], right[p, q, :, :])
    return oracle


def test_compose_matches_bruteforce():
    # dedicated small space so the explicit-loop oracle stays cheap
    from fermi2d.kernels import KernelSpace

    grid = overlap_grid(quadratic_model_cached())
    sp = KernelSpace(grid, nspin=1, nsec=1)
    rng = np.random.default_rng(2)
    r1 = random_kernel(sp, rng, amp=1e-2, antisym=True)
    r2 = random_kernel(sp, rng, amp=1e-2, antisym=True)
    av = ld.propagator_line_values(sp, lambda *k: 0.3 + 0.4j)
    bv = ld.propagator_line_values(sp, lambda *k: -0.1 + 0.2j)
    bub = ld.BubbleProp(space=sp, line_a=ld.line_matrix(sp, av),
                        line_b=ld.line_matrix(sp, bv))
    got = ld.compose(r1.values, bub, r2.values)
    oracle = compose_oracle(sp, r1.values, r2.values, av, bv)
    assert np.abs(got - oracle).max() <= 1e-16


@settings(max_examples=15, deadline=None)
@given(data=st.data(), directed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_compose_matches_bruteforce_on_random_spaces(small_spaces, data,
                                                    directed, seed):
    sp = data.draw(small_spaces(directed))
    rng = np.random.default_rng(seed)
    r1, r2 = (random_kernel(sp, rng, conserving=False, number_conserving=False)
              for _ in range(2))
    # line values per grid point; a zero value empties rows of the bubble
    n = len(sp.grid)
    av, bv = ((rng.standard_normal(n) + 1j * rng.standard_normal(n))
              * rng.integers(0, 2, n) for _ in range(2))
    bub = ld.BubbleProp(space=sp, line_a=ld.line_matrix(sp, av),
                        line_b=ld.line_matrix(sp, bv))
    got = ld.compose(r1.values, bub, r2.values)
    oracle = compose_oracle(sp, r1.values, r2.values, av, bv)
    assert np.abs(got - oracle).max() <= 1e-13 * max(1.0, np.abs(oracle).max())


@settings(max_examples=15, deadline=None)
@given(data=st.data(), directed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_step_matches_compose_on_random_spaces(small_spaces, data,
                                                     directed, seed):
    # one stacked chain step per block shape equals the dense compose on
    # support kernels, whose result lies on the support; the steps are
    # built on the rung times 2^-20, which the certificate passes, and
    # scaled back, both exactly
    sp = data.draw(small_spaces(directed))
    rng = np.random.default_rng(seed)
    left, rung = random_kernel(sp, rng), random_kernel(sp, rng)
    n = len(sp.grid)
    av, bv = ((rng.standard_normal(n) + 1j * rng.standard_normal(n))
              * rng.integers(0, 2, n) for _ in range(2))
    bub = ld.BubbleProp(space=sp, line_a=ld.line_matrix(sp, av),
                        line_b=ld.line_matrix(sp, bv))
    chain = BlockKernel.from_dense(left).values
    small = 2.0 ** -20 * BlockKernel.from_dense(rung)
    got = BlockKernel.zeros(sp)
    for gather, U, J in ld._chain_steps(small, bub):
        got.values[gather] = 2.0 ** 20 * ld._chain_step(chain[gather], U, J)
    got = got.dense()
    want = ld.compose(left.values, bub, rung.values)
    assert np.abs(got.values - want).max() \
        <= 1e-13 * max(1.0, np.abs(want).max())


@settings(max_examples=15, deadline=None)
@given(data=st.data(), lmax=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_directed_ph_sum_is_the_undirected_series(small_spaces, data, lmax,
                                                  seed):
    # the identity the undirected recursion rests on: for an antisymmetric
    # rung w, the directed ph sum 2 sum_l (-1)^l 12^(l+1) L_l(w)^ph of the
    # dense compose chain is the series sum_l (-1)^l L_l(24 w^ph) over the
    # undirected bubble of the same lines; w is small enough for both
    # series to converge
    sp = data.draw(small_spaces(True))
    rng = np.random.default_rng(seed)
    w = random_kernel(sp, rng, amp=1e-5, antisym=True)
    n = len(sp.grid)
    av, bv = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
              for _ in range(2))
    dbub, ubub = (ld.BubbleProp(s, ld.line_matrix(s, av), ld.line_matrix(s, bv))
                  for s in (sp, sp.undirected()))
    want = ld._directed_ph_series(w, dbub, lmax)
    got = ld._ladder_series(24.0 * BlockKernel.from_dense(reduce_ph(w)), ubub,
                            lmax)
    assert got.space is want.space
    assert np.abs(got.dense().values - want.values).max() \
        <= 1e-13 * want.max_abs()


def test_directed_and_undirected_certificates_agree(scheme):
    # the directed ph chain of an antisymmetric rung w steps the bar-count-1
    # pairs of its dense pair matrix, X -> X B w, with term ratio 12: its
    # radius is that of the series of 24 w^ph, which the certificate
    # computes per pair block; a rung of unit size makes it diverge, and the
    # message gives the radius
    sp = scheme.space(3)
    w = antisymmetrize(BlockKernel.random(sp, random.Random(15)).dense())
    dbub = scheme.scale_bubble(3, None)
    # the dense step on the internal pairs with one bar of each kind: B
    # maps them onto themselves and w keeps the bar count of a pair
    n, ii = sp.n, sp.field_indices(INT)
    pairs = (ii[:, None] * n + ii).ravel()
    bars = sp.leg_bar[ii]
    ph = np.flatnonzero((bars[:, None] + bars).ravel() == 1)
    B = np.kron(dbub.line_a, dbub.line_b) + np.kron(dbub.line_b, dbub.line_a)
    W = w.values.reshape(n * n, n * n)
    step = B[np.ix_(ph, ph)] @ W[np.ix_(pairs[ph], pairs[ph])]
    directed = 12.0 * np.abs(np.linalg.eigvals(step)).max()
    ubub = scheme.scale_bubble(3, None, directed=False)
    with pytest.raises(ld.LadderDivergenceError) as exc:
        ld._ladder_series(24.0 * BlockKernel.from_dense(reduce_ph(w)), ubub, 4)
    assert ubub.label in str(exc.value)
    radius = float(re.search(r"radius (\S+) >= 1", str(exc.value)).group(1))
    assert directed > 1.0
    assert radius == pytest.approx(directed, rel=1e-3)


@settings(max_examples=6, deadline=None)
@given(directed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_resectorize_blocks_match_dense(scheme, directed, seed):
    # the per-block R (x) R products equal R applied on each leg axis, and
    # the dense result lies on the scale-3 support
    f = random_kernel(scheme.space(2, directed), np.random.default_rng(seed))
    R = scheme._resect_matrix(2, 3, directed)
    want = Kernel4(scheme.space(3, directed), _apply_per_axis(f.values, [R] * 4))
    got = scheme.resectorize(BlockKernel.from_dense(f), 2, 3)
    BlockKernel.from_dense(want)
    assert np.abs(got.dense().values - want.values).max() \
        <= 1e-14 * want.max_abs()


@pytest.fixture(scope="module")
def demo_scheme(params, disp):
    """The scheme of ladder-demo --grid 2 --scales 3."""
    from fermi2d import cli

    return cli._demo_scheme_and_family(params, disp, 2, 0, [2, 3, 4])[0]


@pytest.mark.parametrize("directed", [True, False])
def test_resect_column_factors_are_row_factors(scheme, demo_scheme, directed):
    # the cached column factor of a block is the row factor of the block
    # whose row pairs are its column pairs, and equals R (x) R on its
    # column pairs; undirected blocks are their own column block
    for sch, pairs in ((scheme, [(2, 3)]),
                       (demo_scheme, [(2, 3), (2, 4), (3, 4)])):
        for i, j in pairs:
            R = sch._resect_matrix(i, j, directed)
            src = sch.space(i, directed).pair_blocks
            dst = sch.space(j, directed).pair_blocks
            if not directed:
                assert np.array_equal(dst.col_rows, np.arange(len(dst)))
            entries = sch._resect_blocks(i, j, directed)
            row_factor = {t: rows for t, _, rows, _ in entries}
            for t, u, _, cols in entries:
                assert cols is row_factor[dst.col_rows[t]]
                a, b = np.divmod(dst.cols[t], dst.n)
                c, d = np.divmod(src.cols[u], src.n)
                assert np.array_equal(cols, R[np.ix_(a, c)] * R[np.ix_(b, d)])


def test_ladder_zero_rung(scheme):
    sp = scheme.space(2)
    bub = ld.bubble(sp, lambda *k: 1.0, lambda *k: 1.0)
    for lmax in (1, 2, 3):
        assert ld._ladder_series(BlockKernel.zeros(sp), bub,
                                 lmax).max_abs() == 0.0


def test_ladder_inversion_symmetry_undirected(scheme):
    # inversion-symmetric undirected rungs compose to inversion-symmetric
    # ladders through the ph-reduced bubble
    und = scheme.space(2, directed=False)
    rng = np.random.default_rng(3)
    rung = BlockKernel.from_dense(reduce_ph(random_kernel(
        scheme.space(2), rng, amp=1e-2, antisym=True)))
    assert rung.is_inversion_symmetric()
    bub = ld.bubble(und, lambda *k: 0.2 + 0.1j, lambda *k: 0.5 - 0.4j)
    # L_2: three rungs, two bubbles, the only term of the lmax = 2 sum
    # that the lmax = 1 sum lacks
    lad = ld._ladder_series(rung, bub, 2) - ld._ladder_series(rung, bub, 1)
    assert lad.is_inversion_symmetric()
    assert is_inversion_symmetric(lad.dense())


def test_scalar_recursion_oracle():
    # one momentum pair, no spins, one sector: the undirected composition
    # reduces to the scalar recursion with bubble coefficient 2 A B
    grid = make_grid([(0.2, 1.0, 1.0)])
    from fermi2d.kernels import KernelSpace
    und = KernelSpace(grid, nspin=1, nsec=1, directed=False)
    ii = und.field_indices(INT)
    av, bv = 0.7 + 0.2j, 0.3 - 0.5j
    bub = ld.bubble(und, lambda *k: av, lambda *k: bv)
    r = zero_kernel(und)
    rv = 0.11 - 0.07j
    # one all-internal diagonal entry: scalar model
    r.values[ii[0], ii[0], ii[0], ii[0]] = rv
    vals = r.values
    c = 2 * av * bv
    for ell in range(1, 4):
        vals = ld.compose(vals, bub, r.values)
        scalar = rv * (c * rv) ** ell
        assert abs(vals[ii[0], ii[0], ii[0], ii[0]] - scalar) <= 1e-15


def test_iterated_trivial_cases(scheme, family, params):
    # up to scale 1 every sum is empty
    out = ld.iterated_ladder(scheme, params.j0, family, lmax=3)
    assert out.max_abs() == 0.0
    # zero rung family gives zero at every scale
    zfam = ld.LadderFamily(
        F={i: BlockKernel.zeros(scheme.space(i)) for i in (2, 3)}, p=family.p)
    out = ld.iterated_ladder(scheme, 4, zfam, lmax=3)
    assert out.max_abs() == 0.0


def test_compound_equals_iterated_without_counterterms(scheme, family):
    fam0 = ld.LadderFamily(F=family.F, p={})
    it = ld.iterated_ladder(scheme, 4, fam0, lmax=3)
    comp = ld.compound_ladder(scheme, 4, None, family.F, lmax=3)
    assert np.abs(it.values - comp.values).max() <= 1e-18
    assert it.max_abs() > 0.0


def test_compound_matches_closed_form(scheme, family):
    v = family.v_total()
    comp = ld.compound_ladder(scheme, 4, v, family.F, lmax=4)
    closed = ld.ladder_closed_form(scheme, 4, v, family.F, lmax=4)
    scale = max(comp.max_abs(), 1e-300)
    assert comp.max_abs() > 0.0
    assert np.abs(comp.values - closed.values).max() <= 1e-12 * scale
    assert comp.is_inversion_symmetric(tol=1e-11)
    assert closed.is_inversion_symmetric(tol=1e-11)


def test_closed_form_zero_family(scheme):
    zF = {i: BlockKernel.zeros(scheme.space(i)) for i in (2, 3)}
    out = ld.ladder_closed_form(scheme, 4, None, zF, lmax=3)
    assert out.max_abs() == 0.0


def test_telescope(scheme, family):
    rep = ld.delta_ladder_telescope(scheme, 4, family, lmax=4)
    scale = max(rep.iterated.max_abs(), 1e-300)
    assert rep.iterated.max_abs() > 0.0
    assert rep.residual <= 1e-12 * scale
    # nonvacuous: the covariance swap actually moves the ladders
    assert max(rep.per_scale_delta_norms.values()) > 1e3 * rep.residual
    assert rep.iterated.is_inversion_symmetric(tol=1e-11)
    assert rep.compound.is_inversion_symmetric(tol=1e-11)


def test_telescope_zero_counterterms(scheme, family):
    fam0 = ld.LadderFamily(F=family.F, p={})
    rep = ld.delta_ladder_telescope(scheme, 4, fam0, lmax=3)
    assert rep.residual <= 1e-18
    assert max(rep.per_scale_delta_norms.values()) == 0.0


@pytest.mark.parametrize("demo", [False, True])
def test_telescope_halves_are_the_entry_point_recursions(scheme, family,
                                                         params, disp, demo):
    # the telescope writes out both recursions in its own loop: its
    # iterated ladder is iterated_ladder bit for bit, and with no
    # counterterms (every delta_j exactly 0) its compound ladder is the
    # closed form, equal under == (the sign of a zero entry may differ);
    # on this file's scheme and on that of ladder-demo --grid 2 --scales 3
    if demo:
        from fermi2d import cli

        scheme, family = cli._demo_scheme_and_family(params, disp, 2, 0,
                                                     [2, 3, 4])
    jtop = max(family.F) + 1
    rep = ld.delta_ladder_telescope(scheme, jtop, family, lmax=4)
    assert np.array_equal(rep.iterated.values,
                          ld.iterated_ladder(scheme, jtop, family, 4).values)
    rep = ld.delta_ladder_telescope(
        scheme, jtop, ld.LadderFamily(F=family.F, p={}), lmax=4)
    closed = ld.ladder_closed_form(scheme, jtop, None, family.F, 4)
    assert closed.max_abs() > 0.0
    assert np.array_equal(rep.compound.values, closed.values)


def test_delta_norms_decay_for_decaying_family(scheme, params):
    # the scale-j correction is driven by the still-missing counterterms
    # sum_{i >= j} p^(i); for a strongly decaying family it shrinks with j
    rng = np.random.default_rng(12)
    fam = ld.LadderFamily(F={}, p={})
    for i in (2, 3):
        fam.F[i] = BlockKernel.from_dense(
            random_kernel(scheme.space(i), rng, amp=1e-5, antisym=True))

    def make_p(a):
        return lambda k0, kx, ky: 1j * a * k0 / (1.0 + k0 ** 2)

    fam.p = {2: make_p(5e-3), 3: make_p(5e-6)}
    rep = ld.delta_ladder_telescope(scheme, 4, fam, lmax=3)
    assert rep.per_scale_delta_norms[3] < rep.per_scale_delta_norms[2]
    assert rep.per_scale_delta_norms[2] > 0.0


def test_ladder_sum_allocates_no_dense_kernel(scheme, family):
    # one ladder sum on the blocks peaks below one dense kernel, so no
    # n^2 x n^2 pair matrix is built along the chain
    w = family.F[3]
    n = w.space.n
    rung = 24.0 * ld._ph_rung(w)

    def ladder_sum():
        return ld._ladder_series(
            rung, scheme.scale_bubble(3, None, directed=False), 4)

    ladder_sum()  # builds the cached block tables
    tracemalloc.start()
    try:
        ladder_sum()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n ** 4 * 16


def test_telescope_allocates_no_dense_kernel(scheme, family, monkeypatch):
    # on a family of ph rungs, as ladder-demo's, the telescope and both
    # inversion checks never leave the support, and peak below one dense
    # kernel of the directed space (a directed rung is read through the
    # dense reduce_ph)
    n = scheme.space(3).n
    ph_family = ld.LadderFamily(
        F={i: ld._ph_rung(f) for i, f in family.F.items()}, p=family.p)
    monkeypatch.setattr(BlockKernel, "dense",
                        lambda self: pytest.fail("dense kernel built"))

    def telescope():
        rep = ld.delta_ladder_telescope(scheme, 4, ph_family, lmax=4)
        return (rep.iterated.is_inversion_symmetric(tol=1e-11)
                and rep.compound.is_inversion_symmetric(tol=1e-11))

    assert telescope()  # builds the cached block and resectorization tables
    tracemalloc.start()
    try:
        telescope()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n ** 4 * 16


@pytest.fixture(scope="module")
def diverging_F(scheme):
    rng = np.random.default_rng(8)
    return {i: BlockKernel.from_dense(
                random_kernel(scheme.space(i), rng, amp=0.5, antisym=True))
            for i in (2, 3)}


def test_divergence_guard(scheme, diverging_F):
    with pytest.raises(ld.LadderDivergenceError):
        ld.compound_ladder(scheme, 4, None, diverging_F, lmax=8)


def test_closed_form_divergence_guard(scheme, diverging_F):
    # the closed form runs the same series loop, guard included
    with pytest.raises(ld.LadderDivergenceError):
        ld.ladder_closed_form(scheme, 4, None, diverging_F, lmax=8)


@pytest.mark.parametrize("entry", ["iterated", "closed_form", "telescope"])
def test_every_entry_point_checks_small_u(scheme, family, entry):
    # as test_compound_small_v_check: the scale bubbles are built through
    # the covariance, which raises when |u| > |i k0 - e|/2 on a shell
    # support; p^(2) = 10 makes u_3 and v that large everywhere
    def big(k0, kx, ky):
        return 10.0

    fam = ld.LadderFamily(F=family.F, p={2: big})
    calls = {
        "iterated": lambda: ld.iterated_ladder(scheme, 4, fam, lmax=2),
        "closed_form": lambda: ld.ladder_closed_form(scheme, 4, big, family.F,
                                                     lmax=2),
        "telescope": lambda: ld.delta_ladder_telescope(scheme, 4, fam, lmax=2),
    }
    with pytest.raises(HypothesisViolationError, match="support of nu"):
        calls[entry]()


def test_compound_small_v_check(scheme, family):
    def v_big(k0, kx, ky):
        return 10.0

    with pytest.raises(HypothesisViolationError):
        ld.compound_ladder(scheme, 4, v_big, family.F, lmax=2)


def test_resectorize_preserves_totals(scheme):
    # summing over fine sectors undoes the refinement of internal legs
    rng = np.random.default_rng(10)
    f = random_kernel(scheme.space(2), rng, amp=1.0, antisym=True)
    fine = scheme.resectorize(BlockKernel.from_dense(f), 2, 3).dense()
    # compare sector-summed internal blocks: contract each internal axis
    # over sectors at fixed (k, spin, bar)
    def sector_summed(kern):
        sp = kern.space
        nbar = 2
        nval = len(sp.grid) * sp.nspin * nbar
        T = np.zeros((nval + nval, sp.n))  # ext block + summed int block
        for i, (field, k, spin, bar, _) in enumerate(sp.leg_table.tolist()):
            base = (k * sp.nspin + spin) * nbar + bar
            if field == INT:
                T[nval + base, i] = 1.0
            else:
                T[base, i] = 1.0
        out = kern.values
        for ax in range(4):
            out = np.moveaxis(np.tensordot(T, out, axes=(1, ax)), 0, ax)
        return out

    assert np.abs(sector_summed(f) - sector_summed(fine)).max() <= 1e-12


def test_telescope_builds_each_chain_once(scheme, family, monkeypatch):
    # per scale: the iterated chain, the v-swap chain on the same w_j
    # and the compound chain, lmax steps each, one chain product per block
    # shape and step; at j0 the compound ladder reuses the v-swap chain, so
    # 5 chains over the 2 scales
    calls = []
    chain_step = ld._chain_step

    def counting(chain, U, J):
        calls.append(1)
        return chain_step(chain, U, J)

    monkeypatch.setattr(ld, "_chain_step", counting)
    ld.delta_ladder_telescope(scheme, 4, family, lmax=4)
    nshapes = len(scheme.space(2, directed=False).pair_blocks.shapes)
    assert len(calls) == (2 * 3 - 1) * 4 * nshapes


def test_ladder_sum_calls_do_not_grow_with_the_blocks(params, disp,
                                                      monkeypatch):
    # one ladder sum makes one eigvals call and lmax chain products per
    # block shape, however many blocks share the shape: the ladder-demo
    # --scales 3 scheme has 19 pair blocks at --grid 1 and 163 at --grid 3,
    # in 3 shapes each
    from fermi2d import cli

    calls = {"eigvals": 0, "steps": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvals",
                        counting("eigvals", np.linalg.eigvals))
    monkeypatch.setattr(ld, "_chain_step", counting("steps", ld._chain_step))
    counts = []
    for gridn, nblocks in ((1, 19), (3, 163)):
        scheme, fam = cli._demo_scheme_and_family(params, disp, gridn, 0,
                                                  [2, 3, 4])
        assert len(scheme.space(2, directed=False).pair_blocks) == nblocks
        calls.update(eigvals=0, steps=0)
        ld._ladder_series(24.0 * fam.F[2],
                          scheme.scale_bubble(2, None, directed=False), 4)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["steps"] == 4 * counts[0]["eigvals"] > 0


@pytest.mark.parametrize("nscales", [2, 3])
def test_telescope_computes_each_ladder_sum_once(params, disp, monkeypatch,
                                                 nscales):
    # the ladder-demo telescope over s scales runs on undirected kernels
    # only: no antisymmetrize, value_ph or directed resectorize, and
    # 3 s - 1 ladder sums, since the compound ladder takes its j0 sum from
    # the v-swap of delta_j0.  Each scale step resectorizes only from the
    # scale before it: the rung sum W_j, the two ladders and D_j once each
    from fermi2d import cli

    scales_list = list(range(params.j0, params.j0 + nscales))
    scheme, fam = cli._demo_scheme_and_family(params, disp, 1, 0, scales_list)
    calls = {"antisym": 0, "value_ph": 0, "sums": 0, "directed": 0,
             "undirected": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    resectorize = ld.LadderScheme.resectorize

    def counting_resect(self, kern, i, j):
        if i != j:
            calls["directed" if kern.space.directed else "undirected"] += 1
        return resectorize(self, kern, i, j)

    monkeypatch.setattr(ld, "antisymmetrize",
                        counting("antisym", ld.antisymmetrize))
    monkeypatch.setattr(ld, "value_ph", counting("value_ph", ld.value_ph))
    monkeypatch.setattr(ld, "_ladder_series",
                        counting("sums", ld._ladder_series))
    monkeypatch.setattr(ld.LadderScheme, "resectorize", counting_resect)
    ld.delta_ladder_telescope(scheme, scales_list[-1] + 1, fam, lmax=4)
    s = nscales
    assert calls == {"antisym": 0, "value_ph": 0, "sums": 3 * s - 1,
                     "directed": 0, "undirected": 4 * (s - 1)}
    assert set(scheme._resect_cache) \
        == {(j, j + 1, False) for j in scales_list[:-1]}


def test_telescope_refines_one_kernel_at_a_time(params, disp, monkeypatch):
    # each scale step refines W, it, comp and D one after another, so each
    # scale-(j - 1) vector is freed as its refinement lands: as each
    # refinement returns, the step holds at most one support vector beyond
    # those it started with, where refining all four before freeing any
    # holds four
    from fermi2d import cli

    scheme, fam = cli._demo_scheme_and_family(params, disp, 1, 0, [2, 3, 4])
    ld.delta_ladder_telescope(scheme, 5, fam, lmax=4)  # builds the caches
    size = 16 * scheme.space(2, directed=False).pair_blocks.size
    resectorize = ld.LadderScheme.resectorize
    start, held = {}, {}

    def traced(self, kern, i, j):
        if i != j:
            start.setdefault(j, tracemalloc.get_traced_memory()[0])
        out = resectorize(self, kern, i, j)
        if i != j:
            held[j] = max(held.get(j, 0),
                          tracemalloc.get_traced_memory()[0] - start[j])
        return out

    monkeypatch.setattr(ld.LadderScheme, "resectorize", traced)
    tracemalloc.start()
    try:
        ld.delta_ladder_telescope(scheme, 5, fam, lmax=4)
    finally:
        tracemalloc.stop()
    assert sorted(held) == [3, 4]
    assert all(0 < h < 1.5 * size for h in held.values())


def test_refinement_composes_and_commutes_with_ph_rung(scheme, demo_scheme):
    # the identities the running sums rest on: the refinement maps
    # compose, R(2 -> 4) = R(3 -> 4) R(2 -> 3), because the scale-3 hats
    # are a partition of unity; and R commutes with the antisymmetrized ph
    # value and with reduce_ph, since it acts alike on every leg and keeps
    # the bars (on the dense kernels of the smaller scheme)
    sch = demo_scheme
    for directed in (True, False):
        R = sch._resect_matrix(3, 4, directed) @ sch._resect_matrix(2, 3,
                                                                   directed)
        assert np.abs(sch._resect_matrix(2, 4, directed) - R).max() <= 1e-15

    def ph_value(kern, j):
        return BlockKernel.from_dense(
            antisymmetrize(value_ph(kern.dense(), scheme.space(j))))

    def ph_entries(kern):
        return BlockKernel.from_dense(reduce_ph(kern.dense()))

    rng = random.Random(14)
    d = BlockKernel.random(scheme.space(2, directed=False), rng)
    rung_then_refine = scheme.resectorize(ph_value(d, 2), 2, 3)
    refine_then_rung = ph_value(scheme.resectorize(d, 2, 3), 3)
    assert np.abs(rung_then_refine.values - refine_then_rung.values).max() \
        <= 1e-15 * refine_then_rung.max_abs()
    w = BlockKernel.random(scheme.space(2), rng)
    reduce_then_refine = scheme.resectorize(ph_entries(w), 2, 3)
    refine_then_reduce = ph_entries(scheme.resectorize(w, 2, 3))
    assert reduce_then_refine.space is refine_then_reduce.space
    assert np.abs(reduce_then_refine.values
                  - refine_then_reduce.values).max() \
        <= 1e-15 * refine_then_reduce.max_abs()


def test_telescope_builds_each_bubble_once(scheme, family, monkeypatch):
    # per scale: the bubble of the running u_j and the bubble of v, which
    # the v-swap chain and the compound ladder share
    calls = []
    scale_bubble = ld.LadderScheme.scale_bubble

    def counting(self, j, *args, **kwargs):
        calls.append(j)
        return scale_bubble(self, j, *args, **kwargs)

    monkeypatch.setattr(ld.LadderScheme, "scale_bubble", counting)
    ld.delta_ladder_telescope(scheme, 4, family, lmax=4)
    assert sorted(calls) == [2, 2, 3, 3]
