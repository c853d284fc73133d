import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d.kernels import (EXT, EXTP, INT, Kernel4, KernelSpace,
                             _conversion_matrix, antisymmetrize,
                             component_mask, conservation_mask,
                             extract_component, flip, is_inversion_symmetric,
                             make_grid, number_conserving_mask, pi_collapse,
                             random_kernel, reduce_ph, reduce_pp, s_kappa,
                             sct_prime, sector_norm_p, shear, shear_prime,
                             value_ph, value_pp, zero_kernel)
from fermi2d.selfenergy import sup_derivatives

GRID = make_grid([(0.25, 1.2, 0.55)])


def dspace(nspin=2, nsec=1):
    return KernelSpace(GRID, nspin=nspin, nsec=nsec)


def brute_force_sign(perm):
    # independent parity oracle: count explicit transpositions of a sort
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(len(perm) - 1):
            if perm[j] > perm[j + 1]:
                perm[j], perm[j + 1] = perm[j + 1], perm[j]
                sign = -sign
    return sign


def test_antisymmetrize_projection():
    rng = np.random.default_rng(1)
    sp = dspace()
    f = random_kernel(sp, rng)
    af = antisymmetrize(f)
    again = antisymmetrize(af)
    assert np.abs(again.values - af.values).max() <= 1e-13
    # projection never increases the sup norm
    assert af.max_abs() <= f.max_abs() + 1e-12


def test_antisymmetrize_kills_symmetric_part():
    # a kernel symmetric under one transposition has no component along
    # the antisymmetric projection
    rng = np.random.default_rng(2)
    sp = dspace()
    f = random_kernel(sp, rng)
    sym = Kernel4(sp, f.values + f.values.transpose(1, 0, 2, 3))
    assert antisymmetrize(sym).max_abs() <= 1e-13 * sym.max_abs()


def signed_permutation_sum(v):
    # reference antisymmetrizer: the explicit signed average over all 4!
    # axis permutations
    return sum(brute_force_sign(p) * v.transpose(p)
               for p in itertools.permutations(range(4))) / 24.0


@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_antisymmetrize_matches_permutation_sum(small_spaces, data, seed):
    sp = data.draw(small_spaces())
    f = random_kernel(sp, np.random.default_rng(seed), conserving=False,
                      number_conserving=False)
    # relative to the input: the projection can be far smaller than f (zero
    # when fewer than four legs exist), while the rounding of both sums
    # scales with f
    scale = f.max_abs()
    af = antisymmetrize(f)
    ref = signed_permutation_sum(f.values)
    assert np.abs(af.values - ref).max() <= 1e-15 * scale
    again = antisymmetrize(af)
    assert np.abs(again.values - af.values).max() <= 1e-15 * scale


@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_reconstruction_and_flip_identity_on_random_spaces(small_spaces, data,
                                                          seed):
    # the identities of test_reduction_value_reconstruction and
    # test_flip_average_normalization on random small spaces
    sp = data.draw(small_spaces())
    und = sp.undirected()
    rng = np.random.default_rng(seed)
    f = random_kernel(sp, rng, antisym=True)
    rec = value_pp(reduce_pp(f), sp).values + value_ph(reduce_ph(f), sp).values
    assert np.abs(rec - f.values).max() <= 1e-13
    L = random_kernel(und, rng, conserving=False, number_conserving=False)
    L = Kernel4(und, 0.5 * (L.values + L.values.transpose(3, 2, 1, 0)))
    lhs = reduce_ph(antisymmetrize(value_ph(L, sp)), und).values
    rhs = (L.values + flip(L).values) / 3.0
    assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())


def test_reduction_value_reconstruction():
    rng = np.random.default_rng(3)
    sp = dspace()
    for _ in range(10):
        f = random_kernel(sp, rng, antisym=True)
        rec = value_pp(reduce_pp(f), sp).values + value_ph(reduce_ph(f), sp).values
        assert np.abs(rec - f.values).max() <= 1e-13


def test_value_ph_sign_pattern():
    # the (1,0,1,0) pattern carries -f'(u2, u1, u3, u4)
    rng = np.random.default_rng(4)
    sp = dspace()
    und = sp.undirected()
    fp = random_kernel(und, rng, conserving=False,
                       number_conserving=False)
    emb = value_ph(fp, sp)
    i0 = sp.iota(0, und)
    i1 = sp.iota(1, und)
    got = emb.values[np.ix_(i1, i0, i1, i0)]
    want = -fp.values.transpose(1, 0, 2, 3)
    assert np.abs(got - want).max() == 0.0


def test_reductions_of_zero_and_pattern_mismatch():
    sp = dspace()
    und = sp.undirected()
    z = zero_kernel(sp)
    assert reduce_ph(z, und).max_abs() == 0.0
    # kernel supported only on the pp pattern has zero ph reduction
    rng = np.random.default_rng(5)
    fp = random_kernel(und, rng, conserving=False, number_conserving=False)
    pp_only = value_pp(fp, sp)
    assert reduce_ph(pp_only, und).max_abs() == 0.0


def test_flip_involution_and_zero():
    rng = np.random.default_rng(6)
    sp = dspace()
    f = random_kernel(sp, rng)
    assert np.abs(flip(flip(f)).values - f.values).max() == 0.0
    assert flip(zero_kernel(sp)).max_abs() == 0.0


def test_flip_preserves_inversion_symmetry():
    rng = np.random.default_rng(7)
    und = dspace().undirected()
    L = random_kernel(und, rng, conserving=False, number_conserving=False)
    L = Kernel4(und, 0.5 * (L.values + L.values.transpose(3, 2, 1, 0)))
    assert is_inversion_symmetric(L)
    assert is_inversion_symmetric(flip(L))


def test_inversion_symmetry_checks():
    rng = np.random.default_rng(8)
    sp = dspace()
    und = sp.undirected()
    # ph reduction of an antisymmetric kernel is inversion symmetric
    f = random_kernel(sp, rng, antisym=True)
    assert is_inversion_symmetric(reduce_ph(f, und))
    # a generic kernel is not
    g = random_kernel(und, rng, conserving=False, number_conserving=False)
    assert not is_inversion_symmetric(g)


def test_flip_average_normalization():
    rng = np.random.default_rng(9)
    sp = dspace()
    und = sp.undirected()
    for _ in range(5):
        L = random_kernel(und, rng, conserving=False, number_conserving=False)
        L = Kernel4(und, 0.5 * (L.values + L.values.transpose(3, 2, 1, 0)))
        lhs = reduce_ph(antisymmetrize(value_ph(L, sp)), und).values
        rhs = (L.values + flip(L).values) / 3.0
        assert np.abs(lhs - rhs).max() <= 1e-13 * max(1.0, np.abs(rhs).max())


def _table_fn(grid, rng):
    table = rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))
    lookup = {(grid.k0[i], grid.kx[i], grid.ky[i]): table[i]
              for i in range(len(grid))}

    def B(k0, kx, ky):
        return lookup[(k0, kx, ky)]

    return B


def test_shear_zero_is_identity():
    rng = np.random.default_rng(10)
    sp = dspace(nspin=1, nsec=2)
    f = random_kernel(sp, rng, antisym=True)
    out = shear(f, lambda k0, kx, ky: 0.0)
    assert np.abs(out.values - f.values).max() == 0.0


def test_shear_composition():
    rng = np.random.default_rng(11)
    sp = dspace(nspin=1, nsec=2)
    B1 = _table_fn(GRID, np.random.default_rng(21))
    B2 = _table_fn(GRID, np.random.default_rng(22))

    def B12(k0, kx, ky):
        return B1(k0, kx, ky) * B2(k0, kx, ky)

    for _ in range(5):
        f = random_kernel(sp, rng, antisym=True)
        lhs = shear(f, B12)
        rhs = pi_collapse(sct_prime(shear_prime(f, B1), B2), sp)
        scale = max(lhs.max_abs(), 1.0)
        assert np.abs(lhs.values - rhs.values).max() <= 1e-13 * scale


def test_sct_scales_external_legs():
    # sct_prime multiplies every primed external leg by B(k) and leaves the
    # unprimed external and the internal legs alone
    rng = np.random.default_rng(12)
    sp = dspace(nspin=1, nsec=1).primed()
    f = random_kernel(sp, rng)
    B = _table_fn(GRID, np.random.default_rng(23))
    out = sct_prime(f, B)
    d = np.ones(sp.n, dtype=complex)
    for i in sp.field_indices(EXTP):
        d[i] = B(*sp.grid.values(sp.leg_table[i, 1]))
    manual = f.values * d[:, None, None, None] * d[None, :, None, None] \
        * d[None, None, :, None] * d[None, None, None, :]
    assert np.abs(out.values - manual).max() == 0.0


def test_s_kappa_extraction_all_components():
    rng = np.random.default_rng(13)
    sp = dspace(nspin=1, nsec=2)
    f = random_kernel(sp, rng, antisym=True)
    B1 = _table_fn(GRID, np.random.default_rng(24))
    fp = shear_prime(f, B1)
    # primed kernels: all 3^4 index vectors, polynomial degree <= 2
    for ivec in itertools.product((-1, 0, 1), repeat=4):
        comp = extract_component(fp, ivec)
        idx = component_mask(fp.space, ivec)
        direct = np.zeros_like(fp.values)
        direct[np.ix_(*idx)] = fp.values[np.ix_(*idx)]
        assert np.abs(comp.values - direct).max() <= 1e-12
    # unprimed kernels: all 2^4 index vectors, degree <= 1
    for ivec in itertools.product((0, 1), repeat=4):
        comp = extract_component(f, ivec)
        idx = component_mask(sp, ivec)
        direct = np.zeros_like(f.values)
        direct[np.ix_(*idx)] = f.values[np.ix_(*idx)]
        assert np.abs(comp.values - direct).max() <= 1e-12


def test_extract_component_matches_fourier_loop():
    # reference: the explicit average of S_kappa over all node combinations
    rng = np.random.default_rng(16)
    sp = dspace(nspin=1, nsec=2)
    fp = shear_prime(random_kernel(sp, rng, antisym=True),
                     _table_fn(GRID, np.random.default_rng(26)))
    nodes = np.exp(2j * np.pi * np.arange(3) / 3)
    for ivec in ((-1, 0, 1, 1), (1, -1, -1, 0), (0, 0, 1, -1)):
        avg = np.zeros_like(fp.values)
        for combo in itertools.product(range(3), repeat=4):
            w = np.prod([nodes[c] ** (ip - 1) for ip, c in zip(ivec, combo)])
            avg += w * s_kappa(fp, [nodes[c] for c in combo]).values
        avg /= 3 ** 4
        keep = np.zeros(avg.shape, dtype=bool)
        keep[np.ix_(*component_mask(fp.space, ivec))] = True
        ref = np.where(keep, avg, 0.0)
        got = extract_component(fp, ivec).values
        assert np.abs(got - ref).max() <= 64 * np.finfo(float).eps \
            * max(1.0, fp.max_abs())


def _full_array_extract(kern, ivec):
    # the full-array form: all four per-axis filters over every entry, then
    # a mask that zeroes everything outside the component block
    sp = kern.space
    nn = 2 - min(sp.fields)
    nodes = np.exp(2j * np.pi * np.arange(nn) / nn)
    out = kern.values
    for ax, ip in enumerate(ivec):
        d = (nodes[:, None] ** ((1 - sp.leg_field) - (1 - ip))).mean(axis=0)
        shape = [1] * 4
        shape[ax] = len(d)
        out = out * d.reshape(shape)
    keep = np.zeros(out.shape, dtype=bool)
    keep[np.ix_(*component_mask(sp, ivec))] = True
    return np.where(keep, out, 0.0)


# the criterion-3 space, and two sectors with a ragged sec_ok
BLOCK_SPACES = [dict(nspin=2, nsec=1),
                dict(nspin=2, nsec=2, sec_ok=np.array([[True, True],
                                                       [True, False]]))]


@pytest.mark.parametrize("kw", BLOCK_SPACES, ids=["criterion-3", "ragged"])
def test_extract_component_on_block_is_bit_identical(kw):
    # filtering the component block alone gives the same products, in the
    # same axis order, as filtering every entry and masking
    sp = KernelSpace(GRID, **kw)
    rng = np.random.default_rng(17)
    fp = shear_prime(random_kernel(sp, rng, antisym=True),
                     _table_fn(GRID, rng))
    for ivec in itertools.product((-1, 0, 1), repeat=4):
        got = extract_component(fp, ivec).values
        assert np.array_equal(got, _full_array_extract(fp, ivec)), ivec


def _tensordot_per_axis(values, mats):
    out = values
    for ax, m in enumerate(mats):
        out = np.moveaxis(np.tensordot(m, out, axes=(1, ax)), 0, ax)
    return out


@pytest.mark.parametrize("kw", BLOCK_SPACES, ids=["criterion-3", "ragged"])
@pytest.mark.parametrize("primed", [False, True])
@pytest.mark.parametrize("directed", [True, False])
def test_find_reads_the_leg_table(kw, primed, directed):
    # the table is sorted with unique rows, find gives every row its own
    # index, and a leg the space does not have gives -1
    sp = KernelSpace(GRID, directed=directed, **kw)
    sp = sp.primed() if primed else sp
    table = sp.leg_table
    assert table.shape == (sp.n, 5)
    assert [tuple(r) for r in table.tolist()] \
        == sorted(set(map(tuple, table.tolist())))
    assert np.array_equal(sp.find(*table.T), np.arange(sp.n))
    assert sp.find(*table[3]) == 3
    missing = [(EXT, 0, 0, 0, 0), (INT, 0, 0, 0, -1),
               (EXT, len(GRID), 0, 0, -1), (EXT, 0, sp.nspin, 0, -1),
               (INT, 0, 0, 0, sp.nsec), (EXT, 0, 0, 2, -1), (2, 0, 0, 0, -1)]
    if not primed:
        missing.append((EXTP, 0, 0, 0, -1))
    if not directed:
        missing.append((EXT, 0, 0, 1, -1))
    if not sp.sec_ok.all():
        s, k = np.argwhere(~sp.sec_ok)[0]
        missing.append((INT, k, 0, 0, s))
    assert np.array_equal(sp.find(*np.array(missing).T),
                          np.full(len(missing), -1))


@pytest.mark.parametrize("kw", BLOCK_SPACES, ids=["criterion-3", "ragged"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_leg_maps_match_tensordot(kw, seed):
    # shear, shear_prime and pi_collapse, _apply_per_axis through the
    # nonzeros of their leg maps, agree with the dense BLAS contraction up
    # to rounding (FMA), and the result is C-contiguous
    sp = KernelSpace(GRID, **kw)
    rng = np.random.default_rng(seed)
    f = random_kernel(sp, rng, antisym=True)
    B = _table_fn(GRID, rng)
    spp = sp.primed()
    fp = shear_prime(f, B)
    P = np.zeros((sp.n, spp.n))
    index = {tuple(leg): i for i, leg in enumerate(sp.leg_table.tolist())}
    for i, (field, k, spin, bar, sector) in enumerate(spp.leg_table.tolist()):
        tgt = (EXT, k, spin, bar, -1) if field == EXTP else \
            (field, k, spin, bar, sector)
        P[index[tgt], i] = 1.0
    for got, src, T in (
            (shear(f, B), f, _conversion_matrix(sp, sp, B, EXT)),
            (fp, f, _conversion_matrix(sp, spp, B, EXTP)),
            (pi_collapse(fp, sp), fp, P)):
        want = _tensordot_per_axis(src.values, [T] * 4)
        assert got.values.flags.c_contiguous
        assert np.abs(got.values - want).max() <= 1e-15 * np.abs(want).max()


def test_norm_sandwich():
    rng = np.random.default_rng(14)
    sp = dspace(nspin=1, nsec=2)
    f = random_kernel(sp, rng, antisym=True)
    fp = shear_prime(f, _table_fn(GRID, np.random.default_rng(25)))
    p = 3
    lower = sector_norm_p(pi_collapse(fp, sp), p)
    middle = sector_norm_p(fp, p)
    rngk = np.random.default_rng(15)
    sup = 0.0
    for _ in range(80):
        kap = np.exp(2j * np.pi * rngk.uniform(size=4))
        sup = max(sup, sector_norm_p(pi_collapse(s_kappa(fp, kap), sp), p))
    assert lower <= middle + 1e-10
    assert middle <= 3 ** 4 * sup + 1e-9


def test_sector_norm_single_entry():
    sp = dspace(nspin=1, nsec=1)
    k = zero_kernel(sp)
    ii = sp.field_indices(INT)
    k.values[ii[0], ii[1], ii[0], ii[1]] = 3.0 - 4.0j
    for p in (0, 1, 2, 3, 4, 5, 6, 7):
        got = sector_norm_p(k, p)
        if 0 <= p <= 4:
            assert abs(got - 5.0) <= 1e-12
        else:
            assert got == 0.0


def test_sector_norm_out_of_range_and_monotone():
    rng = np.random.default_rng(16)
    sp = dspace(nspin=1, nsec=2)
    f = random_kernel(sp, rng, antisym=True)
    # all-internal content contributes nothing above p = 4
    only_int = zero_kernel(sp)
    ii = sp.field_indices(INT)
    only_int.values[np.ix_(ii, ii, ii, ii)] = \
        f.values[np.ix_(ii, ii, ii, ii)]
    assert sector_norm_p(only_int, 7) == 0.0
    # zeroing entries never increases the norm
    g = Kernel4(sp, f.values.copy())
    g.values[0] = 0.0
    assert sector_norm_p(g, 3) <= sector_norm_p(f, 3) + 1e-12


def test_conservation_mask_preserved_by_transforms():
    rng = np.random.default_rng(17)
    sp = dspace(nspin=1, nsec=1)
    mask = conservation_mask(sp) & number_conserving_mask(sp)
    f = random_kernel(sp, rng, antisym=True)
    assert not f.values[~mask].any()
    for out in (antisymmetrize(f), flip(f),
                shear(f, _table_fn(GRID, np.random.default_rng(26)))):
        assert np.abs(out.values[~mask]).max() <= 1e-15


def _gradient_sups(F, steps, max_order):
    # reference: one full np.gradient pass per derivative, the sup taken on
    # the cells |delta| away from every edge
    sups = {}
    for delta in itertools.product(range(max_order + 1), repeat=F.ndim):
        total = sum(delta)
        if total > max_order:
            continue
        D = F
        for ax, d in enumerate(delta):
            for _ in range(d):
                D = np.gradient(D, steps[ax], axis=ax)
        sl = tuple(slice(total, -total) if total else slice(None) for _ in delta)
        sups[delta] = float(np.abs(D[sl]).max())
    return sups


@pytest.mark.parametrize("dtype", [float, complex])
def test_sup_derivatives_matches_np_gradient(dtype):
    rng = np.random.default_rng(11)
    F = rng.normal(size=(9, 8, 7)).astype(dtype)
    if dtype is complex:
        F += 1j * rng.normal(size=F.shape)
    steps = (0.1, 0.25, 0.3)
    assert sup_derivatives(F, steps, 2) == _gradient_sups(F, steps, 2)


def test_sup_derivatives_nan_and_signed_zero():
    F = np.ones((9, 8, 7))
    F[4, 4, 3] = np.nan
    assert all(math.isnan(v) for v in sup_derivatives(F, (0.1,) * 3, 2).values())
    zero = sup_derivatives(np.full((9, 8, 7), -0.0), (0.1,) * 3, 2)
    assert all(math.copysign(1.0, v) == 1.0 for v in zero.values())
