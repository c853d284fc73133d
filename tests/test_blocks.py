import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d import blocks, cli
from fermi2d.blocks import BlockKernel, PairBlocks
from fermi2d.kernels import (Kernel4, KernelSpace, antisymmetrize,
                             conservation_mask, flip, is_inversion_symmetric,
                             make_grid, number_conserving_mask, random_kernel,
                             reduce_ph, value_ph)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), directed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_blocks_hold_the_support(small_spaces, data, directed, seed):
    # the pair blocks cover exactly the conservation support, and
    # dense -> blocks -> dense is exact on support kernels
    sp = data.draw(small_spaces(directed))
    mask = conservation_mask(sp) & number_conserving_mask(sp)
    ones = BlockKernel(sp, np.ones(sp.pair_blocks.size, dtype=complex)).dense()
    assert np.array_equal(ones.values != 0, mask)
    f = random_kernel(sp, np.random.default_rng(seed))
    assert np.array_equal(BlockKernel.from_dense(f).dense().values, f.values)


@pytest.fixture(scope="module")
def demo_schemes(params, disp):
    """The ladder-demo scheme of --grid g --scales s, built once."""
    built = {}

    def get(gridn, nscales):
        if (gridn, nscales) not in built:
            scales = list(range(params.j0, params.j0 + nscales))
            built[gridn, nscales] = cli._demo_scheme_and_family(
                params, disp, gridn, 0, scales)[0]
        return built[gridn, nscales]

    return get


def _fresh(space):
    # a PairBlocks built from the space's legs, outside the grid's cache
    legs = np.stack([space.leg_field, space.leg_k, space.leg_spin,
                     space.leg_bar], axis=1)
    return PairBlocks(space.grid, space.directed, legs)


@pytest.mark.parametrize("gridn, nscales", [(1, 2), (1, 3), (1, 4), (2, 2),
                                            (2, 3), (2, 4)])
def test_scheme_spaces_share_pair_blocks(demo_schemes, gridn, nscales):
    # every scale of a demo scheme has the same leg signature (sectors do
    # not enter the support): one directed and one undirected PairBlocks,
    # the ones the grid keeps
    scheme = demo_schemes(gridn, nscales)
    js = sorted(scheme.dir_spaces)
    for directed in (True, False):
        pbs = {id(scheme.space(j, directed).pair_blocks) for j in js}
        assert len(pbs) == 1
    assert scheme.space(js[0]).pair_blocks is not \
        scheme.space(js[0], False).pair_blocks
    assert len(scheme.grid.pair_blocks) == 2


@pytest.mark.parametrize("gridn, nscales", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_shared_pair_blocks_match_a_fresh_build(demo_schemes, gridn, nscales):
    # for every space sharing the instance, each table and swap equals that
    # of a PairBlocks built for the space alone
    scheme = demo_schemes(gridn, nscales)
    for j in sorted(scheme.dir_spaces):
        for sp in (scheme.space(j), scheme.space(j, False)):
            pb, ref = sp.pair_blocks, _fresh(sp)
            assert np.array_equal(pb.flat, ref.flat)
            assert all(np.array_equal(a, b) for a, b in zip(pb.cols, ref.cols))
            for i, k in itertools.combinations(range(4), 2):
                try:
                    want = ref.swap(i, k)
                except ValueError:
                    with pytest.raises(ValueError, match="not closed"):
                        pb.swap(i, k)
                    continue
                assert np.array_equal(pb.swap(i, k), want)


def test_other_signatures_get_their_own_pair_blocks():
    # the instance follows the grid, the direction and the (field, k, spin,
    # bar) legs: other sectors with the same count per k share it; another
    # spin count, another count per k, another direction or another grid
    # (even an equal one) do not
    grid = make_grid([(0.25, 1.2, 0.55)])
    base = KernelSpace(grid, nspin=1, nsec=2, sec_ok=[[1, 0], [0, 1]])
    pb = base.pair_blocks
    same = [KernelSpace(grid, nspin=1, nsec=2, sec_ok=[[0, 1], [1, 0]]),
            KernelSpace(grid, nspin=1, nsec=1)]
    other = [KernelSpace(grid, nspin=2, nsec=2, sec_ok=[[1, 0], [0, 1]]),
             KernelSpace(grid, nspin=1, nsec=2, sec_ok=[[1, 1], [0, 1]]),
             KernelSpace(grid, nspin=1, nsec=2, sec_ok=[[1, 0], [0, 1]],
                         directed=False),
             KernelSpace(make_grid([(0.25, 1.2, 0.55)]), nspin=1, nsec=2,
                         sec_ok=[[1, 0], [0, 1]])]
    assert all(sp.pair_blocks is pb for sp in same)
    assert len({id(pb)} | {id(sp.pair_blocks) for sp in other}) == 5
    assert len(grid.pair_blocks) == 4


@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_block_operations_match_dense(small_spaces, data, seed):
    # on support kernels the flip gather equals the dense flip bit for bit,
    # and its dense result lies on the support (from_dense raises on an
    # entry off it); the inversion check agrees with the dense one on
    # directed and undirected kernels, inversion symmetric or not
    sp = data.draw(small_spaces())
    und = sp.undirected()
    rng = np.random.default_rng(seed)
    f, L = random_kernel(sp, rng), random_kernel(und, rng)
    for kern in (f, L):
        block, dense = BlockKernel.from_dense(kern).flip(), flip(kern)
        assert block.space is dense.space
        assert np.array_equal(block.dense().values, dense.values)
        BlockKernel.from_dense(dense)
    for kern in (f, L):
        sym = Kernel4(kern.space,
                      kern.values + kern.values.transpose(3, 2, 1, 0))
        for k in (kern, sym):
            assert BlockKernel.from_dense(k).is_inversion_symmetric() \
                == is_inversion_symmetric(k)
        assert BlockKernel.from_dense(sym).is_inversion_symmetric()


@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_ph_antisymmetric_is_a_projection_onto_ph_rungs(small_spaces, data,
                                                       seed):
    # on any undirected kernel the projection is idempotent, bit for bit,
    # and its output r is the ph rung of an antisymmetric directed kernel:
    # reduce_ph of 1.5 times the antisymmetrized value_ph of r gives r back
    sp = data.draw(small_spaces(True))
    und = sp.undirected()
    r = BlockKernel.random(und, random.Random(seed)).ph_antisymmetric()
    assert r.space is und
    assert np.array_equal(r.ph_antisymmetric().values, r.values)
    back = 1.5 * BlockKernel.from_dense(
        reduce_ph(antisymmetrize(value_ph(r.dense(), sp)), und))
    assert np.abs(back.values - r.values).max() <= 1e-15 * r.max_abs()


@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_ph_antisymmetric_fixes_ph_entries_of_antisymmetric_kernels(
        small_spaces, data, seed):
    # the ph entries of an antisymmetrized directed kernel already change
    # sign under the leg swaps (0, 3) and (1, 2), so the projection keeps
    # them
    sp = data.draw(small_spaces(True))
    f = random_kernel(sp, np.random.default_rng(seed), antisym=True)
    ph = BlockKernel.from_dense(reduce_ph(f))
    got = ph.ph_antisymmetric()
    assert got.space is ph.space is sp.undirected()
    assert np.abs(got.values - ph.values).max() <= 1e-15 * ph.max_abs()


def test_chunked_draw_and_projection_match_whole_vector_forms(demo_schemes):
    # BlockKernel.random and ph_antisymmetric run in chunks of entries, so
    # that they hold no full-size temporary; on a support of several chunks
    # they equal, bit for bit, the whole-vector forms: one randbytes call
    # shifted and cast in full, and v = a - a[s1], (v - v[s2]) / 4
    und = demo_schemes(3, 3).space(2, directed=False)
    pb, size = und.pair_blocks, und.pair_blocks.size
    assert size > 3 * blocks._CHUNK
    x = (np.frombuffer(random.Random(4).randbytes(16 * size), dtype="<u8")
         >> np.uint64(11)).astype(float)
    x *= 2.0 ** -52
    x -= 1.0
    x *= math.sqrt(3.0)
    f = BlockKernel.random(und, random.Random(4))
    assert f.values.real.tobytes() == x[:size].tobytes()
    assert f.values.imag.tobytes() == x[size:].tobytes()
    v = f.values - f.values[pb.swap(0, 3)]
    v -= v[pb.swap(1, 2)]
    assert f.ph_antisymmetric().values.tobytes() == (v / 4.0).tobytes()


def test_block_operations_keep_no_build_tables(params, disp):
    # once the swaps (0, 3) and (1, 2) exist, warming ph_antisymmetric, flip
    # and the inversion check keeps nothing: no leg-index table of their
    # build stays cached
    scheme = cli._demo_scheme_and_family(params, disp, 1, 0, [2, 3])[0]
    und = scheme.space(2, directed=False)
    f = BlockKernel.random(und, random.Random(0))
    f.ph_antisymmetric()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r = f.ph_antisymmetric().flip()
        r.is_inversion_symmetric()
        del r
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 * und.pair_blocks.size


@pytest.mark.parametrize("directed, swaps", [
    (True, list(itertools.combinations(range(4), 2))),
    (False, [(0, 3), (1, 2)])], ids=["directed", "undirected"])
def test_swaps_keep_no_sort_table(directed, swaps):
    # the swaps are lookups in the pair tables, built with the space: each
    # support entry keeps one int32 gather per closed swap (all six on a
    # directed space, two on an undirected one) and no sort table
    pb = KernelSpace(make_grid([(0.25, 1.2, 0.55)]), nspin=2, nsec=2,
                     directed=directed).pair_blocks
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i, k in swaps:
            pb.swap(i, k)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < (len(swaps) * 4 + 4) * pb.size


@settings(max_examples=15, deadline=None)
@given(data=st.data(), directed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_swaps_match_swapaxes(small_spaces, data, directed, seed):
    # a leg swap is closed when it maps the support onto itself; its gather
    # then reads values.swapaxes(i, k) on the support, and an open swap
    # raises
    sp = data.draw(small_spaces(directed))
    pb = sp.pair_blocks
    mask = conservation_mask(sp) & number_conserving_mask(sp)
    f = BlockKernel.random(sp, random.Random(seed))
    dense = f.dense().values
    for i, k in itertools.combinations(range(4), 2):
        if np.array_equal(mask.swapaxes(i, k), mask):
            assert np.array_equal(f.values[pb.swap(i, k)],
                                  dense.swapaxes(i, k).reshape(-1)[pb.flat])
        else:
            with pytest.raises(ValueError, match="not closed"):
                pb.swap(i, k)


def test_off_support_kernel_rejected():
    rng = np.random.default_rng(19)
    sp = KernelSpace(make_grid([(0.25, 1.2, 0.55)]), nspin=1, nsec=1)
    f = random_kernel(sp, rng, conserving=False)
    off = np.where(conservation_mask(sp), 0.0, np.abs(f.values))
    with pytest.raises(ValueError, match=re.escape(f"{off.max():.3e}")):
        BlockKernel.from_dense(f)


def _all_pairs_classes(P):
    # reference labelling: the class of a sum is the first sum within the
    # tolerance of it on every axis, from the all-pairs closeness matrix
    close = np.ones((len(P), len(P)), dtype=bool)
    for ax in range(3):
        close &= np.abs(P[:, None, ax] - P[None, :, ax]) < 1e-9
    cls = close.argmax(axis=1)
    if not np.array_equal(close, cls[:, None] == cls[None, :]):
        raise ValueError("grid momentum sums within the conservation "
                         "tolerance of each other do not form classes")
    return cls


def _scan_groups(key):
    # reference grouping: one flatnonzero scan over every pair per key
    values = np.array(sorted(set(key.tolist())), dtype=int)
    return values, [np.flatnonzero(key == v) for v in values]


def _pair_sums(grid):
    # the signed sums s k_i + t k_j in PairBlocks' (i, s, j, t) order
    K = np.stack([grid.k0, grid.kx, grid.ky], axis=1)
    SK = np.stack([K, -K], axis=1)
    return (SK[:, :, None, None, :] + SK[None, None, :, :, :]).reshape(-1, 3)


def _assert_sorted_build_matches_reference(space):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "_classes", _all_pairs_classes)
        mp.setattr(blocks, "_groups", _scan_groups)
        ref = _fresh(space)
    got = _fresh(space)
    for name in ("keys", "rows", "cols", "col_rows", "offsets", "flat",
                 "_row_block", "_col_block", "_pos", "_row_start"):
        a, b = getattr(got, name), getattr(ref, name)
        if isinstance(b, list):
            assert len(a) == len(b), name
            assert all(np.array_equal(x, y) and x.dtype == y.dtype
                       for x, y in zip(a, b)), name
        else:
            assert np.array_equal(a, b) and a.dtype == b.dtype, name


@settings(max_examples=15, deadline=None)
@given(data=st.data(), directed=st.booleans())
def test_sorted_build_matches_all_pairs_reference(small_spaces, data,
                                                  directed):
    # classes found by sorting and blocks grouped by one argsort give the
    # tables of the all-pairs closeness matrix and the per-key scans
    _assert_sorted_build_matches_reference(data.draw(small_spaces(directed)))


# A + B and C + D (and their relatives) lie 0.5e-9 apart on the k0 axis;
# k1 - k2 lies exactly 1e-9 from k1 - k1 = 0
HALF = [(0.25, 0.5, 0.125), (0.5, 0.25, 0.375), (0.5 + 0.5e-9, 0.5, 0.25),
        (0.25, 0.25, 0.25)]
EXACT = [(1e-9, 0.4, 0.7), (0.0, 0.4, 0.7)]


@pytest.mark.parametrize("points, near, far", [
    (HALF, [((0, 0, 1, 0), (2, 0, 3, 0))], []),
    (EXACT, [], [((0, 0, 1, 1), (0, 0, 0, 1))])], ids=["half", "exact"])
@pytest.mark.parametrize("directed", [True, False])
def test_sorted_build_on_edge_grids(points, near, far, directed):
    # sums 0.5e-9 apart share a class; sums exactly 1e-9 apart do not, as
    # the tolerance is strict; both builds agree on every table
    grid = make_grid(points)
    P, cls = _pair_sums(grid), blocks._classes(_pair_sums(grid))
    assert np.array_equal(cls, _all_pairs_classes(P))

    def at(i, s, j, t):
        return ((2 * i + s) * len(grid) + j) * 2 + t

    for a, b in near:
        assert 0 < abs(P[at(*a), 0] - P[at(*b), 0]) < 1e-9
        assert cls[at(*a)] == cls[at(*b)]
    for a, b in far:
        assert np.array_equal(P[at(*a)] - P[at(*b)], [1e-9, 0.0, 0.0])
        assert cls[at(*a)] != cls[at(*b)]
    _assert_sorted_build_matches_reference(
        KernelSpace(grid, nspin=1, nsec=2, sec_ok=[[1] * len(grid),
                                                   [1, 0] * (len(grid) // 2)],
                    directed=directed))


def test_sums_exactly_the_tolerance_apart_are_not_close():
    # k1 - k2 and k2 - k1 lie 0.5e-9 from 0 and exactly 1e-9 from each
    # other, in one sorted group: the strict tolerance keeps them apart, so
    # neither build finds classes
    P = _pair_sums(make_grid([(0.5e-9, 0.4, 0.7), (0.0, 0.4, 0.7)]))
    for classes in (blocks._classes, _all_pairs_classes):
        with pytest.raises(ValueError, match="do not form classes"):
            classes(P)


def test_pair_blocks_build_has_no_all_pairs_temporary(demo_schemes, params):
    # the undirected build of the --scales 3 --grid 4 demo scheme (24 grid
    # points, 2304 pair sums) stays far below one (4 G^2)^2 closeness
    # matrix of the sums (5.3M entries)
    sp = demo_schemes(4, 3).space(params.j0, directed=False)
    tracemalloc.start()
    try:
        _fresh(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_unresolvable_momentum_sums_rejected():
    # k1 - k2 lies within the conservation tolerance of both 0 and k2 - k1,
    # which do not lie within it of each other: no pair-block classes exist
    grid = make_grid([(0.1, 0.2, 0.3), (0.1 + 6e-10, 0.2, 0.3)])
    with pytest.raises(ValueError, match="do not form classes"):
        KernelSpace(grid, nspin=1, nsec=1).pair_blocks


@settings(max_examples=15, deadline=None)
@given(data=st.data(), directed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_random_draws_on_the_support(small_spaces, data, directed, seed):
    # one randbytes(16 * size) call, with the rng left where that call
    # leaves it: the top 53 bits of each little-endian uint64, the real
    # parts first, mapped onto [-sqrt(3), sqrt(3)); the same seed gives the
    # same values, they lie on the support, and on directed spaces so does
    # their dense antisymmetrization
    sp = data.draw(small_spaces(directed))
    size = sp.pair_blocks.size
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = BlockKernel.random(sp, rng)
    again = BlockKernel.random(sp, random.Random(seed))
    assert np.array_equal(got.values, again.values)
    raw = ref_rng.randbytes(16 * size)
    assert rng.getstate() == ref_rng.getstate()
    x = [(int.from_bytes(raw[8 * m:8 * m + 8], "little") >> 11) / 2 ** 52 - 1
         for m in range(2 * size)]
    want = [complex(math.sqrt(3) * a, math.sqrt(3) * b)
            for a, b in zip(x[:size], x[size:])]
    assert got.values.tolist() == want
    for part in (got.values.real, got.values.imag):
        assert np.all((-math.sqrt(3) <= part) & (part < math.sqrt(3)))
    dense = got.dense()
    assert np.array_equal(BlockKernel.from_dense(dense).values, got.values)
    if directed:
        BlockKernel.from_dense(antisymmetrize(dense))
