import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi2d import cli
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


def _ph_by_iota(space, pb):
    # the reduce_ph positions read through the space's own leg lookup
    # (KernelSpace.iota) and a fresh undirected partner
    und = space.undirected()
    ub = _fresh(und)
    i0, i1 = space.iota(0, und), space.iota(1, und)
    where = {key: t for t, key in enumerate(pb.keys)}
    out = []
    for key, r, c in zip(ub.keys, ub.rows, ub.cols):
        a, b = np.divmod(r, und.n)
        cc, d = np.divmod(c, und.n)
        out.append((where[key + 1], pb._pos[i0[a] * pb.n + i1[b]],
                    pb._pos[i1[cc] * pb.n + i0[d]]))
    return out


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
    # for every space sharing the instance, each table, swap, ph and
    # ph_gather equals that of a PairBlocks built for the space alone, and
    # ph equals the one read through KernelSpace.iota
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
            if sp.directed:
                for got, want in ((pb.ph, ref.ph), (pb.ph, _ph_by_iota(sp, pb))):
                    assert len(got) == len(want)
                    for (t, r, c), (u, rr, cc) in zip(got, want):
                        assert t == u and np.array_equal(r, rr) \
                            and np.array_equal(c, cc)
                assert np.array_equal(pb.ph_gather, ref.ph_gather)


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
    # on support kernels each gather equals its dense operation bit for
    # bit, and every dense result lies on the support (from_dense raises
    # on an entry off it); the inversion check agrees with the dense one on
    # directed and undirected kernels, inversion symmetric or not
    sp = data.draw(small_spaces())
    und = sp.undirected()
    rng = np.random.default_rng(seed)
    f, L = random_kernel(sp, rng), random_kernel(und, rng)
    bf, bL = BlockKernel.from_dense(f), BlockKernel.from_dense(L)
    for block, dense in ((bf.antisymmetrize(), antisymmetrize(f)),
                         (bf.reduce_ph(), reduce_ph(f, und)),
                         (bL.value_ph(sp), value_ph(L, sp)),
                         (bL.flip(), flip(L)),
                         (bf.flip(), flip(f))):
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


def test_antisymmetrize_rejects_an_undirected_space():
    # the undirected support (bars (+, -, -, +)) is not closed under the
    # leg swaps of antisymmetrize
    und = KernelSpace(make_grid([(0.25, 1.2, 0.55)]), nspin=1, nsec=1,
                      directed=False)
    bf = BlockKernel.from_dense(random_kernel(und, np.random.default_rng(3)))
    with pytest.raises(ValueError, match="not closed"):
        bf.antisymmetrize()


def test_block_operations_keep_no_build_tables(params, disp):
    # once the antisymmetrize swaps exist, warming flip, reduce_ph,
    # value_ph and the undirected flip keeps only their small gathers: no
    # leg-index table of their build stays cached
    scheme, fam = cli._demo_scheme_and_family(params, disp, 1, 0, [2, 3])
    sp, f = scheme.space(2), fam.F[2]
    f.antisymmetrize()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        L = f.flip().reduce_ph()
        L.value_ph(sp)
        L.flip()
        del L
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 * sp.pair_blocks.size


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
    f = BlockKernel.random(sp, np.random.default_rng(seed))
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
    # one standard_normal(size) draw for the real parts, then one for the
    # imaginary parts, with the rng left where those two draws leave it;
    # the values lie on the support, and on directed spaces the blocked
    # antisymmetrize equals the dense one
    sp = data.draw(small_spaces(directed))
    size = sp.pair_blocks.size
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = BlockKernel.random(sp, rng)
    again = BlockKernel.random(sp, np.random.default_rng(seed))
    assert np.array_equal(got.values, again.values)
    re = ref_rng.standard_normal(size)
    assert np.array_equal(got.values, re + 1j * ref_rng.standard_normal(size))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    dense = got.dense()
    assert np.array_equal(BlockKernel.from_dense(dense).values, got.values)
    if directed:
        assert np.array_equal(got.antisymmetrize().dense().values,
                              antisymmetrize(dense).values)
