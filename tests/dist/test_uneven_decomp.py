"""Property tests for uneven slab decompositions and variable-size exchanges.

The uneven data plane must be exactly as lossless as the balanced one:
scatter/gather over arbitrary non-negative partitions (including
zero-height ranks) round-trips bit-for-bit, the variable-extent transpose
inverts itself, and every infeasible partition is rejected with a reasoned
:class:`ValueError` rather than an assertion.  Hypothesis draws the
partitions instead of pinning a handful.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.decomp import (
    SlabDecomposition,
    normalize_heights,
    skewed_heights,
)
from repro.dist.transpose import (
    pack_blocks,
    transpose_exchange,
    unpack_blocks,
)
from repro.dist.virtual_mpi import VirtualComm
from tests.verify.test_transpose_properties import chunked_reference

SETTINGS = dict(max_examples=30, deadline=None)

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


@st.composite
def partitions(draw, max_ranks=4, max_total=24, min_total=1):
    """(n, heights): non-negative per-rank extents summing to n >= 1."""
    ranks = draw(st.integers(min_value=1, max_value=max_ranks))
    heights = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_total // ranks),
            min_size=ranks, max_size=ranks,
        ).filter(lambda hs: sum(hs) >= min_total)
    )
    return sum(heights), tuple(heights)


class TestHeightsValidation:
    @given(part=partitions())
    @settings(**SETTINGS)
    def test_valid_partitions_normalize(self, part):
        n, hs = part
        assert normalize_heights(n, len(hs), hs) == hs
        d = SlabDecomposition(n=n, ranks=len(hs), heights=hs)
        assert d.rank_heights == hs
        assert sum(d.rank_heights) == n

    @given(part=partitions())
    @settings(**SETTINGS)
    def test_wrong_sum_raises(self, part):
        n, hs = part
        with pytest.raises(ValueError, match="partition N exactly"):
            SlabDecomposition(n=n + 1, ranks=len(hs), heights=hs)

    @given(part=partitions(max_ranks=3))
    @settings(**SETTINGS)
    def test_wrong_length_raises(self, part):
        n, hs = part
        with pytest.raises(ValueError, match="one slab height per rank"):
            SlabDecomposition(n=n, ranks=len(hs) + 1, heights=hs)

    def test_negative_height_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            normalize_heights(4, 2, (5, -1))

    def test_balanced_divisibility_message_mentions_heights(self):
        with pytest.raises(ValueError, match="explicit per-rank heights"):
            SlabDecomposition(n=16, ranks=5)

    @given(
        n=st.integers(min_value=1, max_value=64),
        ranks=st.integers(min_value=1, max_value=6),
        skew=st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(**SETTINGS)
    def test_skewed_heights_always_feasible(self, n, ranks, skew):
        hs = skewed_heights(n, ranks, skew)
        assert normalize_heights(n, ranks, hs) == hs
        assert hs[0] == max(hs)  # rank 0 is the (weakly) largest slab

    def test_skewed_heights_rejects_bad_skew(self):
        with pytest.raises(ValueError, match="skew"):
            skewed_heights(24, 3, 0.5)


class TestUnevenScatterGather:
    @given(
        part=partitions(max_ranks=4, max_total=8),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_spectral_roundtrip(self, part, dtype, seed):
        n, hs = part
        d = SlabDecomposition(n=n, ranks=len(hs), heights=hs)
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n, n // 2 + 1))
        if np.issubdtype(np.dtype(dtype), np.complexfloating):
            g = g + 1j * rng.standard_normal(g.shape)
        g = g.astype(dtype)
        locals_ = d.scatter_spectral(g)
        assert [x.shape[0] for x in locals_] == list(hs)
        back = d.gather_spectral(locals_)
        assert back.dtype == g.dtype
        assert np.array_equal(back, g)

    @given(
        part=partitions(max_ranks=4, max_total=8),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_physical_roundtrip(self, part, dtype, seed):
        n, hs = part
        d = SlabDecomposition(n=n, ranks=len(hs), heights=hs)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, n, n)).astype(dtype, copy=False)
        locals_ = d.scatter_physical(u)
        assert [x.shape[1] for x in locals_] == list(hs)
        assert np.array_equal(d.gather_physical(locals_), u)

    def test_zero_height_rank_shapes(self):
        d = SlabDecomposition(n=6, ranks=3, heights=(4, 0, 2))
        assert d.local_spectral_shape(1) == (0, 6, 4)
        assert d.local_physical_shape(1) == (6, 0, 6)
        assert d.spectral_slice(1) == slice(4, 4)

    @given(part=partitions(max_ranks=4, max_total=8))
    @settings(**SETTINGS)
    def test_slices_partition_domain(self, part):
        n, hs = part
        d = SlabDecomposition(n=n, ranks=len(hs), heights=hs)
        covered = []
        for r in range(d.ranks):
            s = d.spectral_slice(r)
            assert s.stop - s.start == hs[r]
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(n))


@st.composite
def uneven_transpose_cases(draw):
    """(heights, local shapes, pack/unpack axes) for a variable exchange.

    Rank ``r``'s extent along the unpack axis is its own height; the pack
    axis carries the full ``sum(heights)`` to be split per-peer.
    """
    P = draw(st.integers(min_value=1, max_value=4))
    heights = tuple(
        draw(st.lists(
            st.integers(min_value=0, max_value=4), min_size=P, max_size=P
        ).filter(lambda hs: sum(hs) >= 1))
    )
    pack_axis = draw(st.integers(min_value=0, max_value=2))
    unpack_axis = draw(
        st.integers(min_value=0, max_value=2).filter(lambda a: a != pack_axis)
    )
    other = draw(st.integers(min_value=1, max_value=3))
    return heights, pack_axis, unpack_axis, other


class TestUnevenExchange:
    @staticmethod
    def _locals(heights, pack_axis, unpack_axis, other, seed, dtype):
        rng = np.random.default_rng(seed)
        out = []
        for r in range(len(heights)):
            shp = [other] * 3
            shp[pack_axis] = sum(heights)
            shp[unpack_axis] = heights[r]
            x = rng.standard_normal(tuple(shp))
            if np.issubdtype(np.dtype(dtype), np.complexfloating):
                x = x + 1j * rng.standard_normal(tuple(shp))
            out.append(x.astype(dtype))
        return out

    @given(
        case=uneven_transpose_cases(),
        dtype=st.sampled_from([np.float64, np.complex128]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_uneven_exchange_then_inverse_is_identity(self, case, dtype, seed):
        heights, pack_axis, unpack_axis, other = case
        locals_ = self._locals(heights, pack_axis, unpack_axis, other, seed, dtype)
        comm = VirtualComm(len(heights))
        out = transpose_exchange(
            comm, locals_, pack_axis, unpack_axis, pack_sizes=heights
        )
        for r, x in enumerate(out):
            assert x.shape[pack_axis] == heights[r]
            assert x.shape[unpack_axis] == sum(heights)
        back = transpose_exchange(
            comm, out, unpack_axis, pack_axis, pack_sizes=heights
        )
        for a, b in zip(back, locals_):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @given(
        case=uneven_transpose_cases(),
        nchunks=st.integers(min_value=1, max_value=3),
        along_unpack=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_uneven_chunked_matches_monolithic(
        self, case, nchunks, along_unpack, seed
    ):
        heights, pack_axis, unpack_axis, other = case
        # Chunked along the unpack axis every rank cuts its own (uneven,
        # possibly empty) extent — the forward transform's exchange.
        chunk_axis = unpack_axis if along_unpack else next(
            a for a in range(3) if a not in (pack_axis, unpack_axis)
        )
        locals_ = self._locals(
            heights, pack_axis, unpack_axis, other, seed, np.complex128
        )
        expect = transpose_exchange(
            VirtualComm(len(heights)), locals_, pack_axis, unpack_axis,
            pack_sizes=heights,
        )
        got = chunked_reference(
            locals_, pack_axis, unpack_axis, chunk_axis, nchunks,
            pack_sizes=heights,
        )
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)

    @given(
        sizes=st.lists(
            st.integers(min_value=0, max_value=3), min_size=2, max_size=4
        ).filter(lambda hs: sum(hs) >= 1),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_pack_blocks_with_sizes_roundtrips(self, sizes, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((sum(sizes), 2, 3))
        blocks = pack_blocks(x, 0, len(sizes), sizes=sizes)
        assert [b.shape[0] for b in blocks] == list(sizes)
        assert np.array_equal(unpack_blocks(blocks, 0), x)

    def test_pack_sizes_must_cover_axis(self):
        x = np.zeros((5, 2, 2))
        with pytest.raises(ValueError):
            pack_blocks(x, 0, 2, sizes=(2, 2))

    def test_exchange_rejects_mismatched_pack_sizes(self):
        comm = VirtualComm(2)
        locals_ = [np.zeros((4, 2, 2)), np.zeros((4, 3, 2))]
        with pytest.raises(ValueError):
            transpose_exchange(comm, locals_, 0, 1, pack_sizes=(3, 2))
