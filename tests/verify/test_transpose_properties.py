"""Property-based transpose tests: pack/exchange round-trips are exact.

The distributed transpose is pure data movement, so its inverse must
reconstruct every rank's array *bit-for-bit* — across rank counts, grid
shapes, chunk counts, and axes.  Hypothesis searches that space instead of
pinning a handful of shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.transpose import (
    chunk_exchange_layout,
    pack_blocks,
    transpose_exchange,
    unpack_blocks,
)
from repro.dist.virtual_mpi import VirtualComm

SETTINGS = dict(max_examples=30, deadline=None)


def _rank_arrays(P, shape, seed, dtype):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        return [
            (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            .astype(dtype)
            for _ in range(P)
        ]
    return [rng.standard_normal(shape).astype(dtype) for _ in range(P)]


def chunked_reference(
    locals_, pack_axis, unpack_axis, chunk_axis, nchunks, pack_sizes=None
):
    """The transpose as ``nchunks`` exchanges that land in place — the loop
    the out-of-core engine runs over :func:`chunk_exchange_layout`, with
    plain assignments standing in for its per-peer D2H copies.  Every rank
    cuts its own ``chunk_axis`` extent (empty slices kept)."""
    P, shapes = len(locals_), [loc.shape for loc in locals_]
    sizes = pack_sizes or (shapes[0][pack_axis] // P,) * P
    outs = []
    for s, loc in enumerate(locals_):
        shape = list(loc.shape)
        shape[pack_axis] = sizes[s]
        shape[unpack_axis] = sum(sh[unpack_axis] for sh in shapes)
        outs.append(np.empty(shape, loc.dtype))
    edges = [
        np.linspace(0, sh[chunk_axis], nchunks + 1).astype(int) for sh in shapes
    ]
    for c in range(nchunks):
        chunks = [slice(e[c], e[c + 1]) for e in edges]
        pack, blocks, windows = chunk_exchange_layout(
            shapes, pack_axis, unpack_axis, chunk_axis, chunks, pack_sizes
        )
        send = [[np.empty(b, loc.dtype) for b in blocks[r]]
                for r, loc in enumerate(locals_)]
        for r, loc in enumerate(locals_):
            chunk = loc[(slice(None),) * chunk_axis + (chunks[r],)]
            for s in range(P):
                send[r][s][...] = chunk[pack[s]]
        recv = [[out[w] for w in windows] for out in outs]
        VirtualComm(P).ialltoall(send, recv=recv).wait()
    return outs


@st.composite
def transpose_cases(draw):
    """(P, local shape, pack/unpack axes) with the divisibility the
    exchange requires: pack axis extent divisible by P."""
    P = draw(st.integers(min_value=1, max_value=4))
    pack_axis = draw(st.integers(min_value=0, max_value=2))
    unpack_axis = draw(
        st.integers(min_value=0, max_value=2).filter(lambda a: a != pack_axis)
    )
    dims = [draw(st.integers(min_value=1, max_value=4)) for _ in range(3)]
    dims[pack_axis] = draw(st.integers(min_value=1, max_value=3)) * P
    return P, tuple(dims), pack_axis, unpack_axis


class TestPackUnpack:
    @given(
        parts=st.integers(min_value=1, max_value=6),
        reps=st.integers(min_value=1, max_value=4),
        axis=st.integers(min_value=0, max_value=2),
        other=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_pack_then_unpack_is_identity(self, parts, reps, axis, other, seed):
        shape = [other] * 3
        shape[axis] = parts * reps
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(tuple(shape))
        assert np.array_equal(
            unpack_blocks(pack_blocks(x, axis, parts), axis), x
        )

    @given(
        parts=st.integers(min_value=2, max_value=5),
        extent=st.integers(min_value=1, max_value=20),
    )
    @settings(**SETTINGS)
    def test_uneven_split_always_rejected(self, parts, extent):
        if extent % parts == 0:
            extent += 1
            if extent % parts == 0:  # pragma: no cover - parts == 1 only
                return
        x = np.zeros((extent, 2, 2))
        with pytest.raises(ValueError, match="not divisible"):
            pack_blocks(x, 0, parts)


class TestExchangeRoundTrip:
    @given(
        case=transpose_cases(),
        dtype=st.sampled_from([np.float64, np.complex128]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_exchange_then_inverse_is_identity(self, case, dtype, seed):
        P, shape, pack_axis, unpack_axis = case
        comm = VirtualComm(P)
        locals_ = _rank_arrays(P, shape, seed, dtype)
        out = transpose_exchange(comm, locals_, pack_axis, unpack_axis)
        # The inverse transpose swaps the roles of the two axes.
        back = transpose_exchange(comm, out, unpack_axis, pack_axis)
        for a, b in zip(back, locals_):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @given(
        case=transpose_cases(),
        nchunks=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_chunked_exchange_bit_identical_to_monolithic(
        self, case, nchunks, seed
    ):
        P, shape, pack_axis, unpack_axis = case
        chunk_axis = next(
            a for a in range(3) if a not in (pack_axis, unpack_axis)
        )
        locals_ = _rank_arrays(P, shape, seed, np.complex128)
        expect = transpose_exchange(VirtualComm(P), locals_, pack_axis, unpack_axis)
        got = chunked_reference(
            locals_, pack_axis, unpack_axis, chunk_axis, nchunks
        )
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)

    @given(
        case=transpose_cases(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(**SETTINGS)
    def test_chunking_along_unpack_axis_round_trips(self, case, seed):
        # chunk_axis == unpack_axis exercises the offset windows of
        # chunk_exchange_layout (each peer's block lands mid-axis).
        P, shape, pack_axis, unpack_axis = case
        locals_ = _rank_arrays(P, shape, seed, np.complex128)
        expect = transpose_exchange(VirtualComm(P), locals_, pack_axis, unpack_axis)
        got = chunked_reference(
            locals_, pack_axis, unpack_axis, unpack_axis,
            nchunks=min(2, shape[unpack_axis]),
        )
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)
