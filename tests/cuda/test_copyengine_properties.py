"""Property suite: copy-engine round trips for arbitrary shapes/strides.

Whatever the shape, the stride pattern (contiguous, column-sliced,
step-sliced), the dtype, or the strategy, a host->device->host round trip
must reproduce the source bit-for-bit and leave bytes outside the
destination window untouched — including zero-length edge chunks and
non-contiguous d2h destinations, on the inline backend and when submitted
to real worker streams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuda.copyengine import (
    Batched2DEngine,
    ChunkLayout,
    CopyAutotuner,
    PerChunkEngine,
    ZeroCopyEngine,
    make_engine,
)

ENGINES = {
    "per_chunk": PerChunkEngine,
    "zero_copy": ZeroCopyEngine,
    "memcpy2d": Batched2DEngine,
}

DTYPES = (np.float32, np.float64, np.complex128)


shapes = st.lists(st.integers(0, 9), min_size=1, max_size=3).map(tuple)
# (pad, step) per axis: pad widens the backing array, step slices it —
# both produce non-trivial strides while keeping views well-formed.
stride_specs = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 2)), min_size=3, max_size=3
)


def _carve(shape, spec, rng_seed, dtype):
    """A view of the requested shape carved out of a padded backing array.

    Returns (backing, view): the view has the exact ``shape`` but strides
    determined by ``spec`` — padding adds row gaps, steps skip elements.
    """
    spec = spec[: len(shape)]
    backing_shape = tuple(
        s * step + pad for s, (pad, step) in zip(shape, spec)
    )
    rng = np.random.default_rng(rng_seed)
    if np.issubdtype(dtype, np.complexfloating):
        backing = (
            rng.standard_normal(backing_shape)
            + 1j * rng.standard_normal(backing_shape)
        ).astype(dtype)
    else:
        backing = rng.standard_normal(backing_shape).astype(dtype)
    index = tuple(
        slice(0, s * step, step) for s, (pad, step) in zip(shape, spec)
    )
    return backing, backing[index]


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(ENGINES)),
        shape=shapes,
        src_spec=stride_specs,
        dst_spec=stride_specs,
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**16),
    )
    def test_h2d_then_d2h_is_identity(
        self, name, shape, src_spec, dst_spec, dtype, seed
    ):
        engine = ENGINES[name]()
        try:
            _, src = _carve(shape, src_spec, seed, dtype)
            device = np.empty(shape, dtype=dtype)
            engine.h2d(device, src)
            np.testing.assert_array_equal(device, src)

            # Non-contiguous d2h destination: only the window may change.
            backing, dst = _carve(shape, dst_spec, seed + 1, dtype)
            sentinel = backing.copy()
            engine.d2h(dst, device)
            np.testing.assert_array_equal(dst, src)
            mask = np.ones(backing.shape, dtype=bool)
            index = tuple(
                slice(0, s * step, step)
                for s, (pad, step) in zip(shape, dst_spec[: len(shape)])
            )
            mask[index] = False
            np.testing.assert_array_equal(backing[mask], sentinel[mask])
        finally:
            engine.close()

    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes,
        spec=stride_specs,
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**16),
    )
    def test_all_strategies_agree_bitwise(self, shape, spec, dtype, seed):
        _, src = _carve(shape, spec, seed, dtype)
        results = []
        for name in sorted(ENGINES):
            engine = ENGINES[name]()
            dst = np.empty(shape, dtype=dtype)
            engine.h2d(dst, src)
            engine.close()
            results.append(dst)
        for other in results[1:]:
            np.testing.assert_array_equal(results[0], other)

    @settings(max_examples=40, deadline=None)
    @given(
        shape=shapes,
        spec=stride_specs,
        dtype=st.sampled_from(DTYPES),
        kind=st.sampled_from(["sync", "sim"]),
        seed=st.integers(0, 2**16),
    )
    def test_autotuned_choice_copies_correctly(
        self, shape, spec, dtype, kind, seed
    ):
        tuner = CopyAutotuner(repeats=1)
        try:
            _, src = _carve(shape, spec, seed, dtype)
            dst = np.empty(shape, dtype=dtype)
            engine = tuner.choose(dst, src, kind=kind)
            engine.h2d(dst, src)
            np.testing.assert_array_equal(dst, src)
        finally:
            tuner.close()

    @settings(max_examples=30, deadline=None)
    @given(
        shape=shapes,
        spec=stride_specs,
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**16),
    )
    def test_layout_partition_is_exact(self, shape, spec, dtype, seed):
        """nchunks x chunk_bytes always equals the true byte count."""
        _, src = _carve(shape, spec, seed, dtype)
        dst = np.empty(shape, dtype=dtype)
        layout = ChunkLayout.of(dst, src)
        assert layout.total_bytes == dst.nbytes
        assert layout.nchunks * layout.chunk_elems == dst.size


class TestStreamBackendProperties:
    """Round trips survive running as operations on the exec backends'
    streams (the op's fn calls the engine, as pipeline stages do)."""

    @pytest.mark.parametrize("kind", ["sync", "threads"])
    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_round_trip_on_stream(self, kind, name):
        from repro.exec import make_backend

        backend = make_backend(kind)
        engine = make_engine(name)
        try:
            rng = np.random.default_rng(7)
            backing = rng.standard_normal((9, 12))
            src = backing[:, 1:9]
            device = np.empty((9, 8))
            out_backing = np.zeros((9, 12))
            out = out_backing[:, 2:10]
            backend.stream("h2d").submit(
                "arena.h2d", "h2d", lambda: engine.h2d(device, src)
            ).wait()
            backend.stream("d2h").submit(
                "arena.d2h", "d2h", lambda: engine.d2h(out, device)
            ).wait()
        finally:
            backend.shutdown()
            engine.close()
        np.testing.assert_array_equal(out, src)
        assert np.all(out_backing[:, :2] == 0)
        assert np.all(out_backing[:, 10:] == 0)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_fuzzed_backend_round_trip(self, name):
        """Seeded delays cannot corrupt a stream-submitted copy."""
        from repro.exec import make_backend
        from repro.verify import fuzz_profile
        from repro.verify.fuzz import FuzzBackend

        for seed in (101, 202, 303):
            backend = FuzzBackend(
                make_backend("threads"), fuzz_profile("calm", seed)
            )
            engine = make_engine(name)
            try:
                rng = np.random.default_rng(seed)
                src = rng.standard_normal((11, 13))[:, 2:11]
                device = np.empty((11, 9))
                out = np.empty((11, 9))
                backend.stream("h2d").submit(
                    "arena.h2d", "h2d", lambda: engine.h2d(device, src)
                ).wait()
                backend.stream("d2h").submit(
                    "arena.d2h", "d2h", lambda: engine.d2h(out, device)
                ).wait()
            finally:
                backend.shutdown()
                engine.close()
            np.testing.assert_array_equal(out, src)
