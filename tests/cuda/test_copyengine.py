"""Unit tests for the executable strided-copy engines and the autotuner."""

import numpy as np
import pytest

from repro.cuda.copyengine import (
    AutoEngine,
    Batched2DEngine,
    ChunkLayout,
    CopyAutotuner,
    ENGINE_NAMES,
    PerChunkEngine,
    ZeroCopyEngine,
    make_engine,
)
from repro.obs import Observability


def _strided(shape, dtype=np.float64, seed=0):
    """A genuinely strided view: a column slice of a wider array."""
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((*shape[:-1], shape[-1] + 3)).astype(dtype)
    return full[..., : shape[-1]]


ALL_ENGINES = [PerChunkEngine, ZeroCopyEngine, Batched2DEngine]


class TestChunkLayout:
    def test_contiguous_pair_is_one_chunk(self):
        a = np.zeros((4, 8))
        b = np.zeros((4, 8))
        layout = ChunkLayout.of(a, b)
        assert layout.lead_ndim == 0
        assert layout.nchunks == 1
        assert layout.chunk_elems == 32
        assert layout.total_bytes == a.nbytes

    def test_strided_side_shortens_the_run(self):
        dst = np.zeros((4, 8))
        src = _strided((4, 8))
        layout = ChunkLayout.of(dst, src)
        assert layout.lead_ndim == 1
        assert layout.nchunks == 4
        assert layout.chunk_bytes == 8 * 8

    def test_layout_takes_min_tail_over_both_sides(self):
        contig = np.zeros((4, 8))
        strided = _strided((4, 8))
        assert ChunkLayout.of(contig, strided) == ChunkLayout.of(
            strided, contig
        )

    def test_extent_one_axes_stay_contiguous(self):
        a = np.zeros((3, 1, 8))
        layout = ChunkLayout.of(a[:, :, :], a[:, :, :])
        assert layout.nchunks == 1

    def test_middle_axis_stride_splits_chunks(self):
        full = np.zeros((3, 6, 8))
        view = full[:, ::2, :]  # rows of 8 contiguous, strided in y
        layout = ChunkLayout.of(np.zeros((3, 3, 8)), view)
        assert layout.lead_ndim == 2
        assert layout.nchunks == 9
        assert layout.chunk_elems == 8

    def test_empty_array_is_zero_bytes(self):
        a = np.zeros((0, 5))
        layout = ChunkLayout.of(a, a)
        assert layout.total_bytes == 0
        # spec() clamps to the cost models' positive domain
        assert layout.spec().nchunks >= 1
        assert layout.spec().chunk_bytes >= 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ChunkLayout.of(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_itemsize_mismatch_rejected(self):
        with pytest.raises(ValueError, match="itemsize mismatch"):
            ChunkLayout.of(np.zeros(4, np.float64), np.zeros(4, np.float32))


class TestEnginesCopyCorrectly:
    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_h2d_strided_src(self, engine_cls):
        engine = engine_cls()
        src = _strided((6, 5, 7))
        dst = np.empty((6, 5, 7))
        engine.h2d(dst, src)
        engine.close()
        np.testing.assert_array_equal(dst, src)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_d2h_noncontiguous_dst(self, engine_cls):
        engine = engine_cls()
        src = np.random.default_rng(1).standard_normal((6, 5))
        host = np.zeros((6, 9))
        dst = host[:, 2:7]
        engine.d2h(dst, src)
        engine.close()
        np.testing.assert_array_equal(dst, src)
        assert np.all(host[:, :2] == 0) and np.all(host[:, 7:] == 0)

    @pytest.mark.parametrize("engine_cls", ALL_ENGINES)
    def test_zero_length_copy_is_a_noop(self, engine_cls):
        engine = engine_cls()
        engine.h2d(np.empty((0, 4)), np.empty((0, 4)))
        engine.close()

    def test_all_engines_bit_identical(self):
        src = _strided((16, 3, 11), seed=3)
        outs = []
        for cls in ALL_ENGINES:
            engine = cls()
            dst = np.empty(src.shape)
            engine.h2d(dst, src)
            engine.close()
            outs.append(dst)
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0], other)

    def test_zero_copy_partitions_match_monolithic(self):
        # More blocks than rows, and rows not divisible by blocks.
        engine = ZeroCopyEngine(blocks=16, workers=4)
        src = _strided((7, 13), seed=5)
        dst = np.empty((7, 13))
        engine.h2d(dst, src)
        engine.close()
        np.testing.assert_array_equal(dst, src)

    def test_zero_copy_validates_params(self):
        with pytest.raises(ValueError):
            ZeroCopyEngine(blocks=0)
        with pytest.raises(ValueError):
            ZeroCopyEngine(workers=0)


class TestObservability:
    def test_counters_and_spans_per_strategy(self):
        obs = Observability.create()
        engine = PerChunkEngine(obs=obs)
        src = _strided((4, 8))
        dst = np.empty((4, 8))
        engine.h2d(dst, src)
        engine.d2h(src.copy(), dst)
        snap = {r["name"]: r.get("value", 0) for r in obs.metrics.snapshot()}
        assert snap["copy.per_chunk.h2d_bytes"] == dst.nbytes
        assert snap["copy.per_chunk.d2h_bytes"] == dst.nbytes
        assert snap["copy.per_chunk.calls"] == 2
        assert snap["copy.per_chunk.chunks"] == 5  # 4 strided h2d runs + 1 contiguous d2h
        names = [a.name for a in obs.spans.activities]
        assert "arena.h2d" in names and "arena.d2h" in names

    def test_span_carries_engine_and_bytes(self):
        obs = Observability.create()
        engine = Batched2DEngine(obs=obs)
        dst = np.empty((4, 8))
        engine.h2d(dst, _strided((4, 8)))
        span = next(
            a for a in obs.spans.activities if a.name == "arena.h2d"
        )
        assert span.meta["engine"] == "memcpy2d"
        assert span.meta["nbytes"] == dst.nbytes


class TestPricing:
    def test_per_chunk_dominated_by_api_time_at_small_chunks(self):
        dst = np.empty((512, 16))
        src = _strided((512, 16))
        layout = ChunkLayout.of(dst, src)
        per_chunk = PerChunkEngine()
        m2d = Batched2DEngine()
        assert per_chunk.price(layout) > 10 * m2d.price(layout)

    def test_zero_copy_beats_memcpy2d_at_tiny_chunks(self):
        # The Fig. 7 crossover the sim-backend autotuner relies on: tiny
        # chunks tank memcpy2d's efficiency while the zero-copy kernel
        # holds its floor.
        dst = np.empty((512, 10))
        src = _strided((512, 10))
        layout = ChunkLayout.of(dst, src)
        assert ZeroCopyEngine().price(layout) < Batched2DEngine().price(layout)


class TestAutotuner:
    def test_probe_happens_once_per_layout(self):
        tuner = CopyAutotuner(repeats=1)
        src = _strided((8, 16))
        dst = np.empty((8, 16))
        first = tuner.choose(dst, src)
        again = tuner.choose(dst, src)
        assert first is again
        assert len(tuner.results) == len(tuner.engines)
        tuner.close()

    def test_new_layout_triggers_new_probe(self):
        tuner = CopyAutotuner(repeats=1)
        tuner.choose(np.empty((8, 16)), _strided((8, 16)))
        tuner.choose(np.empty((4, 32)), _strided((4, 32)))
        assert len(tuner.results) == 2 * len(tuner.engines)
        tuner.close()

    def test_probe_is_bit_exact(self):
        tuner = CopyAutotuner(repeats=2)
        src = _strided((8, 16), seed=9)
        dst = np.empty((8, 16))
        winner = tuner.choose(dst, src)
        # Probing already performed the copy (every engine did).
        np.testing.assert_array_equal(dst, src)
        assert winner.name in ENGINE_NAMES
        tuner.close()

    def test_zero_bytes_short_circuits(self):
        tuner = CopyAutotuner()
        engine = tuner.choose(np.empty((0, 4)), np.empty((0, 4)))
        assert engine is tuner._default
        assert tuner.results == []
        tuner.close()

    def test_sim_kind_uses_models_and_picks_nondefault(self):
        # Deterministic: on the priced backend the tiny-chunk layout must
        # select the zero-copy kernel over the memcpy2d default.
        tuner = CopyAutotuner()
        src = _strided((512, 10))
        winner = tuner.choose(np.empty((512, 10)), src, kind="sim")
        assert winner.name == "zero_copy"
        assert all(r.mode == "model" for r in tuner.results)
        assert any(r.winner for r in tuner.results)
        tuner.close()

    def test_report_marks_winner(self):
        tuner = CopyAutotuner(repeats=1)
        tuner.choose(np.empty((8, 16)), _strided((8, 16)))
        text = tuner.report()
        assert "<- winner" in text
        assert "8x16" in text
        tuner.close()

    def test_records_are_json_ready(self):
        import json

        tuner = CopyAutotuner(repeats=1)
        tuner.choose(np.empty((8, 16)), _strided((8, 16)))
        records = tuner.records()
        json.dumps(records)  # must not raise
        assert sum(r["winner"] for r in records) == 1
        assert {r["strategy"] for r in records} == set(ENGINE_NAMES)
        tuner.close()

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            CopyAutotuner(repeats=0)


class TestAutoEngineAndFactory:
    def test_auto_engine_round_trip(self):
        engine = AutoEngine()
        src = _strided((8, 16), seed=2)
        dst = np.empty((8, 16))
        engine.h2d(dst, src)
        np.testing.assert_array_equal(dst, src)
        back = np.zeros((8, 20))[:, :16]
        engine.d2h(back, dst)
        np.testing.assert_array_equal(back, src)
        engine.close()

    def test_auto_price_is_min_over_engines(self):
        engine = AutoEngine()
        layout = ChunkLayout.of(np.empty((8, 16)), _strided((8, 16)))
        assert engine.price(layout) == min(
            e.price(layout) for e in engine.tuner.engines
        )
        engine.close()

    @pytest.mark.parametrize("name", ["auto", *ENGINE_NAMES])
    def test_factory_builds_each_strategy(self, name):
        engine = make_engine(name)
        assert engine.name == name
        engine.close()

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown copy strategy"):
            make_engine("dma")


class TestStreamSubmission:
    """Copies run as stream operations the way pipeline stages issue them:
    the op's fn calls the engine."""

    def test_sync_stream_executes_the_copy(self):
        from repro.exec import make_backend

        backend = make_backend("sync")
        engine = Batched2DEngine()
        src = _strided((4, 8))
        dst = np.empty((4, 8))
        backend.stream("h2d").submit(
            "arena.h2d", "h2d", lambda: engine.h2d(dst, src)
        )
        backend.shutdown()
        np.testing.assert_array_equal(dst, src)

    def test_threads_stream_executes_the_copy(self):
        from repro.exec import make_backend

        backend = make_backend("threads")
        engine = PerChunkEngine()
        src = _strided((4, 8))
        dst = np.empty((4, 8))
        ev = backend.stream("h2d").submit(
            "arena.h2d", "h2d", lambda: engine.h2d(dst, src)
        )
        ev.wait()
        backend.shutdown()
        np.testing.assert_array_equal(dst, src)
