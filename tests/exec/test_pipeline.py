"""Tests for PencilPipeline: the Fig. 4 schedule on both backends."""

import threading

import pytest

from repro.exec import (
    PencilPipeline,
    PipelineStage,
    SyncBackend,
    ThreadBackend,
)
from repro.obs import Observability


def _stage_recorder(log, lock):
    def make(stage_name):
        def fn(i):
            with lock:
                log.append((stage_name, i))
        return fn
    return make


class TestScheduleOrdering:
    @pytest.mark.parametrize("backend_factory", [SyncBackend, ThreadBackend])
    def test_per_item_stage_order(self, backend_factory):
        backend = backend_factory()
        log, lock = [], threading.Lock()
        make = _stage_recorder(log, lock)
        stages = [
            PipelineStage("h2d", "h2d", "h2d", fn=make("h2d")),
            PipelineStage("fft", "compute", "fft", fn=make("fft")),
            PipelineStage("d2h", "d2h", "d2h", fn=make("d2h")),
        ]
        PencilPipeline(backend, stages, window=2).run(6)
        backend.shutdown()
        for i in range(6):
            seen = [s for s, j in log if j == i]
            assert seen == ["h2d", "fft", "d2h"], f"item {i}: {seen}"

    def test_when_filter_skips_items(self):
        backend = SyncBackend()
        log, lock = [], threading.Lock()
        make = _stage_recorder(log, lock)
        stages = [
            PipelineStage("work", "compute", "fft", fn=make("work")),
            PipelineStage(
                "comm", "comm", "mpi", fn=make("comm"),
                when=lambda i: i % 3 == 2,
            ),
        ]
        PencilPipeline(backend, stages, window=2).run(6)
        assert [i for s, i in log if s == "comm"] == [2, 5]

    def test_window_bounds_in_flight_items(self):
        backend = ThreadBackend()
        lock = threading.Lock()
        live, peak = [0], [0]

        def enter(i):
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])

        def leave(i):
            with lock:
                live[0] -= 1

        stages = [
            PipelineStage("first", "h2d", "h2d", fn=enter),
            PipelineStage("last", "d2h", "d2h", fn=leave),
        ]
        PencilPipeline(backend, stages, window=2).run(30)
        backend.shutdown()
        # With a window of 2, at most 2 items are between their first and
        # final stage at any instant (plus transient submit-side slack of 1).
        assert peak[0] <= 3

    def test_empty_stage_list_rejected(self):
        with pytest.raises(ValueError):
            PencilPipeline(SyncBackend(), [], window=2)

    def test_bad_window_rejected(self):
        stage = PipelineStage("x", "s", fn=lambda i: None)
        with pytest.raises(ValueError):
            PencilPipeline(SyncBackend(), [stage], window=0)


class TestErrorPropagation:
    @pytest.mark.parametrize("backend_factory", [SyncBackend, ThreadBackend])
    def test_stage_error_raises_and_backend_is_reusable(self, backend_factory):
        backend = backend_factory()

        def maybe_boom(i):
            if i == 3:
                raise RuntimeError("pencil 3 failed")

        stages = [PipelineStage("work", "compute", "fft", fn=maybe_boom)]
        pipe = PencilPipeline(backend, stages, window=2)
        with pytest.raises(RuntimeError, match="pencil 3 failed"):
            pipe.run(6)
        # After the failure the same pipeline object runs clean work.
        ok = []
        PencilPipeline(
            backend,
            [PipelineStage("work", "compute", "fft", fn=ok.append)],
            window=2,
        ).run(3)
        backend.shutdown()
        assert ok == [0, 1, 2]


class TestSpanVocabulary:
    def test_thread_pipeline_spans_one_lane_per_stream(self):
        """The span categories are the vocabulary the cost plane shares
        (``h2d`` / ``fft`` / ``d2h``); trace_export renders one lane per
        stream from them."""
        stages = [
            PipelineStage("h2d", "h2d", "h2d", fn=lambda i: None),
            PipelineStage("fft", "compute", "fft", fn=lambda i: None),
            PipelineStage("d2h", "d2h", "d2h", fn=lambda i: None),
        ]
        obs = Observability.create()
        tb = ThreadBackend(obs=obs)
        PencilPipeline(tb, stages, window=2).run(3)
        tb.shutdown()
        measured = obs.spans.to_tracer()

        assert {a.category for a in measured} == {"h2d", "fft", "d2h"}
        assert {a.lane for a in measured} == {
            "stream.h2d", "stream.compute", "stream.d2h"
        }
        # Operation names item-for-item.
        assert {a.name for a in measured} == {
            f"{stage}[{i}]" for stage in ("h2d", "fft", "d2h") for i in range(3)
        }
