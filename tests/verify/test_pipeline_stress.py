"""PencilPipeline stress matrix: window bounds across both backends.

Tier-1 keeps a representative slice; the full inflight x npencils x backend
product (and the poisoning sweep) runs under ``-m fuzz``.  Every run is
bounded by a hard watchdog so a scheduling bug fails fast instead of
hanging CI.
"""

import threading

import pytest

from repro.exec import PencilPipeline, PipelineStage, SyncBackend, ThreadBackend
from repro.verify import watchdog

WATCHDOG_SECONDS = 30.0


def _run_matrix_case(kind, inflight, npencils):
    """One pipeline run; returns the completion log for FIFO checks."""
    log, lock = [], threading.Lock()

    def make(stage_name):
        def fn(i):
            with lock:
                log.append((stage_name, i))
        return fn

    backend = SyncBackend() if kind == "sync" else ThreadBackend()
    stages = [
        PipelineStage("h2d", "h2d", "h2d", fn=make("h2d")),
        PipelineStage("fft", "compute", "fft", fn=make("fft")),
        PipelineStage("d2h", "d2h", "d2h", fn=make("d2h")),
    ]
    with watchdog(
        WATCHDOG_SECONDS,
        label=f"stress {kind} inflight={inflight} npencils={npencils}",
    ):
        PencilPipeline(backend, stages, window=inflight).run(npencils)
        backend.shutdown()
    return log


def _check_fifo(log, npencils):
    # Per-item stage order is the FIFO contract every backend shares.
    for i in range(npencils):
        seen = [s for s, j in log if j == i]
        assert seen == ["h2d", "fft", "d2h"], f"item {i}: {seen}"
    # Each stage's stream is FIFO: items complete a stage in order.
    for stage in ("h2d", "fft", "d2h"):
        items = [j for s, j in log if s == stage]
        assert items == sorted(items), f"{stage} completed out of order: {items}"


class TestRepresentativeSlice:
    @pytest.mark.parametrize("kind", ["sync", "threads"])
    @pytest.mark.parametrize("inflight,npencils", [(1, 4), (3, 8)])
    def test_window_and_fifo(self, kind, inflight, npencils):
        _check_fifo(_run_matrix_case(kind, inflight, npencils), npencils)

    def test_poisoned_stream_never_deadlocks_others(self):
        backend = ThreadBackend()
        done = []

        def fft(i):
            if i == 2:
                raise RuntimeError("poisoned pencil 2")
            done.append(i)

        stages = [
            PipelineStage("h2d", "h2d", "h2d", fn=lambda i: None),
            PipelineStage("fft", "compute", "fft", fn=fft),
            PipelineStage("d2h", "d2h", "d2h", fn=lambda i: None),
        ]
        with watchdog(WATCHDOG_SECONDS, label="poisoned stream"):
            with pytest.raises(RuntimeError, match="poisoned pencil 2"):
                PencilPipeline(backend, stages, window=2).run(8)
            # The backend was reset by the pipeline: clean reuse, no hang.
            ok = []
            PencilPipeline(
                backend,
                [PipelineStage("w", "compute", "fft", fn=ok.append)],
                window=2,
            ).run(3)
            backend.shutdown()
        assert ok == [0, 1, 2]


@pytest.mark.fuzz
class TestFullMatrix:
    @pytest.mark.parametrize("kind", ["sync", "threads"])
    @pytest.mark.parametrize("inflight", [1, 2, 3, 4])
    @pytest.mark.parametrize("npencils", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_every_window_depth_and_item_count(self, kind, inflight, npencils):
        _check_fifo(_run_matrix_case(kind, inflight, npencils), npencils)

    @pytest.mark.parametrize("poison_item", [0, 3, 7])
    @pytest.mark.parametrize("poison_stage", ["h2d", "fft", "d2h"])
    def test_poisoning_sweep_never_deadlocks(self, poison_item, poison_stage):
        backend = ThreadBackend()

        def maybe_boom(stage_name):
            def fn(i):
                if stage_name == poison_stage and i == poison_item:
                    raise RuntimeError(f"poisoned {stage_name}[{i}]")
            return fn

        stages = [
            PipelineStage("h2d", "h2d", "h2d", fn=maybe_boom("h2d")),
            PipelineStage("fft", "compute", "fft", fn=maybe_boom("fft")),
            PipelineStage("d2h", "d2h", "d2h", fn=maybe_boom("d2h")),
        ]
        with watchdog(WATCHDOG_SECONDS, label="poisoning sweep"):
            with pytest.raises(RuntimeError, match="poisoned"):
                PencilPipeline(backend, stages, window=3).run(8)
            backend.shutdown()
