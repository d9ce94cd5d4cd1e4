"""Schedule-explorer tests: graph capture, legal orders, deadlock detection."""

import threading

import numpy as np
import pytest

from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.exec import PencilPipeline, PipelineStage
from repro.spectral.grid import SpectralGrid
from repro.verify import (
    DeadlockTimeout,
    ReplayBackend,
    ScheduleDeadlock,
    ScheduleGraph,
    watchdog,
)
from repro.verify.explorer import _RecordedOp


def _field(grid, P, seed=0):
    from repro.dist.decomp import SlabDecomposition

    d = SlabDecomposition(grid.n, P)
    rng = np.random.default_rng(seed)
    shape = d.local_spectral_shape()
    return [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            grid.cdtype
        )
        for _ in range(P)
    ]


def _stages(log):
    def make(stage_name):
        def fn(i):
            log.append((stage_name, i))
        return fn
    return [
        PipelineStage("h2d", "h2d", "h2d", fn=make("h2d")),
        PipelineStage("fft", "compute", "fft", fn=make("fft")),
        PipelineStage("d2h", "d2h", "d2h", fn=make("d2h")),
    ]


class TestReplayMechanics:
    def test_submission_order_replays_exactly(self):
        backend = ReplayBackend(order="submission")
        log = []
        PencilPipeline(backend, _stages(log), window=2).run(4)
        # Submission order: all of item i's stages precede item i+1's.
        assert log == [
            (s, i) for i in range(4) for s in ("h2d", "fft", "d2h")
        ]
        assert backend.ops_run == 12

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_orders_respect_dependencies(self, seed):
        backend = ReplayBackend(order="random", seed=seed)
        log = []
        PencilPipeline(backend, _stages(log), window=2).run(6)
        for i in range(6):
            seen = [s for s, j in log if j == i]
            assert seen == ["h2d", "fft", "d2h"], f"item {i}: {seen}"

    def test_graph_records_window_gates(self):
        backend = ReplayBackend(order="submission")
        PencilPipeline(backend, _stages([]), window=2).run(6)
        (graph,) = backend.graphs
        graph.verify_window(2)
        with pytest.raises(ScheduleDeadlock, match="window gate"):
            graph.verify_window(1)  # stricter gate than the schedule used

    def test_error_poisons_remaining_ops(self):
        backend = ReplayBackend(order="submission")

        def boom(i):
            if i == 1:
                raise RuntimeError("item 1 failed")

        stages = [PipelineStage("w", "compute", "fft", fn=boom)]
        with pytest.raises(RuntimeError, match="item 1 failed"):
            PencilPipeline(backend, stages, window=2).run(4)

    def test_epochs_accumulate(self):
        backend = ReplayBackend(order="random", seed=1)
        pipe = PencilPipeline(backend, _stages([]), window=2)
        pipe.run(3)
        pipe.run(3)
        assert len(backend.graphs) == 2
        assert len(backend.orders_run) == 2


class TestScheduleGraph:
    def _chain(self, n):
        ops = []
        for i in range(n):
            deps = [ops[-1]] if ops else []
            ops.append(_RecordedOp(i, "s", f"op{i}", "fft", None, {}, deps))
        return ops

    def test_count_orders_chain_is_one(self):
        graph = ScheduleGraph(self._chain(4))
        assert graph.count_orders() == 1

    def test_count_orders_independent_streams(self):
        # Two independent 2-op FIFO chains: C(4,2) = 6 interleavings.
        a = self._chain(2)
        b = []
        for i in range(2):
            deps = [b[-1]] if b else []
            b.append(_RecordedOp(2 + i, "t", f"tp{i}", "fft", None, {}, deps))
        graph = ScheduleGraph(a + b)
        assert graph.count_orders() == 6

    def test_cycle_detected(self):
        x = _RecordedOp(0, "s", "x", "fft", None, {}, [])
        y = _RecordedOp(1, "s", "y", "fft", None, {}, [x])
        x.deps.append(y)  # manufactured cycle
        graph = ScheduleGraph([x, y])
        with pytest.raises(ScheduleDeadlock, match="cycle"):
            graph.assert_schedulable()

    def test_sampled_orders_are_linear_extensions(self):
        graph = ScheduleGraph(self._chain(5))
        rng = np.random.default_rng(3)
        assert graph.sample_order(rng) == [0, 1, 2, 3, 4]


class TestOutOfCoreReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_orders_bit_identical_to_sync(self, seed):
        grid = SpectralGrid(16)
        P = 2
        spec = _field(grid, P)
        with OutOfCoreSlabFFT(grid, VirtualComm(P), 4, pipeline="sync") as ref:
            ref_phys = ref.inverse(spec)
            ref_spec = ref.forward(ref_phys)
        backend = ReplayBackend(order="random", seed=seed)
        with OutOfCoreSlabFFT(
            grid, VirtualComm(P), 4, backend=backend, inflight=3
        ) as fft:
            phys = fft.inverse(spec)
            back = fft.forward(phys)
            assert fft.arena.in_use == fft.rings.nbytes
        assert fft.arena.in_use == 0
        for a, b in zip(phys, ref_phys):
            assert np.array_equal(a, b)
        for a, b in zip(back, ref_spec):
            assert np.array_equal(a, b)
        for graph in backend.graphs:
            graph.verify_window(3)
        assert backend.ops_run > 0


class TestReplayOrders:
    """``repro verify``'s explorer stage replays the engine of the spec it
    verifies, partition and copy strategy included."""

    @pytest.mark.parametrize("partition,heights", [
        pytest.param(dict(heights=(5, 3, 4)), (5, 3, 4), id="heights"),
        pytest.param(dict(skew=2.0), None, id="skew")])
    def test_the_engine_carries_the_specs_partition(
        self, monkeypatch, partition, heights
    ):
        from repro.dist.decomp import skewed_heights
        from repro.serve.spec import JobSpec
        from repro.verify.explorer import replay_orders

        spec = JobSpec(n=12, ranks=3, npencils=2, inflight=3,
                       copy_strategy="zero_copy", **partition)
        built = []
        init = OutOfCoreSlabFFT.__init__

        def spy(self, *args, **kw):
            init(self, *args, **kw)
            built.append((self.decomp.rank_heights, self.copy_strategy,
                          self.npencils))

        monkeypatch.setattr(OutOfCoreSlabFFT, "__init__", spy)
        ops = list(replay_orders(spec, 3))
        want = heights or skewed_heights(12, 3, 2.0)
        assert built == [(want, "zero_copy", 2)] * 4  # sync, then each order
        assert len(ops) == 3 and len(set(ops)) == 1 and ops[0] > 0


class TestWatchdog:
    def test_fast_block_passes(self):
        with watchdog(5.0):
            x = sum(range(1000))
        assert x == 499500

    def test_hung_block_raises_deadlock_timeout(self):
        gate = threading.Event()  # never set: a deliberate lost wakeup
        with pytest.raises(DeadlockTimeout):
            with watchdog(0.2, label="lost-wakeup test"):
                # Timeout-sliced like the backends' waits: one long wait
                # would only see the interrupt when it times out.
                while not gate.wait(0.05):
                    pass

    @pytest.mark.parametrize("seconds", [0.0, -1.0])
    def test_non_positive_limit_is_refused(self, seconds):
        """A zero timer fired while its thread started, outside the guard,
        and surfaced as a bare KeyboardInterrupt."""
        with pytest.raises(ValueError, match="must be positive"):
            with watchdog(seconds):
                pass

    def test_user_interrupt_passes_through(self):
        with pytest.raises(KeyboardInterrupt):
            with watchdog(30.0):
                raise KeyboardInterrupt  # a real ^C, not the watchdog
