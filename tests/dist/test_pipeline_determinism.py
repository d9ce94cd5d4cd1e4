"""Determinism suite: the threaded pipeline is bit-identical to sync.

The async runtime's correctness contract (and the paper's, Sec. 3.4) is
that asynchrony reorders *execution*, never *data*: every pencil's FFTs are
independent and every chunked exchange moves the same bytes, so the
worker-thread pipeline must produce arrays that are bit-for-bit equal to
the inline reference — across worker interleavings, in-flight depths and
pencil counts.  Also covers arena accounting under mid-pipeline failures
(the ``lease`` context manager satellite).
"""

import numpy as np
import pytest

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.outofcore import DeviceArena, DeviceMemoryExceeded, OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig


def _spectral_field(grid, P, seed=0):
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


class TestBitIdenticalTransforms:
    @pytest.mark.parametrize("inflight", [1, 2, 3])
    @pytest.mark.parametrize("n,P,npencils", [(16, 2, 4), (24, 3, 4), (16, 4, 8)])
    def test_threads_match_sync_reference(self, n, P, npencils, inflight):
        grid = SpectralGrid(n)
        spec = _spectral_field(grid, P)

        with OutOfCoreSlabFFT(
            grid, VirtualComm(P), npencils, pipeline="sync"
        ) as ref:
            ref_phys = ref.inverse(spec)
            ref_spec = ref.forward(ref_phys)

        with OutOfCoreSlabFFT(
            grid, VirtualComm(P), npencils, pipeline="threads",
            inflight=inflight,
        ) as fft:
            phys = fft.inverse(spec)
            back = fft.forward(phys)
            for a, b in zip(phys, ref_phys):
                assert np.array_equal(a, b)  # bit-identical, not allclose
            for a, b in zip(back, ref_spec):
                assert np.array_equal(a, b)
            assert fft.arena.in_use == 0

    def test_repeated_threaded_runs_are_stable(self):
        grid = SpectralGrid(16)
        spec = _spectral_field(grid, 2)
        with OutOfCoreSlabFFT(
            grid, VirtualComm(2), 4, pipeline="threads"
        ) as fft:
            first = fft.inverse(spec)
            for _ in range(3):
                again = fft.inverse(spec)
                for a, b in zip(again, first):
                    assert np.array_equal(a, b)


class TestEachRankIsADevice:
    """Every rank computes on its own lane ``compute[r]``.  That lanes give
    the inline bits is the engine-invariance property's
    (``tests/verify/test_invariance.py``); what it cannot do is make the
    interpreter switch threads every microsecond."""

    def test_more_lanes_than_cores_under_fast_switching(self):
        """Eight rank lanes with the interpreter switching threads every
        microsecond: a rank op writing another rank's slot, or a wait that
        returns before its lane is done, would change the bits."""
        import sys

        n, P = 16, 8
        grid = SpectralGrid(n)
        rng = np.random.default_rng(9)
        shape = (3, *grid.spectral_shape)
        u0 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            grid.cdtype
        )
        cfg = SolverConfig(nu=0.02, scheme="rk2", phase_shift=True, seed=4,
                           diagnostics_every=1)
        results = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for pipeline in ("sync", "threads"):
                with DistributedNavierStokesSolver(
                    grid, VirtualComm(P), u0, cfg, npencils=2,
                    pipeline=pipeline, inflight=3,
                ) as solver:
                    energies = [solver.step(1e-3).energy for _ in range(3)]
                    results[pipeline] = (solver.gather_state(), energies)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(results["threads"][0], results["sync"][0])
        assert results["threads"][1] == results["sync"][1]


class RankFault(Exception):
    """Raised by a deliberately broken pointwise op."""


class TestRankOpFailure:
    """An exception inside one rank's pointwise op surfaces from ``step()``
    as itself — not as a ``DependencyFailed`` of some later wait — and the
    engine serves the next step, on the same bits as the inline engine.

    The state after the fault is not physical: RK2's first combination
    writes ``u*`` over the state, and the ranks before the broken one have
    done so when it raises.  The step after it checks the engine (its
    lanes, arena and pipeline), not the flow; a caller treats a raised
    step as the end of the run (DESIGN.md §8)."""

    @staticmethod
    def _run(make_solver):
        n, P = 16, 2
        grid = SpectralGrid(n)
        rng = np.random.default_rng(3)
        shape = (3, *grid.spectral_shape)
        u0 = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            grid.cdtype
        )
        cfg = SolverConfig(nu=0.02, scheme="rk2", phase_shift=True, seed=11)
        with make_solver(grid, VirtualComm(P), u0, cfg) as solver:
            solver.step(1e-3)
            # The last rank: every lane order then agrees with the inline
            # one that the ranks before it have finished their combination.
            broken = solver._kernels[P - 1]

            def combine(*args, **kwargs):
                raise RankFault("rank combine failed")

            broken.combine = combine
            with pytest.raises(RankFault):
                solver.step(1e-3)
            del broken.combine
            solver.step(1e-3)
            assert solver.fft.arena.in_use == 0
            return solver, solver.gather_state()

    def _reference(self):
        def make(grid, comm, u0, cfg):
            return DistributedNavierStokesSolver(
                grid, comm, u0, cfg, npencils=4, pipeline="sync")
        return self._run(make)[1]

    def test_threads(self):
        def make(grid, comm, u0, cfg):
            return DistributedNavierStokesSolver(
                grid, comm, u0, cfg, npencils=4, pipeline="threads")
        assert np.array_equal(self._run(make)[1], self._reference())

    def test_fuzz_backend(self):
        from repro.verify import InvariantMonitor
        from repro.verify.fuzz import fuzz_profile

        monitor = InvariantMonitor()

        def make(grid, comm, u0, cfg):
            return DistributedNavierStokesSolver(
                grid, comm, u0, cfg, npencils=4, pipeline="threads",
                fuzz=fuzz_profile("chaos", 3), monitor=monitor)
        solver, state = self._run(make)
        assert np.array_equal(state, self._reference())
        monitor.assert_quiescent()
        assert monitor.ok and solver.fft._backend.stats["reordered"] > 0

    def test_replay_backend(self):
        """Recorded and replayed in submission order; every epoch's window
        gates hold, and no rank op passes for a pencil item."""
        from repro.verify import ReplayBackend

        backend = ReplayBackend(order="submission")

        def make(grid, comm, u0, cfg):
            solver = DistributedNavierStokesSolver(
                grid, comm, u0, cfg, npencils=4, pipeline="threads", inflight=3)
            solver.fft._backend = backend
            return solver
        assert np.array_equal(self._run(make)[1], self._reference())
        ranks = [op for graph in backend.graphs for op in graph.ops
                 if op.category == "pointwise"]
        assert ranks and all(op.item is None for op in ranks)
        for graph in backend.graphs:
            graph.verify_window(3)


class TestArenaAccountingUnderFailure:
    def test_lease_returns_bytes_on_exception(self):
        arena = DeviceArena(1000)
        with pytest.raises(RuntimeError, match="boom"):
            with arena.lease((10,), np.float64) as buf:
                assert arena.in_use == 80
                buf[:] = 1.0
                raise RuntimeError("boom")
        assert arena.in_use == 0
        assert arena.high_water == 80

    def test_lease_nested_budget(self):
        arena = DeviceArena(200)
        with arena.lease((10,), np.float64):
            with pytest.raises(DeviceMemoryExceeded):
                with arena.lease((20,), np.float64):
                    pass  # pragma: no cover - never entered
        assert arena.in_use == 0

    @pytest.mark.parametrize("pipeline", ["sync", "threads"])
    def test_mid_pipeline_failure_releases_all_bytes(self, pipeline):
        grid = SpectralGrid(16)
        P = 2
        spec = _spectral_field(grid, P)
        fft = OutOfCoreSlabFFT(grid, VirtualComm(P), 4, pipeline=pipeline)
        calls = {"n": 0}
        real_d2h = fft._copy_engine.d2h

        def failing_d2h(dst, src, spans=None):
            calls["n"] += 1
            if calls["n"] == 3:  # fail mid-flight, on the second item
                raise RuntimeError("injected d2h failure")
            return real_d2h(dst, src, spans=spans)

        fft._copy_engine.d2h = failing_d2h
        with pytest.raises(RuntimeError, match="injected d2h failure"):
            fft.inverse(spec)
        assert fft.arena.in_use == 0  # every ring slot returned

        # The engine stays usable: restore the copy and run clean.
        fft._copy_engine.d2h = real_d2h
        with OutOfCoreSlabFFT(
            grid, VirtualComm(P), 4, pipeline="sync"
        ) as ref:
            expect = ref.inverse(spec)
        got = fft.inverse(spec)
        for a, b in zip(got, expect):
            assert np.array_equal(a, b)
        assert fft.arena.in_use == 0
        fft.close()

    def test_concurrent_lease_release_from_two_threads(self):
        import threading

        arena = DeviceArena(100_000)
        errors = []
        barrier = threading.Barrier(2)

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                barrier.wait()
                for _ in range(300):
                    n = int(rng.integers(1, 50))
                    with arena.lease((n,), np.float64) as buf:
                        buf[:] = seed  # touch the lease
                        if arena.in_use > arena.capacity:
                            raise AssertionError("in_use exceeded capacity")
                        if not np.all(buf == seed):
                            raise AssertionError("lease aliased across threads")
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert arena.in_use == 0
        assert arena.high_water > 0

    def test_concurrent_leases_hold_monitor_invariants(self):
        import threading

        from repro.verify import InvariantMonitor

        mon = InvariantMonitor()
        arena = DeviceArena(100_000)
        arena.monitor = mon
        arena.pool.monitor = mon
        errors = []
        barrier = threading.Barrier(2)

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                barrier.wait()
                for _ in range(200):
                    with arena.lease((int(rng.integers(1, 40)),), np.float64):
                        pass
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in (3, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert arena.in_use == 0
        mon.assert_quiescent()
        assert mon.ok and mon.checks >= 800

    def test_whole_slab_overflow_leaves_clean_arena(self):
        grid = SpectralGrid(16)
        P = 2
        spec = _spectral_field(grid, P)
        fft = OutOfCoreSlabFFT(
            grid, VirtualComm(P), 4, device_bytes=64, pipeline="threads"
        )
        with pytest.raises(DeviceMemoryExceeded):
            fft.inverse(spec)
        assert fft.arena.in_use == 0
        fft.close()
