"""InvariantMonitor unit tests plus integration with the out-of-core engine."""

import numpy as np
import pytest

from repro.cuda.arena import DeviceArena, PencilRings
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.verify import InvariantMonitor, InvariantViolation, fuzz_profile


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


class TestUnitChecks:
    def test_double_lease_detected(self):
        mon = InvariantMonitor()
        buf = np.zeros(8)
        mon.on_arena_allocate(buf, 64, in_use=64, capacity=1000)
        with pytest.raises(InvariantViolation, match="twice"):
            mon.on_arena_allocate(buf, 64, in_use=128, capacity=1000)

    def test_overbudget_detected(self):
        mon = InvariantMonitor()
        with pytest.raises(InvariantViolation, match="capacity"):
            mon.on_arena_allocate(np.zeros(8), 64, in_use=2000, capacity=1000)

    def test_free_of_unknown_buffer_detected(self):
        mon = InvariantMonitor()
        with pytest.raises(InvariantViolation, match="does not hold"):
            mon.on_arena_free(np.zeros(8), in_use=0)

    def test_ring_overwrite_under_live_ops_detected(self):
        mon = InvariantMonitor(window=2)
        mon.on_op_begin("compute", "fft[0]", item=0)
        mon.on_ring_view("cpx", 0, item=0)
        with pytest.raises(InvariantViolation, match="in flight"):
            mon.on_ring_view("cpx", 0, item=2)  # slot 0 recycled too early

    def test_ring_recycle_after_completion_is_fine(self):
        mon = InvariantMonitor(window=2)
        mon.on_op_begin("compute", "fft[0]", item=0)
        mon.on_ring_view("cpx", 0, item=0)
        mon.on_op_end("compute", "fft[0]", item=0)
        mon.on_ring_view("cpx", 0, item=2)
        assert mon.ok

    def test_window_violation_detected(self):
        mon = InvariantMonitor(window=2)
        mon.on_op_begin("h2d", "h2d[0]", item=0)
        with pytest.raises(InvariantViolation, match="window"):
            mon.on_op_begin("h2d", "h2d[2]", item=2)

    def test_quiescence_flags_leaks(self):
        mon = InvariantMonitor()
        mon.on_arena_allocate(np.zeros(8), 64, in_use=64, capacity=1000)
        with pytest.raises(InvariantViolation, match="still leased"):
            mon.assert_quiescent()

    def test_collect_mode_records_without_raising(self):
        mon = InvariantMonitor(raise_on_violation=False)
        buf = np.zeros(8)
        mon.on_arena_allocate(buf, 64, in_use=64, capacity=1000)
        mon.on_arena_allocate(buf, 64, in_use=128, capacity=1000)
        assert not mon.ok
        assert len(mon.violations) == 1

    def test_id_reuse_cannot_alias(self):
        # The monitor keeps strong refs, so a dead buffer's recycled id()
        # can never collide with a tracked one.
        mon = InvariantMonitor()
        for _ in range(50):
            buf = np.zeros(16)
            mon.on_arena_allocate(buf, 128, in_use=128, capacity=1000)
            mon.on_arena_free(buf, in_use=0)
        assert mon.ok


class TestIntegration:
    def test_arena_and_rings_report_to_monitor(self):
        mon = InvariantMonitor(window=2)
        arena = DeviceArena(10_000)
        arena.monitor = mon
        rings = PencilRings(arena, 2)
        rings.reserve({"cpx": 256})
        rings.view("cpx", 0, (4,), np.complex128)
        with pytest.raises(InvariantViolation, match="still leased"):
            mon.assert_quiescent()  # the live ring is two leases
        mon.violations.clear()
        rings.close()
        assert arena.in_use == 0
        mon.assert_quiescent()
        assert mon.ok and mon.checks > 0

    @pytest.mark.parametrize("pipeline", ["sync", "threads"])
    def test_clean_transforms_hold_all_invariants(self, pipeline):
        grid = SpectralGrid(16)
        P = 2
        mon = InvariantMonitor()
        with OutOfCoreSlabFFT(
            grid, VirtualComm(P), 4, pipeline=pipeline, inflight=2,
            fuzz=fuzz_profile("calm", 5) if pipeline == "threads" else None,
            monitor=mon,
        ) as fft:
            spec = _field(grid, P)
            fft.forward(fft.inverse(spec))
            assert fft.arena.in_use == fft.rings.nbytes
        assert fft.arena.in_use == 0
        mon.assert_quiescent()
        assert mon.ok
        assert mon.checks > 100
        assert mon.window == fft.inflight  # configure() wired it through
