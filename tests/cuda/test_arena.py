"""Tests for the data plane's device: the arena, the rings claimed from it
once, and their sizing rule, which admission control quotes with."""

import itertools

import numpy as np
import pytest

from repro.cuda.arena import DeviceArena, DeviceMemoryExceeded, PencilRings
from repro.cuda.copyengine import Batched2DEngine
from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import Observability
from repro.plan.admission import job_device_bytes
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field
from repro.spectral.pointwise import PRODUCT_PAIRS
from repro.spectral.solver import SolverConfig


class TestDeviceArena:
    def test_allocation_accounting(self):
        arena = DeviceArena(1000)
        a = arena.allocate((10,), np.float64)  # 80 B
        assert arena.in_use == 80
        arena.free(a)
        assert arena.in_use == 0
        assert arena.high_water == 80

    def test_budget_enforced(self):
        arena = DeviceArena(100)
        arena.allocate((10,), np.float64)
        with pytest.raises(DeviceMemoryExceeded):
            arena.allocate((10,), np.float64)

    def test_upload_download_roundtrip(self):
        arena = DeviceArena(10_000)
        host = np.arange(24, dtype=float).reshape(4, 6)
        view = host[:, 1:4]  # strided view
        engine = Batched2DEngine()
        rings = PencilRings(arena, 1)
        rings.reserve({"real": view.nbytes})
        slot = rings.view("real", 0, view.shape, view.dtype)
        engine.h2d(slot, view)
        slot *= 2
        engine.d2h(host[:, 1:4], slot)
        rings.close()
        assert np.all(host[:, 1:4] == 2 * np.arange(24).reshape(4, 6)[:, 1:4])
        assert np.all(host[:, 0] == np.arange(24).reshape(4, 6)[:, 0])
        assert arena.in_use == 0

    def test_foreign_free_rejected(self):
        arena = DeviceArena(100)
        with pytest.raises(KeyError):
            arena.free(np.zeros(2))

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            DeviceArena(0)


class TestClaimedOnce:
    """The engine's ring is claimed once, grown when a call needs bigger
    slots, and handed back at close (paper Sec. 3.5)."""

    def test_a_ring_grows_without_holding_both(self):
        arena = DeviceArena(10_000)
        rings = PencilRings(arena, 2)
        rings.reserve({"cpx": 100, "real": 40})
        assert arena.in_use == rings.nbytes == 2 * (112 + 48)
        kept = rings._slots["cpx"][0]
        rings.reserve({"cpx": 64})  # fits: nothing claimed
        assert rings._slots["cpx"][0] is kept
        rings.reserve({"real": 200})
        assert rings.roles == {"cpx": 100, "real": 200}
        assert arena.in_use == rings.nbytes == 2 * (112 + 208)
        assert arena.high_water == rings.nbytes  # old slots went first
        rings.close()
        assert arena.in_use == rings.nbytes == 0

    def test_a_claim_past_the_budget_holds_no_slot(self):
        arena = DeviceArena(300)
        rings = PencilRings(arena, 2)
        rings.reserve({"cpx": 100})
        with pytest.raises(DeviceMemoryExceeded):
            rings.reserve({"cpx": 200})  # the second grown slot is over
        assert arena.in_use == rings.nbytes == 0 and rings.roles == {}
        rings.reserve({"cpx": 100})  # and the ring can be claimed again
        assert arena.in_use == rings.nbytes == 224

    def test_growing_to_a_substage_holds_only_its_slots(self):
        grid, rng = SpectralGrid(16), np.random.default_rng(2)
        with OutOfCoreSlabFFT(grid, VirtualComm(2), 4,
                              pipeline="threads") as fft:
            coeffs = [rng.standard_normal((3, *shape)) + 0j for shape in
                      map(fft.decomp.local_spectral_shape, range(2))]
            fft.inverse([c[0] for c in coeffs])
            single = fft.rings.nbytes
            assert fft.arena.in_use == single > 0
            fft.product_spectra(coeffs, PRODUCT_PAIRS)
            assert fft.arena.in_use == fft.rings.nbytes > single
            assert fft.arena.high_water == fft.rings.nbytes
            fft.inverse([c[0] for c in coeffs])
            assert fft.arena.in_use == fft.rings.nbytes
        assert fft.arena.in_use == 0

    def test_a_run_claims_during_its_first_step_only(self):
        grid = SpectralGrid(16)
        obs = Observability.create()
        acquires = obs.metrics.counter("arena.acquires")
        u0 = random_isotropic_field(grid, np.random.default_rng(4))
        counts = []
        with DistributedNavierStokesSolver(
            grid, VirtualComm(2), u0, SolverConfig(nu=0.02, scheme="rk2"),
            npencils=4, pipeline="threads", obs=obs,
        ) as solver:
            for _ in range(3):
                solver.step(1e-3)
                counts.append(acquires.value)
                assert solver.fft.arena.in_use == solver.fft.rings.nbytes
        assert counts[0] > 0 and counts[2] == counts[1] == counts[0]
        assert solver.fft.arena.in_use == 0


class TestSizingRule:
    def test_admission_quotes_the_arena_the_engine_sizes(self):
        """For every window and partition shape, the arena an unbudgeted
        engine has grown to after a substage is the quoted one, exactly."""
        grid, rng = SpectralGrid(24), np.random.default_rng(5)
        for pipeline, inflight, npencils, ranks in itertools.product(
                ("sync", "threads"), (1, 3), (1, 4), (2, 3)):
            with OutOfCoreSlabFFT(grid, VirtualComm(ranks), npencils,
                                  pipeline=pipeline, inflight=inflight) as fft:
                coeffs = [
                    rng.standard_normal((3, *shape)) + 0j for shape in
                    map(fft.decomp.local_spectral_shape, range(ranks))]
                fft.product_spectra(coeffs, PRODUCT_PAIRS)
                quote = job_device_bytes(
                    24, ranks=ranks, npencils=npencils, pipeline=pipeline,
                    inflight=inflight)
                assert fft.arena.capacity == quote, (
                    pipeline, inflight, npencils, ranks)
