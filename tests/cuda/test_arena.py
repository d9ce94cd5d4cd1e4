"""Tests for the data plane's device: the arena, its rings, their pool and
their sizing rule, which admission control quotes with."""

import itertools

import numpy as np
import pytest

from repro.cuda.arena import (
    BufferPool,
    DeviceArena,
    DeviceMemoryExceeded,
    PencilRings,
)
from repro.cuda.copyengine import Batched2DEngine
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.plan.admission import job_device_bytes
from repro.spectral.grid import SpectralGrid
from repro.spectral.pointwise import PRODUCT_PAIRS


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
        rings = PencilRings(
            arena, 1, {"real": view.nbytes}, engine=Batched2DEngine()
        )
        slot = rings.load("real", 0, view.shape, view.dtype, view)
        slot *= 2
        rings.store("real", 0, view.shape, view.dtype, host[:, 1:4])
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


class TestBufferPool:
    def test_take_give_reuses_exact_key(self):
        pool = BufferPool()
        a = pool.take((4, 4), np.float64)
        pool.give(a)
        assert pool.take((4, 4), np.float64) is a
        assert pool.take((4, 4), np.float32) is not a
        assert pool.hits == 1 and pool.misses == 2

    def test_free_list_bounded(self):
        pool = BufferPool(max_per_key=2)
        bufs = [pool.take((8,), np.float64) for _ in range(4)]
        for b in bufs:
            pool.give(b)
        # Only two retained; two more takes hit, the next misses.
        pool.take((8,), np.float64)
        pool.take((8,), np.float64)
        misses_before = pool.misses
        pool.take((8,), np.float64)
        assert pool.misses == misses_before + 1

    def test_concurrent_take_give_from_two_threads(self):
        import threading

        pool = BufferPool(max_per_key=8)
        errors = []
        barrier = threading.Barrier(2)

        def worker(tag):
            try:
                barrier.wait()
                for _ in range(500):
                    buf = pool.take((16,), np.float64)
                    buf[:] = tag
                    # The pool must never hand one buffer to both threads:
                    # nobody else writes our value while we hold it.
                    if not np.all(buf == tag):
                        raise AssertionError("buffer shared between threads")
                    pool.give(buf)
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in (1.0, 2.0)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert pool.hits + pool.misses == 1000

    def test_concurrent_monitor_sees_no_double_insert(self):
        import threading

        from repro.verify import InvariantMonitor

        pool = BufferPool(max_per_key=4)
        mon = InvariantMonitor()
        pool.monitor = mon
        errors = []
        barrier = threading.Barrier(2)

        def worker():
            try:
                barrier.wait()
                for _ in range(400):
                    pool.give(pool.take((8,), np.float64))
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert mon.ok and mon.checks >= 1600


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
