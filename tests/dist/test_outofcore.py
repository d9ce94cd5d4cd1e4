"""Tests for the functional out-of-core (pencil-batched) slab FFT."""

import numpy as np
import pytest

from repro.cuda.copyengine import Batched2DEngine
from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.outofcore import (
    DeviceArena,
    DeviceMemoryExceeded,
    OutOfCoreSlabFFT,
    PencilRings,
)
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral import random_isotropic_field
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig
from repro.spectral.transforms import fft3d
from repro.spectral.workspace import LineTransforms


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


class TestOutOfCoreFFT:
    def test_matches_in_core_forward(self, rng):
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        in_core = SlabDistributedFFT(grid, VirtualComm(4))
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(4), npencils=3)
        ref = in_core.decomp.gather_spectral(
            in_core.forward(in_core.decomp.scatter_physical(u))
        )
        got = ooc.decomp.gather_spectral(
            ooc.forward(ooc.decomp.scatter_physical(u))
        )
        assert np.allclose(got, ref, atol=1e-13)

    def test_matches_in_core_inverse(self, rng):
        grid = SpectralGrid(24)
        u_hat = fft3d(rng.standard_normal(grid.physical_shape), grid)
        in_core = SlabDistributedFFT(grid, VirtualComm(2))
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=4)
        ref = in_core.decomp.gather_physical(
            in_core.inverse(in_core.decomp.scatter_spectral(u_hat))
        )
        got = ooc.decomp.gather_physical(
            ooc.inverse(ooc.decomp.scatter_spectral(u_hat))
        )
        assert np.allclose(got, ref, atol=1e-12)

    def test_roundtrip(self, rng):
        grid = SpectralGrid(16)
        u = rng.standard_normal(grid.physical_shape)
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(4), npencils=2)
        back = ooc.decomp.gather_physical(
            ooc.inverse(ooc.forward(ooc.decomp.scatter_physical(u)))
        )
        assert np.allclose(back, u, atol=1e-12)

    def test_working_set_is_pencil_sized(self, rng):
        """The whole point of the batching: the device high-water mark stays
        ~2 pencils no matter how big the slab is."""
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=3)
        ooc.forward(ooc.decomp.scatter_physical(u))
        slab_bytes = (
            ooc.decomp.mz * 24 * 13 * np.dtype(grid.cdtype).itemsize
        )
        # High-water <= 2 (uneven) pencils, strictly less than the slab.
        assert ooc.arena.high_water <= 2.5 * slab_bytes / 3
        assert ooc.arena.high_water < slab_bytes
        assert ooc.arena.in_use == 0  # everything released

    def test_whole_slab_does_not_fit_without_batching(self, rng):
        """With np=1 the 'slab' pencil exceeds a pencil-sized arena: the
        paper's motivating failure, reproduced as a real exception."""
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        small = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=3)
        budget = small.arena.capacity
        whole = OutOfCoreSlabFFT(
            grid, VirtualComm(2), npencils=1, device_bytes=budget
        )
        with pytest.raises(DeviceMemoryExceeded):
            whole.forward(whole.decomp.scatter_physical(u))

    def test_more_pencils_lower_high_water(self, rng):
        grid = SpectralGrid(24)
        u = rng.standard_normal(grid.physical_shape)
        marks = {}
        for np_ in (2, 4):
            ooc = OutOfCoreSlabFFT(
                grid, VirtualComm(2), npencils=np_, device_bytes=1e9
            )
            ooc.forward(ooc.decomp.scatter_physical(u))
            marks[np_] = ooc.arena.high_water
        assert marks[4] < marks[2]

    def test_invalid_npencils_rejected(self):
        grid = SpectralGrid(16)
        with pytest.raises(ValueError):
            OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=5)


def _counted(name):
    def method(self, a, *args, **kwargs):
        self.elements[name] += a.size
        return getattr(LineTransforms, name)(self, a, *args, **kwargs)

    return method


class _CountingLines(LineTransforms):
    """NumPy line transforms that tally the elements each method is fed."""

    def __init__(self):
        self.elements = {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 0}

    fft, ifft = _counted("fft"), _counted("ifft")
    rfft, irfft = _counted("rfft"), _counted("irfft")


class TestFftBackendIsHonoured:
    """``SolverConfig.fft_backend`` reaches the out-of-core engine too."""

    def test_out_of_core_transforms_go_through_the_provider(self, rng):
        grid = SpectralGrid(16)
        u0 = random_isotropic_field(grid, rng, energy=1.0)
        fed = {}
        for engine, kwargs in (("slab", {}), ("ooc", {"npencils": 4})):
            lines = _CountingLines()
            with DistributedNavierStokesSolver(
                grid, VirtualComm(2), u0,
                SolverConfig(nu=0.02, fft_backend=lines), **kwargs,
            ) as solver:
                solver.step(1e-3)
            fed[engine] = lines.elements
        assert all(count > 0 for count in fed["slab"].values())
        assert fed["ooc"] == fed["slab"]

    @pytest.mark.parametrize("npencils", [None, 4])
    def test_unavailable_backend_is_rejected_at_construction(
        self, npencils, rng, monkeypatch
    ):
        from repro.spectral import workspace

        monkeypatch.setattr(
            workspace.FftwLineTransforms, "available", classmethod(lambda cls: False)
        )
        monkeypatch.delitem(workspace._line_cache, "fftw", raising=False)
        grid = SpectralGrid(16)
        with pytest.raises(ValueError, match="'fftw' is not available"):
            DistributedNavierStokesSolver(
                grid, VirtualComm(2), random_isotropic_field(grid, rng),
                SolverConfig(fft_backend="fftw"), npencils=npencils,
            )
