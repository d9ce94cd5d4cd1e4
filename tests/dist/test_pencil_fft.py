"""Tests for the 2-D pencil-decomposed distributed FFT (the CPU baseline)."""

import numpy as np
import pytest

from repro.dist.pencil_fft import PencilDistributedFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.transforms import fft3d


def build(n, rows, cols):
    grid = SpectralGrid(n)
    comm = VirtualComm(rows * cols)
    return grid, comm, PencilDistributedFFT(grid, comm, rows, cols)


class TestAgainstGroundTruth:
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
    def test_forward_matches_rfftn(self, rng, rows, cols):
        grid, comm, fft = build(12, rows, cols)
        u = rng.standard_normal(grid.physical_shape)
        hat = fft.gather_spectral(fft.forward(fft.decomp.scatter_physical(u)))
        assert np.allclose(hat, fft3d(u, grid), atol=1e-12)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3)])
    def test_roundtrip_identity(self, rng, rows, cols):
        grid, comm, fft = build(12, rows, cols)
        u = rng.standard_normal(grid.physical_shape)
        back = fft.decomp.gather_physical(
            fft.inverse(fft.forward(fft.decomp.scatter_physical(u)))
        )
        assert np.allclose(back, u, atol=1e-12)

    def test_agrees_with_slab_path(self, rng):
        from repro.dist.slab_fft import SlabDistributedFFT

        grid = SpectralGrid(12)
        u = rng.standard_normal(grid.physical_shape)
        _, _, pencil = build(12, 2, 3)
        slab = SlabDistributedFFT(grid, VirtualComm(4))
        hat_p = pencil.gather_spectral(
            pencil.forward(pencil.decomp.scatter_physical(u))
        )
        hat_s = slab.decomp.gather_spectral(
            slab.forward(slab.decomp.scatter_physical(u))
        )
        assert np.allclose(hat_p, hat_s, atol=1e-12)


class TestCommunicationPattern:
    def test_two_alltoall_rounds_per_transform(self, rng):
        """The 2-D decomposition needs two exchanges (row + column) per 3-D
        FFT — twice the slab count, the crux of the paper's Sec. 3.1 choice."""
        grid, comm, fft = build(12, 2, 3)
        u = rng.standard_normal(grid.physical_shape)
        fft.forward(fft.decomp.scatter_physical(u))
        # One sub-exchange per row group (3 cols... groups) per round:
        # round 1: cols groups of size rows; round 2: rows groups of size cols.
        kinds = [r.kind for r in comm.stats.records]
        assert all(k == "alltoall" for k in kinds)
        assert len(kinds) == fft.decomp.cols + fft.decomp.rows
        # ... against one exchange, moving fewer bytes, for slabs at equal P.
        from repro.dist.slab_fft import SlabDistributedFFT

        slab_comm = VirtualComm(6)
        slab = SlabDistributedFFT(grid, slab_comm)
        slab.forward(slab.decomp.scatter_physical(u))
        assert slab_comm.stats.count("alltoall") == 1
        assert comm.stats.total_bytes > slab_comm.stats.total_bytes

    def test_spectral_local_shapes(self):
        grid, comm, fft = build(12, 2, 3)
        shapes = [fft.spectral_local_shape(r) for r in range(6)]
        # Half-complex extent 7 split over 2 rows: 4 + 3.
        assert shapes[0] == (12, 4, 4)
        assert shapes[5] == (12, 4, 3)
        # Together the pieces tile the (12, 12, 7) spectral box.
        total = sum(s[1] * s[2] for s in shapes)
        assert total == 12 * 7

    def test_forward_shape_validation(self):
        grid, comm, fft = build(12, 2, 3)
        with pytest.raises(ValueError):
            fft.forward([np.zeros((3, 3, 3))] * 6)

    def test_rank_grid_mismatch_rejected(self):
        grid = SpectralGrid(12)
        with pytest.raises(ValueError):
            PencilDistributedFFT(grid, VirtualComm(5), 2, 3)
