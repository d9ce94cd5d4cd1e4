"""Tests for the slab-decomposed distributed 3-D FFT.

In process the whole slab is the out-of-core engine's one-pencil case; the
worker-fused :class:`SlabDistributedFFT` runs only over a process pool
(``tests/mpi/test_procs.py``) and refuses any other communicator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.stages import STAGES
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.transforms import fft3d, ifft3d
from repro.spectral.workspace import resolve_fft


def build(n, ranks):
    grid = SpectralGrid(n)
    comm = VirtualComm(ranks)
    return grid, comm, OutOfCoreSlabFFT(grid, comm, npencils=1)


class TestAgainstGroundTruth:
    def test_forward_matches_rfftn(self, rng):
        grid, comm, fft = build(16, 4)
        u = rng.standard_normal(grid.physical_shape)
        hat = fft.decomp.gather_spectral(fft.forward(fft.decomp.scatter_physical(u)))
        assert np.allclose(hat, fft3d(u, grid), atol=1e-13)

    def test_inverse_matches_irfftn(self, rng):
        grid, comm, fft = build(16, 4)
        u_hat = fft3d(rng.standard_normal(grid.physical_shape), grid)
        back = fft.decomp.gather_physical(fft.inverse(fft.decomp.scatter_spectral(u_hat)))
        assert np.allclose(back, ifft3d(u_hat, grid), atol=1e-12)

    def test_roundtrip_identity(self, rng):
        grid, comm, fft = build(24, 3)
        u = rng.standard_normal(grid.physical_shape)
        back = fft.decomp.gather_physical(
            fft.inverse(fft.forward(fft.decomp.scatter_physical(u)))
        )
        assert np.allclose(back, u, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.sampled_from([8, 16, 24]),
        ranks=st.sampled_from([1, 2, 4]),
    )
    def test_forward_property_any_decomposition(self, n, ranks):
        grid, comm, fft = build(n, ranks)
        rng = np.random.default_rng(n + ranks)
        u = rng.standard_normal(grid.physical_shape)
        hat = fft.decomp.gather_spectral(fft.forward(fft.decomp.scatter_physical(u)))
        assert np.allclose(hat, fft3d(u, grid), atol=1e-12)

    def test_result_independent_of_rank_count(self, rng):
        u = rng.standard_normal((16, 16, 16))
        results = []
        for ranks in (1, 2, 4, 8):
            grid, comm, fft = build(16, ranks)
            hat = fft.decomp.gather_spectral(
                fft.forward(fft.decomp.scatter_physical(u))
            )
            results.append(hat)
        for other in results[1:]:
            assert np.allclose(results[0], other, atol=1e-13)


class TestCommunicationPattern:
    def test_exactly_one_alltoall_per_transform(self, rng):
        """The slab decomposition's defining property (paper Sec. 3.1)."""
        grid, comm, fft = build(16, 4)
        u = rng.standard_normal(grid.physical_shape)
        fft.forward(fft.decomp.scatter_physical(u))
        assert comm.stats.count("ialltoall") == 1
        fft.inverse(fft.decomp.scatter_spectral(fft3d(u, grid)))
        assert comm.stats.count("ialltoall") == 2

    def test_shape_validation(self):
        grid, comm, fft = build(16, 4)
        with pytest.raises(ValueError):
            fft.forward([np.zeros((4, 4, 4))] * 4)
        with pytest.raises(ValueError):
            fft.inverse([np.zeros((2, 2, 2), dtype=complex)] * 4)


class TestWorkerFusedEngineNeedsWorkers:
    def test_in_process_comm_is_a_reasoned_error(self):
        with pytest.raises(ValueError, match=r"rank_transpose.*"
                           r"OutOfCoreSlabFFT\(npencils=1\)"):
            SlabDistributedFFT(SpectralGrid(16), VirtualComm(2))


class TestStageTable:
    @pytest.mark.parametrize("real", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(STAGES))
    def test_declared_output_matches_kernel(self, name, real, rng):
        """The shape/dtype a stage declares (what ProcsComm sizes its
        shared-memory blocks with) is what its kernel returns, and a
        buffer of that geometry passed as ``out`` receives the same bits."""
        n = 8
        stage = STAGES[name]
        lf = resolve_fft("numpy")
        shape = (n, 3, n) if stage.real_in else (n, 3, n // 2 + 1)
        a = rng.standard_normal(shape).astype(real)
        if not stage.real_in:
            a = a + 1j * rng.standard_normal(shape).astype(real)
        got = stage.fn(a.copy(), n, lf)
        assert got.shape == stage.out_shape(a.shape, n)
        assert got.dtype == stage.out_dtype(a.dtype)
        assert np.isrealobj(got) == stage.real_out
        out = np.empty(got.shape, got.dtype)
        assert stage.fn(a.copy(), n, lf, out=out) is out
        assert np.array_equal(out, got)


class TestPencilBatchedStage:
    def test_pencil_split_y_stage_matches_unbatched(self, rng):
        """Splitting along x and transforming each pencil separately is
        bit-identical to transforming the whole slab (Fig. 3 batching)."""
        grid, comm, fft = build(16, 4)
        u_hat = fft3d(rng.standard_normal(grid.physical_shape), grid)
        local = fft.decomp.scatter_spectral(u_hat)[1]
        lf = resolve_fft("numpy")
        inv_y = STAGES["inv_y"].fn
        whole = inv_y(local, 16, lf)
        assert np.array_equal(whole, np.fft.ifft(local, axis=1, norm="forward"))
        for npencils in (1, 3):
            pieces = [
                inv_y(block, 16, lf)
                for block in np.array_split(local, npencils, axis=2)
            ]
            assert np.array_equal(np.concatenate(pieces, axis=2), whole)
