"""Tests for the spectral grid: wavenumbers, weights, shells."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.grid import SpectralGrid


class TestConstruction:
    def test_shapes(self, grid16):
        assert grid16.physical_shape == (16, 16, 16)
        assert grid16.spectral_shape == (16, 16, 9)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            SpectralGrid(15)
        with pytest.raises(ValueError):
            SpectralGrid(2)

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            SpectralGrid(16, dtype=np.int32)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            SpectralGrid(16, length=0.0)

    def test_complex_dtype_matches_real(self):
        assert SpectralGrid(16, dtype=np.float32).cdtype == np.complex64
        assert SpectralGrid(16, dtype=np.float64).cdtype == np.complex128


class TestWavenumbers:
    def test_kx_nonnegative_up_to_nyquist(self, grid16):
        kx = grid16.kx.ravel()
        assert kx[0] == 0.0
        assert kx[-1] == 8.0
        assert np.all(np.diff(kx) > 0)

    def test_ky_kz_signed(self, grid16):
        ky = grid16.ky.ravel()
        assert ky[0] == 0.0
        assert ky[8] == -8.0  # Nyquist stored as negative by fftfreq
        assert ky[1] == 1.0
        assert ky[-1] == -1.0

    def test_broadcast_shapes(self, grid16):
        assert grid16.kz.shape == (16, 1, 1)
        assert grid16.ky.shape == (1, 16, 1)
        assert grid16.kx.shape == (1, 1, 9)
        assert grid16.k_squared.shape == grid16.spectral_shape

    def test_nonunit_domain_scales_wavenumbers(self):
        g = SpectralGrid(16, length=np.pi)
        assert g.k_fundamental == pytest.approx(2.0)
        assert g.kx.ravel()[1] == pytest.approx(2.0)

    def test_k_squared_nonzero_safe(self, grid16):
        assert grid16.k_squared_nonzero[0, 0, 0] == 1.0
        assert grid16.k_squared[0, 0, 0] == 0.0

    def test_derivative_matches_analytic(self, grid16):
        """i*k multiplication differentiates sin(3x) exactly."""
        from repro.spectral.transforms import fft3d, ifft3d

        z, y, x = grid16.coordinates
        u = np.sin(3 * x) * np.ones_like(y) * np.ones_like(z)
        du = ifft3d(1j * grid16.kx * fft3d(u, grid16), grid16)
        assert np.allclose(du, 3 * np.cos(3 * x), atol=1e-12)


class TestWeightsAndShells:
    def test_hermitian_weights_values(self, grid16):
        w = grid16.hermitian_weights
        assert np.all(w[:, :, 0] == 1.0)
        assert np.all(w[:, :, -1] == 1.0)
        assert np.all(w[:, :, 1:-1] == 2.0)

    def test_weights_count_all_modes(self, grid16):
        """Sum of weights equals N^3: every full-cube mode counted once."""
        assert grid16.hermitian_weights.sum() == pytest.approx(16**3)

    def test_shell_index_origin_and_axis(self, grid16):
        shells = grid16.shell_index
        assert shells[0, 0, 0] == 0
        assert shells[0, 0, 1] == 1
        assert shells[0, 1, 0] == 1
        assert shells[1, 1, 1] == 2  # |k|=sqrt(3)=1.73 -> rounds to 2

    def test_num_shells_covers_max(self, grid16):
        assert grid16.num_shells == int(grid16.shell_index.max()) + 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([8, 12, 16, 24, 32]))
    def test_parseval_weights_any_size(self, n):
        g = SpectralGrid(n)
        assert g.hermitian_weights.sum() == pytest.approx(n**3)


class TestNoGridTablesKept:
    """The grid caches its 1-D wavenumbers and nothing grid-sized: the
    full tables are computed when asked, for the one caller that asks."""

    def test_nothing_grid_sized_after_an_initial_condition_and_a_step(self):
        from numpy.lib.array_utils import byte_bounds

        from repro.spectral import NavierStokesSolver, SolverConfig
        from repro.spectral.diagnostics import energy_spectrum
        from repro.spectral.forcing import BandForcing
        from repro.spectral.initial import random_isotropic_field

        grid = SpectralGrid(16)
        u0 = random_isotropic_field(grid, np.random.default_rng(0), energy=1.0)
        solver = NavierStokesSolver(
            grid, u0, SolverConfig(nu=0.05, diagnostics_every=1),
            forcing=BandForcing())
        assert np.isfinite(solver.step(1e-3).energy)
        energy_spectrum(solver.u_hat, grid)
        held = [a for value in vars(grid).values()
                for a in (value if isinstance(value, tuple) else (value,))
                if isinstance(a, np.ndarray)]
        assert any(a.shape == grid.spectral_shape for a in held)  # weights
        for a in held:
            low, high = byte_bounds(a)
            assert high - low <= grid.n * a.itemsize, a.shape

    def test_weights_are_a_read_only_view(self, grid16):
        w = grid16.hermitian_weights
        assert not w.flags.writeable
        assert w.strides[:2] == (0, 0)

    @pytest.mark.parametrize("n,length,dtype", [
        (8, 2 * np.pi, np.float64), (30, 1.0, np.float64),
        (24, 3.0, np.float32)])
    def test_num_shells_from_the_corner(self, n, length, dtype):
        g = SpectralGrid(n, length, dtype)
        assert g.num_shells == int(g.shell_index.max()) + 1


class TestAllocators:
    def test_empty_physical_shapes(self, grid16):
        assert grid16.empty_physical().shape == (16, 16, 16)
        assert grid16.empty_physical(3).shape == (3, 16, 16, 16)

    def test_zeros_spectral_dtype(self, grid16):
        z = grid16.zeros_spectral(3)
        assert z.shape == (3, 16, 16, 9)
        assert z.dtype == grid16.cdtype
        assert np.all(z == 0)
