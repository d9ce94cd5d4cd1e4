"""Tests for the reference transforms and the staged kernels against them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.dist.stages import STAGES
from repro.spectral.grid import SpectralGrid
from repro.spectral.transforms import fft3d, ifft3d
from repro.spectral.workspace import resolve_fft


class TestRoundTrip:
    def test_roundtrip_identity(self, grid16, rng):
        u = rng.standard_normal(grid16.physical_shape)
        back = ifft3d(fft3d(u, grid16), grid16)
        assert np.allclose(back, u, atol=1e-13)

    def test_normalization_is_fourier_coefficients(self, grid16):
        """A unit-amplitude cosine has coefficient 1/2 at +-k."""
        z, y, x = grid16.coordinates
        u = np.cos(2 * x) * np.ones_like(y * z)
        u_hat = fft3d(u, grid16)
        assert u_hat[0, 0, 2] == pytest.approx(0.5)
        # all other coefficients vanish
        u_hat[0, 0, 2] = 0.0
        assert np.abs(u_hat).max() < 1e-14

    def test_mean_mode(self, grid16):
        u = np.full(grid16.physical_shape, 3.5)
        u_hat = fft3d(u, grid16)
        assert u_hat[0, 0, 0] == pytest.approx(3.5)

    def test_parseval(self, grid16, rng):
        u = rng.standard_normal(grid16.physical_shape)
        u_hat = fft3d(u, grid16)
        phys = np.mean(u**2)
        spec = np.sum(grid16.hermitian_weights * np.abs(u_hat) ** 2)
        assert phys == pytest.approx(spec)

    def test_shape_validation(self, grid16, rng):
        with pytest.raises(ValueError):
            fft3d(rng.standard_normal((8, 8, 8)), grid16)
        with pytest.raises(ValueError):
            ifft3d(np.zeros((8, 8, 5), dtype=complex), grid16)

    def test_float32_grid_returns_float32(self, rng):
        g = SpectralGrid(16, dtype=np.float32)
        u = rng.standard_normal(g.physical_shape).astype(np.float32)
        u_hat = fft3d(u, g)
        assert u_hat.dtype == np.complex64
        assert ifft3d(u_hat, g).dtype == np.float32


class TestStagedTransforms:
    """The distributed stage kernels, composed on a single rank (where a
    kz-slab *is* a y-slab and the transpose is the identity), must agree
    with rfftn — which pins the normalization spread across the stages."""

    @staticmethod
    def _run(first, second, a, n):
        lf = resolve_fft("numpy")
        return STAGES[second].fn(STAGES[first].fn(a, n, lf), n, lf)

    def test_staged_forward_matches_monolithic(self, grid24, rng):
        u = rng.standard_normal(grid24.physical_shape)
        assert np.allclose(
            self._run("fwd_xz", "fwd_y", u, 24), fft3d(u, grid24), atol=1e-14
        )

    def test_staged_inverse_matches_monolithic(self, grid24, rng):
        u_hat = fft3d(rng.standard_normal(grid24.physical_shape), grid24)
        assert np.allclose(
            self._run("inv_y", "inv_zx", u_hat, 24), ifft3d(u_hat, grid24),
            atol=1e-13,
        )

    def test_staged_roundtrip(self, grid16, rng):
        u = rng.standard_normal(grid16.physical_shape)
        u_hat = self._run("fwd_xz", "fwd_y", u, 16)
        assert np.allclose(self._run("inv_y", "inv_zx", u_hat, 16), u,
                           atol=1e-13)

    def test_staged_shape_validation(self, grid16):
        """A stage refuses an ``out`` it cannot write its result into."""
        lf = resolve_fft("numpy")
        with pytest.raises(ValueError):
            STAGES["fwd_xz"].fn(np.zeros((4, 4, 4)), 4, lf,
                                out=np.empty((4, 4, 4), complex))
        with pytest.raises(ValueError):
            STAGES["inv_zx"].fn(np.zeros((4, 4, 3), complex), 4, lf,
                                out=np.empty((4, 4, 3)))


@settings(max_examples=25, deadline=None)
@given(
    data=npst.arrays(
        np.float64,
        (8, 8, 8),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    )
)
def test_roundtrip_property(data):
    g = SpectralGrid(8)
    assert np.allclose(ifft3d(fft3d(data, g), g), data, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-10, 10),
    b=st.floats(-10, 10),
)
def test_linearity(a, b):
    g = SpectralGrid(8)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(g.physical_shape)
    v = rng.standard_normal(g.physical_shape)
    lhs = fft3d(a * u + b * v, g)
    rhs = a * fft3d(u, g) + b * fft3d(v, g)
    assert np.allclose(lhs, rhs, atol=1e-10)


class TestInverseScalesOutput:
    """`ifft3d` scales the real output in place instead of building a
    full-grid complex copy of the input; results must be unchanged."""

    def test_matches_reference_expression(self, grid16, rng):
        u_hat = fft3d(rng.standard_normal(grid16.physical_shape), grid16)
        expected = np.fft.irfftn(
            u_hat, s=grid16.physical_shape, axes=(0, 1, 2)
        ) * grid16.n**3
        np.testing.assert_allclose(ifft3d(u_hat, grid16), expected,
                                   rtol=0, atol=1e-13)

    def test_input_not_modified(self, grid16, rng):
        u_hat = fft3d(rng.standard_normal(grid16.physical_shape), grid16)
        before = u_hat.copy()
        ifft3d(u_hat, grid16)
        np.testing.assert_array_equal(u_hat, before)

    def test_float32_output_dtype(self, rng):
        g = SpectralGrid(16, dtype=np.float32)
        u = rng.standard_normal(g.physical_shape).astype(np.float32)
        out = ifft3d(fft3d(u, g), g)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, u, atol=1e-5)
