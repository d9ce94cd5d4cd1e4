"""The slab-local pointwise kernel against the textbook operators.

The kernel reorders the algebra (one folded factor after the projection,
float views, z-blocks); these tests hold every operation, on every kind of
slab a distributed rank can own, to the allocating reference forms in
:mod:`repro.spectral.operators`.
"""

import numpy as np
import pytest

from repro.spectral import pointwise
from repro.spectral.dealias import (
    DealiasRule,
    phase_shift_factor,
    sharp_truncation_mask,
)
from repro.spectral.diagnostics import dissipation_rate, kinetic_energy
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field
from repro.spectral.operators import curl_hat, nonlinear_conservative, project
from repro.spectral.pointwise import PRODUCT_PAIRS, PointwiseKernel
from repro.spectral.transforms import fft3d, ifft3d

N = 24
SHIFT = np.array([0.11, 0.07, 0.19])


def slabs(heights):
    offsets = np.concatenate([[0], np.cumsum(heights)])
    return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


#: Even P in {1, 2, 4} and the uneven heights (5, 11, 8): slabs with and
#: without the mean-mode plane, and with and without the Nyquist plane.
SLABS = sorted(
    {(s.start, s.stop) for hs in ([24], [12, 12], [6] * 4, [5, 11, 8])
     for s in slabs(hs)}
)


def relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def transforms_of_terms(u_hat, grid, shift):
    """What the solvers hand to ``rhs``: the full-grid transforms of the six
    products, formed on the shifted grid, not shifted back."""
    work = u_hat * shift if shift is not None else u_hat
    u = np.stack([ifft3d(work[i], grid) for i in range(3)])
    return [fft3d(u[i] * u[j], grid) for i, j in PRODUCT_PAIRS]


def kernel_rhs(kernel, terms, bases, out):
    """What the solvers do with the transforms: accumulate the six product
    transforms into ``out`` and project there."""
    kernel.accumulate(out, PRODUCT_PAIRS, terms)
    return kernel.rhs(out, bases, out)


def kernel_scalar_rhs(kernel, flux, bases):
    """The flux transforms accumulated into scalar 3 of a state-shaped
    right-hand side, then folded in place."""
    out = np.empty((4, *flux[0].shape), dtype=flux[0].dtype)
    kernel.accumulate(out, [(c, 3) for c in range(3)], flux)
    return kernel.scalar_rhs(out[3], bases, out[3])


@pytest.fixture(scope="module", params=[np.float64, np.float32],
                ids=["float64", "float32"])
def field(request):
    grid = SpectralGrid(N, dtype=request.param)
    u_hat = random_isotropic_field(grid, np.random.default_rng(7), energy=1.0)
    tol = 1e-13 if request.param is np.float64 else 5e-5
    return grid, u_hat.astype(grid.cdtype), tol


class TestRhsMatchesReference:
    @pytest.mark.parametrize("zs", SLABS, ids=lambda s: f"z{s[0]}-{s[1]}")
    @pytest.mark.parametrize("rule", list(DealiasRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("shifted", [True, False], ids=["shift", "noshift"])
    def test_projected_dealiased_term(self, field, zs, rule, shifted):
        grid, u_hat, tol = field
        zs = slice(*zs)
        mask = sharp_truncation_mask(grid, rule)
        shift = phase_shift_factor(grid, SHIFT) if shifted else None
        want = project(
            nonlinear_conservative(u_hat, grid, mask=mask, shift=shift), grid)

        kernel = PointwiseKernel(grid, rule, zs)
        terms = [np.ascontiguousarray(t[zs])
                 for t in transforms_of_terms(u_hat, grid, shift)]
        bases = kernel.shift_bases(SHIFT) if shifted else None
        got = kernel_rhs(kernel, terms, bases, np.empty_like(u_hat[:, zs]))

        assert got.dtype == grid.cdtype
        assert np.abs(got - want[:, zs]).max() <= tol * np.abs(want).max()
        # Masked-out modes are exact zeros, not small numbers.
        assert not got[:, mask[zs] == 0].any()

    @pytest.mark.parametrize("zs", SLABS, ids=lambda s: f"z{s[0]}-{s[1]}")
    @pytest.mark.parametrize("shifted", [True, False], ids=["shift", "noshift"])
    def test_scalar_flux_divergence(self, field, zs, shifted):
        """``scalar_rhs`` against ``-i mask conj(s) k.(u theta)^``, the flux
        formed on the shifted grid as the solvers hand it over."""
        grid, u_hat, tol = field
        zs = slice(*zs)
        mask = sharp_truncation_mask(grid, DealiasRule.SQRT2_THIRDS)
        shift = phase_shift_factor(grid, SHIFT) if shifted else 1.0
        theta = ifft3d((u_hat[0] + 0.5 * u_hat[2]) * shift, grid)
        f0, f1, f2 = (fft3d(ifft3d(u_hat[i] * shift, grid) * theta, grid)
                      .astype(grid.cdtype) for i in range(3))
        kx, ky, kz = grid.k_vectors
        want = -1j * mask * (kx * f0 + ky * f1 + kz * f2) * np.conj(shift)

        kernel = PointwiseKernel(grid, DealiasRule.SQRT2_THIRDS, zs)
        bases = kernel.shift_bases(SHIFT) if shifted else None
        got = kernel_scalar_rhs(
            kernel, [np.ascontiguousarray(f[zs]) for f in (f0, f1, f2)], bases)

        assert got.dtype == grid.cdtype
        assert np.abs(got - want[zs]).max() <= tol * np.abs(want).max()
        assert not got[mask[zs] == 0].any()

    def test_projection_leaves_the_mean_mode_alone(self):
        """k = 0 carries no pressure: whatever mean the accumulated input
        has comes out only folded by ``-i``, as ``project`` keeps it."""
        grid = SpectralGrid(N)
        rng = np.random.default_rng(3)
        terms = rng.standard_normal((3, *grid.spectral_shape)) + 0j
        mask = sharp_truncation_mask(grid, DealiasRule.SQRT2_THIRDS)
        got = PointwiseKernel(grid, DealiasRule.SQRT2_THIRDS).rhs(
            terms, None, np.empty_like(terms))
        np.testing.assert_array_equal(got[:, 0, 0, 0], -1j * terms[:, 0, 0, 0])
        np.testing.assert_allclose(
            got, -1j * project(terms * mask, grid), atol=1e-13)


class TestBlocking:
    @pytest.mark.parametrize("planes", [1, 5, 11])
    def test_block_height_does_not_change_a_bit(self, monkeypatch, planes):
        """Height 1, a height that does not divide mz, and the whole slab."""
        grid = SpectralGrid(N)
        zs = slice(5, 16)  # mz = 11
        u_hat = random_isotropic_field(grid, np.random.default_rng(1), energy=1.0)
        shift = phase_shift_factor(grid, SHIFT)
        terms = [np.ascontiguousarray(t[zs]) for t in
                 transforms_of_terms(u_hat, grid, shift)]
        u = np.ascontiguousarray(u_hat[:, zs])

        def run(block_planes):
            plane_bytes = N * (N // 2 + 1) * grid.cdtype.itemsize
            monkeypatch.setattr(pointwise, "_BLOCK_BYTES",
                                block_planes * plane_bytes)
            kernel = PointwiseKernel(grid, DealiasRule.SQRT2_THIRDS, zs)
            assert kernel.block == min(block_planes, 11)
            bases = kernel.shift_bases(SHIFT)
            r = kernel_rhs(kernel, terms, bases, np.empty_like(u))
            return (
                kernel.shifted(u, bases, np.empty_like(u)), r,
                kernel.project(u),
                kernel_scalar_rhs(kernel, terms[:3], bases),
                kernel.combine(0.02, [(np.empty_like(u), [
                    (1e-2, [(5e-3, r), (1.0, u)]), (0.0, [(5e-3, u)])])])[0],
            )

        for got, want in zip(run(planes), run(11)):
            np.testing.assert_array_equal(got, want)

    def test_block_height_follows_plane_bytes(self):
        small = PointwiseKernel(SpectralGrid(32), DealiasRule.NONE)
        assert small.block == 32  # a 32^3 slab is one block
        big = PointwiseKernel(SpectralGrid(96), DealiasRule.NONE)
        assert 1 <= big.block < 8
        half = PointwiseKernel(SpectralGrid(32), DealiasRule.NONE, slice(16, 32))
        assert half.block == half.mz == 16

    def test_empty_slab_is_a_no_op(self):
        grid = SpectralGrid(16)
        kernel = PointwiseKernel(grid, DealiasRule.NONE, slice(16, 16))
        empty = np.empty((3, 0, 16, 9), dtype=complex)
        assert kernel.project(empty).shape == empty.shape
        [out] = kernel.combine(0.02, [(empty, [(1e-3, [(1.0, empty)])])])
        assert out is empty


class TestStreaming:
    def test_one_transform_per_call_is_all_six_at_once(self, field):
        """The serial step streams one product transform at a time into the
        right-hand side, the distributed assembly passes all six (and the
        fluxes) in one call: the sums add x, y, z in the same order."""
        grid, u_hat, _ = field
        kernel = PointwiseKernel(grid, DealiasRule.SQRT2_THIRDS, slice(5, 16))
        terms = [np.ascontiguousarray(t[5:16]) for t in
                 transforms_of_terms(u_hat, grid, None)]
        pairs = PRODUCT_PAIRS + tuple((c, 3) for c in range(3))
        batched = np.empty((4, *terms[0].shape), dtype=grid.cdtype)
        streamed = np.empty_like(batched)
        kernel.accumulate(batched, pairs, terms + terms[:3])
        for pair, t in zip(pairs, terms + terms[:3]):
            kernel.accumulate(streamed, [pair], [t])
        np.testing.assert_array_equal(streamed, batched)

    @pytest.mark.parametrize("rule", list(DealiasRule), ids=lambda r: r.value)
    @pytest.mark.parametrize("n,length", [(24, 2 * np.pi), (30, 1.0)])
    def test_byte_mask_is_the_sharp_truncation_mask(self, rule, n, length):
        grid = SpectralGrid(n, length)
        mask = sharp_truncation_mask(grid, rule)
        for zs in (slice(None), slice(5, 16)):
            kernel = PointwiseKernel(grid, rule, zs)
            assert kernel._cut.dtype == np.bool_
            ones = np.ones((3, *mask[zs].shape), dtype=grid.cdtype)
            kernel.truncate(ones)
            np.testing.assert_array_equal(ones.real, np.broadcast_to(
                mask[zs], ones.shape))
            assert not ones.imag.any()

    def test_scalar_gradient_production(self, field):
        """``scalar_rhs`` with a mean gradient adds ``-G u_y`` to ``G a``."""
        grid, u_hat, tol = field
        kernel = PointwiseKernel(grid, DealiasRule.SQRT2_THIRDS)
        bases = kernel.shift_bases(SHIFT)
        a = u_hat[0] + 0.5j * u_hat[2]
        want = kernel.scalar_rhs(a, bases, np.empty_like(a)) - 0.8 * u_hat[1]
        got = kernel.scalar_rhs(a.copy(), bases, np.empty_like(a), 0.8, u_hat[1])
        assert relative_error(got, want) <= tol


class TestOtherOperations:
    @pytest.mark.parametrize("zs", SLABS, ids=lambda s: f"z{s[0]}-{s[1]}")
    def test_shift_curl_project(self, field, zs):
        grid, u_hat, tol = field
        zs = slice(*zs)
        kernel = PointwiseKernel(grid, DealiasRule.NONE, zs)
        u = np.ascontiguousarray(u_hat[:, zs])
        bases = kernel.shift_bases(SHIFT)
        want = (u_hat * phase_shift_factor(grid, SHIFT))[:, zs]
        assert relative_error(kernel.shifted(u, bases, np.empty_like(u)), want) <= tol
        # One component at a time, as the serial solver shifts.
        assert relative_error(
            kernel.shifted(u[1], bases, np.empty_like(u[1])), want[1]) <= tol
        v_hat = u_hat + curl_hat(u_hat, grid) + 1.0  # not solenoidal
        v = np.ascontiguousarray(v_hat[:, zs])
        want = project(v_hat, grid)[:, zs]
        assert relative_error(kernel.project(v), want) <= tol
        assert kernel.project(v, out=v) is v  # in place
        assert relative_error(v, want) <= tol

    @pytest.mark.parametrize("zs", [(0, 24), (5, 16)], ids=["full", "slab"])
    def test_combine_is_the_integrating_factor_expression(self, field, zs):
        grid, u_hat, tol = field
        zs = slice(*zs)
        nu, dt = 0.02, 5e-3
        kernel = PointwiseKernel(grid, DealiasRule.NONE, zs)
        a, b, c = (np.ascontiguousarray(f * u_hat[:, zs]) for f in (1.0, 0.5j, -2.0))
        e_half = np.exp(-nu * grid.k_squared * 0.5 * dt)[zs]
        e_full = np.exp(-nu * grid.k_squared * dt)[zs]
        want = e_full * (a + dt / 6 * b) + dt / 3 * e_half * (b + c) + dt / 6 * c
        [got] = kernel.combine(nu, [(np.empty_like(a), [
            (dt, [(dt / 6, b), (1.0, a)]),
            (0.5 * dt, [(dt / 3, b), (dt / 3, c)]),
            (0.0, [(dt / 6, c)]),
        ])])
        assert relative_error(got, want) <= 10 * tol
        # Writing over an input, and a scalar (one-component) field.
        assert relative_error(
            kernel.combine(nu, [(a, [(dt, [(dt, b), (1.0, a)])])])[0],
            e_full * (u_hat[:, zs] + dt * b)) <= 10 * tol
        theta = np.ascontiguousarray(u_hat[0, zs])
        assert relative_error(
            kernel.combine(nu, [(np.empty_like(theta), [(dt, [(1.0, theta)])])])[0],
            e_full * theta) <= 10 * tol

    @pytest.mark.parametrize("heights", [[24], [6] * 4, [5, 11, 8]],
                             ids=["P1", "P4", "uneven"])
    def test_mode_sums_are_energy_and_dissipation(self, field, heights):
        """Summed over the slabs of a partition, the blockwise sums are the
        reference diagnostics."""
        grid, u_hat, tol = field
        nu = 0.02
        sums = np.sum([
            PointwiseKernel(grid, DealiasRule.NONE, zs)
            .mode_sums(np.ascontiguousarray(u_hat[:, zs]))
            for zs in slabs(heights)], axis=0)
        assert 0.5 * sums[0] == pytest.approx(kinetic_energy(u_hat, grid),
                                              rel=tol)
        assert nu * sums[1] == pytest.approx(
            dissipation_rate(u_hat, grid, nu), rel=tol)

    @pytest.mark.parametrize("planes", [1, 5, 24])
    def test_combine_forms_every_output_before_writing_any(
            self, field, monkeypatch, planes):
        """Two outputs in one sweep, each over an input the other reads,
        are bit for bit the same combinations made one by one into fresh
        arrays: RK4's first and third stages, each with two decays."""
        grid, u_hat, _ = field
        monkeypatch.setattr(pointwise, "_BLOCK_BYTES",
                            planes * N * (N // 2 + 1) * grid.cdtype.itemsize)
        nu, dt, h = 0.02, 5e-3, 2.5e-3
        kernel = PointwiseKernel(grid, DealiasRule.NONE)
        u0, k1, k3 = (np.ascontiguousarray(f * u_hat)
                      for f in (1.0, 0.5j, -2.0 + 1j))
        k2 = u_hat[::-1].copy()
        stage1 = lambda u_s, k1: [  # noqa: E731
            (u_s, [(h, [(h, k1), (1.0, u0)])]),
            (k1, [(dt, [(dt / 6.0, k1), (1.0, u0)])]),
        ]
        stage3 = lambda k3, k2: [  # noqa: E731
            (k3, [(dt, [(1.0, u0)]), (h, [(dt, k3)])]),
            (k2, [(0.0, [(1.0, k2), (dt / 3.0, k3)])]),
        ]
        for stage, inputs in ((stage1, (np.empty_like(u0), k1)),
                              (stage3, (k3, k2))):
            want = [kernel.combine(nu, [(np.empty_like(u0), groups)])[0]
                    for _, groups in stage(*inputs)]
            outs = kernel.combine(nu, stage(*inputs))
            assert outs[0] is inputs[0] and outs[1] is inputs[1]
            for got, w in zip(outs, want):
                np.testing.assert_array_equal(got, w)

    def test_combine_refuses_more_than_its_scratch(self, field):
        grid, u_hat, _ = field
        kernel = PointwiseKernel(grid, DealiasRule.NONE)
        jobs = [(np.empty_like(u_hat), [(tau, [(1.0, u_hat)])])
                for tau in (1e-3, 2e-3, 3e-3)]
        with pytest.raises(ValueError, match="scratch"):
            kernel.combine(0.02, jobs)

    def test_shift_bases_rejects_bad_shape(self):
        grid = SpectralGrid(16)
        kernel = PointwiseKernel(grid, DealiasRule.NONE)
        with pytest.raises(ValueError, match="3-vector"):
            kernel.shift_bases(np.zeros(2))
