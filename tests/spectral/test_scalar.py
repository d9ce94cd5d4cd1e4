"""Tests for passive-scalar transport (the Sec.-2 advective-diffusive PDE)."""

import numpy as np
import pytest

from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field
from repro.spectral.scalar import (
    PassiveScalar,
    scalar_dissipation,
    scalar_spectrum,
    scalar_variance,
)
from repro.spectral.solver import NavierStokesSolver, SolverConfig
from repro.spectral.transforms import fft3d


def make_solver(grid, rng, **cfg):
    defaults = dict(nu=0.05, scheme="rk2", phase_shift=False)
    defaults.update(cfg)
    u0 = random_isotropic_field(grid, rng, energy=0.5)
    return NavierStokesSolver(grid, u0, SolverConfig(**defaults))


class TestConstruction:
    def test_add_scalar_returns_index(self, grid16, rng):
        s = make_solver(grid16, rng)
        assert s.add_scalar(grid16.zeros_spectral()) == 0
        assert s.add_scalar(grid16.zeros_spectral(), schmidt=8.0) == 1
        assert s.scalars[1].schmidt == 8.0

    def test_rejects_bad_shape(self, grid16, rng):
        s = make_solver(grid16, rng)
        with pytest.raises(ValueError):
            s.add_scalar(np.zeros((4, 4, 3), dtype=complex))

    def test_rejects_bad_schmidt(self):
        with pytest.raises(ValueError):
            PassiveScalar(np.zeros((2, 2, 2), dtype=complex), schmidt=0.0)

    def test_diffusivity(self):
        p = PassiveScalar(np.zeros((2, 2, 2), dtype=complex), schmidt=4.0)
        assert p.diffusivity(nu=0.1) == pytest.approx(0.025)

    def test_rejects_bad_dt(self, grid16, rng):
        s = make_solver(grid16, rng)
        with pytest.raises(ValueError):
            s.step(0.0)


class TestPhysics:
    def test_pure_diffusion_is_exact(self, grid16):
        """With zero velocity the scalar obeys the heat equation exactly
        (integrating factor), at any dt."""
        grid = grid16
        solver = NavierStokesSolver(
            grid, grid.zeros_spectral(3), SolverConfig(nu=0.1, phase_shift=False)
        )
        theta0 = grid.zeros_spectral()
        theta0[0, 2, 0] = 1e-3  # |k|^2 = 4
        theta0[0, -2, 0] = 1e-3
        solver.add_scalar(theta0, schmidt=2.0)  # D = 0.05
        dt = 0.3
        for _ in range(5):
            solver.step(dt)
        expected = 1e-3 * np.exp(-0.05 * 4.0 * 5 * dt)
        assert abs(solver.scalars[0].theta_hat[0, 2, 0]) == pytest.approx(
            expected, rel=1e-10
        )

    def test_variance_conserved_by_advection(self, grid24, rng):
        """Without diffusion sinks (tiny D) and no gradient, pure advection
        conserves scalar variance to time-discretization error — but only
        when velocity *and* scalar are truncated at the alias-free 2/3
        radius, so the flux products cannot fold back onto retained modes."""
        from repro.spectral.dealias import DealiasRule, sharp_truncation_mask

        solver = make_solver(
            grid24, rng, nu=1e-8, scheme="rk4", dealias=DealiasRule.TWO_THIRDS
        )
        rng2 = np.random.default_rng(1)
        theta0 = fft3d(rng2.standard_normal(grid24.physical_shape), grid24)
        theta0 = theta0 * sharp_truncation_mask(grid24, DealiasRule.TWO_THIRDS)
        solver.add_scalar(theta0, schmidt=1.0)
        v0 = scalar_variance(solver.scalars[0].theta_hat, grid24)
        for _ in range(10):
            solver.step(0.002)
        v1 = scalar_variance(solver.scalars[0].theta_hat, grid24)
        assert v1 == pytest.approx(v0, rel=1e-6)

    def test_mean_gradient_produces_fluctuations(self, grid16, rng):
        solver = make_solver(grid16, rng)
        solver.add_scalar(grid16.zeros_spectral(), mean_gradient=2.0)
        solver.step(0.01)
        assert scalar_variance(solver.scalars[0].theta_hat, grid16) > 0

    def test_no_gradient_zero_scalar_stays_zero(self, grid16, rng):
        solver = make_solver(grid16, rng)
        solver.add_scalar(grid16.zeros_spectral(), mean_gradient=0.0)
        solver.step(0.01)
        assert scalar_variance(solver.scalars[0].theta_hat, grid16) == 0.0

    def test_higher_schmidt_retains_more_variance(self, grid24, rng):
        """Lower diffusivity (higher Sc) dissipates scalar variance slower —
        the high-Schmidt mixing physics of the paper's Ref. [5]."""
        results = {}
        for sc in (0.25, 4.0):
            solver = make_solver(grid24, rng)
            rng2 = np.random.default_rng(3)
            theta0 = fft3d(rng2.standard_normal(grid24.physical_shape), grid24)
            solver.add_scalar(theta0, schmidt=sc)
            for _ in range(5):
                solver.step(0.005)
            results[sc] = scalar_variance(solver.scalars[0].theta_hat, grid24)
        assert results[4.0] > results[0.25]

    def test_velocity_unaffected_by_scalars(self, grid16, rng):
        """The scalar is passive: the flow ignores it."""
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        cfg = SolverConfig(nu=0.05, phase_shift=False)
        with_scalar = NavierStokesSolver(grid16, u0, cfg)
        with_scalar.add_scalar(grid16.zeros_spectral(), mean_gradient=1.0)
        plain = NavierStokesSolver(grid16, u0, cfg)
        with_scalar.step(0.01)
        plain.step(0.01)
        assert np.allclose(with_scalar.u_hat, plain.u_hat, atol=1e-14)

    @pytest.mark.parametrize("scheme,evals", [("rk2", 2), ("rk4", 4)])
    def test_passive_under_the_default_phase_shift(self, grid16, rng, scheme, evals):
        """Attaching a scalar draws no extra phase shifts and runs no extra
        right-hand sides: the velocity is the plain solver's, bit for bit."""
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        cfg = SolverConfig(nu=0.05, scheme=scheme)
        assert cfg.phase_shift
        plain = NavierStokesSolver(grid16, u0, cfg)
        with_scalar = NavierStokesSolver(grid16, u0, cfg)
        with_scalar.add_scalar(
            random_isotropic_field(grid16, rng)[0], schmidt=4.0, mean_gradient=1.0
        )
        for _ in range(3):
            plain.step(0.01)
            result = with_scalar.step(0.01)
            assert result.nonlinear_evals == evals
        assert np.array_equal(with_scalar.u_hat, plain.u_hat)
        assert with_scalar.nonlinear_evaluations == 3 * evals
        assert with_scalar.scalar_variance(0) > 0


class TestAccuracy:
    @pytest.mark.parametrize("scheme,order", [("rk2", 2), ("rk4", 4)])
    def test_scalar_temporal_order(self, grid24, scheme, order):
        def run(scheme_, dt, nsteps):
            # Fresh identical seeds per run: same u0 and theta0 every time.
            solver = make_solver(grid24, np.random.default_rng(42), scheme=scheme_)
            rng2 = np.random.default_rng(5)
            theta0 = fft3d(rng2.standard_normal(grid24.physical_shape), grid24)
            solver.add_scalar(theta0, schmidt=1.0, mean_gradient=1.0)
            for _ in range(nsteps):
                solver.step(dt)
            return solver.scalars[0].theta_hat

        ref = run("rk4", 0.00125, 64)
        errs = [
            np.abs(run(scheme, dt, int(round(0.08 / dt))) - ref).max()
            for dt in (0.02, 0.01)
        ]
        rate = np.log2(errs[0] / errs[1])
        assert rate == pytest.approx(order, abs=0.5)


class TestDiagnostics:
    def test_spectrum_sums_to_variance(self, grid24, rng):
        theta = fft3d(rng.standard_normal(grid24.physical_shape), grid24)
        _, e_k = scalar_spectrum(theta, grid24)
        assert e_k.sum() == pytest.approx(scalar_variance(theta, grid24))

    def test_dissipation_positive_and_scales_with_diffusivity(self, grid16, rng):
        theta = fft3d(rng.standard_normal(grid16.physical_shape), grid16)
        chi1 = scalar_dissipation(theta, grid16, 0.1)
        chi2 = scalar_dissipation(theta, grid16, 0.2)
        assert chi1 > 0
        assert chi2 == pytest.approx(2 * chi1)
