"""Tests for the Navier-Stokes integrator: exactness, order, stability."""

import numpy as np
import pytest

from repro.spectral.dealias import DealiasRule
from repro.spectral.diagnostics import (
    dissipation_rate,
    kinetic_energy,
    max_divergence,
)
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field, taylor_green_field
from repro.spectral.solver import NavierStokesSolver, SolverConfig, StepResult


def make_solver(grid, u_hat, **kw):
    defaults = dict(nu=0.05, scheme="rk2", phase_shift=False)
    defaults.update(kw)
    return NavierStokesSolver(grid, u_hat, SolverConfig(**defaults))


class TestConstruction:
    def test_rejects_bad_shape(self, grid16):
        with pytest.raises(ValueError):
            NavierStokesSolver(grid16, np.zeros((3, 4, 4, 3), dtype=complex))

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SolverConfig(nu=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(scheme="rk3")

    def test_initial_condition_is_dealiased_and_projected(self, grid16, rng):
        noisy = np.stack(
            [
                np.fft.rfftn(rng.standard_normal(grid16.physical_shape)) / 16**3
                for _ in range(3)
            ]
        )
        s = make_solver(grid16, noisy)
        assert max_divergence(s.u_hat, grid16) < 1e-10

    def test_rejects_nonpositive_dt(self, grid16):
        s = make_solver(grid16, taylor_green_field(grid16))
        with pytest.raises(ValueError):
            s.step(0.0)


class TestViscousExactness:
    """The integrating factor must treat pure diffusion exactly."""

    def test_taylor_green_linear_decay_is_exact(self, grid16):
        """At negligible amplitude the nonlinear term is O(A^2): energy must
        decay as exp(-2 nu k^2 t) with k^2 = 3, to near round-off, at ANY dt.
        """
        nu = 0.1
        s = make_solver(grid16, taylor_green_field(grid16, amplitude=1e-8), nu=nu)
        e0 = kinetic_energy(s.u_hat, grid16)
        dt = 0.25  # far beyond any explicit diffusion limit
        for _ in range(8):
            s.step(dt)
        expected = e0 * np.exp(-2 * nu * 3.0 * 8 * dt)
        assert kinetic_energy(s.u_hat, grid16) == pytest.approx(expected, rel=1e-6)

    def test_single_mode_decay_rate(self, grid16):
        """One solenoidal mode at |k|^2 = 1 decays exactly."""
        u_hat = grid16.zeros_spectral(3)
        u_hat[2, 0, 1, 0] = 1e-9  # u_z(k=(0,1,0)): k.u = 0, solenoidal
        nu = 0.2
        s = make_solver(grid16, u_hat, nu=nu)
        s.step(0.5)
        assert abs(s.u_hat[2, 0, 1, 0]) == pytest.approx(
            1e-9 * np.exp(-nu * 0.5), rel=1e-7
        )


class TestConvergenceOrder:
    @pytest.mark.parametrize("scheme,order", [("rk2", 2), ("rk4", 4)])
    def test_temporal_order(self, grid24, rng, scheme, order):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        ref = make_solver(grid24, u0, scheme="rk4")
        for _ in range(64):
            ref.step(0.08 / 64)

        errors = []
        for dt in (0.02, 0.01):
            s = make_solver(grid24, u0, scheme=scheme)
            for _ in range(int(round(0.08 / dt))):
                s.step(dt)
            errors.append(np.abs(s.u_hat - ref.u_hat).max())
        rate = np.log2(errors[0] / errors[1])
        assert rate == pytest.approx(order, abs=0.4)

    def test_rk4_more_accurate_than_rk2(self, grid24, rng):
        u0 = random_isotropic_field(grid24, rng, energy=0.5)
        ref = make_solver(grid24, u0, scheme="rk4")
        for _ in range(32):
            ref.step(0.04 / 32)
        out = {}
        for scheme in ("rk2", "rk4"):
            s = make_solver(grid24, u0, scheme=scheme)
            for _ in range(4):
                s.step(0.01)
            out[scheme] = np.abs(s.u_hat - ref.u_hat).max()
        assert out["rk4"] < out["rk2"] / 10


class TestInvariants:
    def test_divergence_stays_at_roundoff(self, grid24, rng):
        s = make_solver(grid24, random_isotropic_field(grid24, rng, energy=0.5))
        for _ in range(5):
            s.step(0.005)
            assert max_divergence(s.u_hat, grid24) < 1e-10

    def test_energy_budget_closure(self, grid24, rng):
        """dE/dt = -eps for decaying turbulence: check the discrete budget
        closes to the scheme's order over one small step."""
        nu = 0.02
        s = make_solver(grid24, random_isotropic_field(grid24, rng, energy=0.5), nu=nu, scheme="rk4")
        e0 = kinetic_energy(s.u_hat, grid24)
        eps0 = dissipation_rate(s.u_hat, grid24, nu)
        dt = 1e-3
        r = s.step(dt)
        eps1 = dissipation_rate(s.u_hat, grid24, nu)
        de_dt = (r.energy - e0) / dt
        assert de_dt == pytest.approx(-(eps0 + eps1) / 2, rel=1e-3)

    def test_energy_decays_without_forcing(self, grid24, rng):
        s = make_solver(grid24, random_isotropic_field(grid24, rng, energy=0.5))
        energies = [kinetic_energy(s.u_hat, grid24)]
        for _ in range(10):
            energies.append(s.step(0.005).energy)
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_inviscid_limit_energy_nearly_conserved(self, grid24, rng):
        """With tiny viscosity and RK4 the truncated system conserves energy
        to time-discretization error over short horizons."""
        nu = 1e-8
        s = make_solver(
            grid24,
            random_isotropic_field(grid24, rng, energy=0.5),
            nu=nu,
            scheme="rk4",
            dealias=DealiasRule.TWO_THIRDS,
        )
        e0 = kinetic_energy(s.u_hat, grid24)
        for _ in range(10):
            r = s.step(0.002)
        assert r.energy == pytest.approx(e0, rel=1e-6)


class TestStepResults:
    def test_step_result_fields(self, grid16):
        s = make_solver(grid16, taylor_green_field(grid16))
        r = s.step(0.01)
        assert isinstance(r, StepResult)
        assert r.time == pytest.approx(0.01)
        assert r.nonlinear_evals == 2
        r4 = make_solver(grid16, taylor_green_field(grid16), scheme="rk4").step(0.01)
        assert r4.nonlinear_evals == 4

    def test_run_returns_all_steps(self, grid16):
        s = make_solver(grid16, taylor_green_field(grid16))
        results = s.run(5, 0.01)
        assert len(results) == 5
        assert s.step_count == 5
        assert s.time == pytest.approx(0.05)

    def test_stable_dt_scales_with_cfl(self, grid16):
        s = make_solver(grid16, taylor_green_field(grid16))
        assert s.stable_dt(cfl=1.0) == pytest.approx(2 * s.stable_dt(cfl=0.5))
        with pytest.raises(ValueError):
            s.stable_dt(cfl=0.0)

    def test_phase_shift_trajectories_reproducible(self, grid16):
        u0 = taylor_green_field(grid16)
        cfg = SolverConfig(nu=0.05, phase_shift=True, seed=7)
        a = NavierStokesSolver(grid16, u0, cfg)
        b = NavierStokesSolver(grid16, u0, SolverConfig(nu=0.05, phase_shift=True, seed=7))
        a.run(3, 0.01)
        b.run(3, 0.01)
        assert np.array_equal(a.u_hat, b.u_hat)


class TestDiagnosticsEvery:
    def test_default_reports_every_step(self, grid16):
        s = make_solver(grid16, taylor_green_field(grid16))
        assert all(np.isfinite(r.energy) for r in s.run(3, 0.01))

    def test_skipped_steps_report_nan(self, grid16):
        s = make_solver(grid16, taylor_green_field(grid16),
                        diagnostics_every=2)
        results = s.run(4, 0.01)
        assert np.isnan(results[0].energy) and np.isnan(results[2].energy)
        assert np.isfinite(results[1].energy) and np.isfinite(results[3].energy)
        assert np.isnan(results[0].dissipation)

    def test_zero_disables_diagnostics(self, grid16):
        s = make_solver(grid16, taylor_green_field(grid16),
                        diagnostics_every=0)
        assert all(np.isnan(r.energy) for r in s.run(3, 0.01))

    def test_trajectory_independent_of_diagnostics(self, grid16):
        a = make_solver(grid16, taylor_green_field(grid16))
        b = make_solver(grid16, taylor_green_field(grid16),
                        diagnostics_every=0)
        a.run(3, 0.01)
        b.run(3, 0.01)
        np.testing.assert_array_equal(a.u_hat, b.u_hat)

    def test_on_demand_diagnostics_are_the_steps_bits(self, grid24, rng):
        """``kinetic_energy()`` sums as a diagnostics step sums, so a series
        mixing the two never rises on round-off alone; the step's energy and
        dissipation agree with the reference forms."""
        s = make_solver(grid24, random_isotropic_field(grid24, rng, energy=1.0))
        r = s.step(0.01)
        assert s.kinetic_energy() == r.energy
        assert r.energy == pytest.approx(kinetic_energy(s.u_hat, grid24),
                                         rel=1e-13)
        assert r.dissipation == pytest.approx(
            dissipation_rate(s.u_hat, grid24, 0.05), rel=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SolverConfig(diagnostics_every=-1)
