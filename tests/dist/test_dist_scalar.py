"""Tests for distributed passive-scalar transport."""

import numpy as np
import pytest

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.initial import random_isotropic_field
from repro.spectral.scalar import scalar_variance
from repro.spectral.solver import NavierStokesSolver, SolverConfig
from repro.spectral.transforms import fft3d


def build_pair(grid, ranks, scheme="rk2", schmidt=1.0, gradient=1.0, seed=3):
    rng = np.random.default_rng(seed)
    u0 = random_isotropic_field(grid, rng, energy=0.5)
    theta0 = fft3d(np.random.default_rng(seed + 1).standard_normal(grid.physical_shape), grid)
    cfg = SolverConfig(nu=0.04, scheme=scheme, phase_shift=False)

    serial = NavierStokesSolver(grid, u0, cfg)
    serial.add_scalar(theta0, schmidt=schmidt, mean_gradient=gradient)

    dist = DistributedNavierStokesSolver(grid, VirtualComm(ranks), u0, cfg)
    dist.add_scalar(theta0, schmidt=schmidt, mean_gradient=gradient)
    return serial, dist


class TestEquivalence:
    def test_rk2_step_matches_serial(self, grid24):
        serial, dist = build_pair(grid24, ranks=4)
        serial.step(0.005)
        dist.step(0.005)
        assert np.allclose(
            dist.gather_scalar(0), serial.scalars[0].theta_hat, atol=1e-14
        )
        assert np.allclose(dist.gather_state(), serial.u_hat, atol=1e-14)

    def test_rk4_step_matches_serial(self, grid24):
        serial, dist = build_pair(grid24, ranks=3, scheme="rk4")
        serial.step(0.005)
        dist.step(0.005)
        assert np.allclose(
            dist.gather_scalar(0), serial.scalars[0].theta_hat, atol=1e-14
        )

    def test_multi_step_trajectory(self, grid24):
        serial, dist = build_pair(grid24, ranks=2, schmidt=4.0)
        for _ in range(3):
            serial.step(0.004)
            dist.step(0.004)
        assert np.allclose(
            dist.gather_scalar(0), serial.scalars[0].theta_hat, atol=1e-13
        )

    def test_variance_diagnostic_matches(self, grid24):
        serial, dist = build_pair(grid24, ranks=4)
        serial.step(0.005)
        dist.step(0.005)
        assert dist.scalar_variance(0) == pytest.approx(
            scalar_variance(serial.scalars[0].theta_hat, grid24), rel=1e-12
        )

    def test_result_independent_of_rank_count(self, grid24):
        states = []
        for ranks in (1, 2, 4):
            _, dist = build_pair(grid24, ranks=ranks)
            dist.step(0.005)
            states.append(dist.gather_scalar(0))
        for other in states[1:]:
            assert np.allclose(states[0], other, atol=1e-13)


class TestMechanics:
    def test_gradient_production_from_zero(self, grid16):
        grid = grid16
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid, rng, energy=0.5)
        dist = DistributedNavierStokesSolver(
            grid, VirtualComm(2), u0, SolverConfig(nu=0.05, phase_shift=False)
        )
        dist.add_scalar(grid.zeros_spectral(), mean_gradient=2.0)
        dist.step(0.01)
        assert dist.scalar_variance(0) > 0

    def test_extra_alltoalls_per_scalar(self, grid16):
        """One scalar adds 1 inverse + 3 forward transforms per substage to
        the 3 + 6 of the velocity, and they ride the same two exchanges:
        4 per RK2 step, 8 per RK4 step, carrying 9 -> 13 fields' bytes per
        substage.  The RHS still runs once per substage."""
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        for scheme, substages in (("rk2", 2), ("rk4", 4)):
            cfg = SolverConfig(nu=0.05, scheme=scheme, phase_shift=False)
            for nscalars in (0, 1):
                dist = DistributedNavierStokesSolver(grid16, VirtualComm(2), u0, cfg)
                for _ in range(nscalars):
                    dist.add_scalar(grid16.zeros_spectral(), mean_gradient=1.0)
                result = dist.step(0.005)
                assert dist.comm.stats.count("ialltoall") == 2 * substages
                assert sum(r.total_bytes for r in dist.comm.stats.records
                           if r.kind == "ialltoall") == (
                    substages * (9 + 4 * nscalars) * 16 * 16 * 9 * 16)
                assert result.nonlinear_evals == substages

    @pytest.mark.parametrize("scheme", ["rk2", "rk4"])
    @pytest.mark.parametrize(
        "engine", [{}, {"npencils": 4}], ids=["slab-virtual", "ooc-sync"]
    )
    def test_passive_under_the_default_phase_shift(self, grid16, scheme, engine):
        """Attaching a scalar draws no extra phase shifts: the velocity is the
        plain solver's, bit for bit, on the engines the old wrapper never reached."""
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        cfg = SolverConfig(nu=0.05, scheme=scheme)
        assert cfg.phase_shift
        states = []
        for nscalars in (0, 1):
            with DistributedNavierStokesSolver(
                grid16, VirtualComm(2), u0, cfg, **engine
            ) as dist:
                for _ in range(nscalars):
                    dist.add_scalar(random_isotropic_field(grid16, rng)[0],
                                    schmidt=4.0, mean_gradient=1.0)
                for _ in range(3):
                    dist.step(0.01)
                states.append(dist.gather_state())
        assert np.array_equal(states[0], states[1])

    def test_validation(self, grid16):
        rng = np.random.default_rng(0)
        u0 = random_isotropic_field(grid16, rng, energy=0.5)
        dist = DistributedNavierStokesSolver(
            grid16, VirtualComm(2), u0, SolverConfig(nu=0.05, phase_shift=False)
        )
        with pytest.raises(ValueError):
            dist.add_scalar(np.zeros((4, 4, 3), dtype=complex))
        with pytest.raises(ValueError):
            dist.add_scalar(grid16.zeros_spectral(), schmidt=0.0)
        with pytest.raises(ValueError):
            dist.step(0.0)
