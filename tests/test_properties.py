"""Cross-layer property-based tests (hypothesis).

These tie the layers together with randomized invariants: whatever the
grid, decomposition, message size or configuration, certain statements must
hold — conservation, equivalence of paths, monotonicity of cost models, and
physicality of simulated schedules.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machine.network import AllToAllModel
from repro.machine.summit import summit

MACHINE = summit()
MODEL = AllToAllModel(MACHINE)


class TestNetworkModelProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        p2p=st.floats(1.0, 1e9),
        nodes=st.integers(2, 4608),
        tpn=st.sampled_from([1, 2, 4, 6]),
    )
    def test_timing_always_physical(self, p2p, nodes, tpn):
        t = MODEL.timing(p2p, nodes, tpn)
        assert t.time > 0
        assert t.off_node_bytes_per_node >= 0
        assert 0 <= t.off_node_fraction <= 1
        # Effective bandwidth is bounded by hardware: the Eq.-3 metric
        # counts on-node messages too (the paper's stated simplification),
        # so the bound is injection + intra-node, times 2 for send+recv.
        assert t.effective_bw_per_node <= 2.05 * (
            MACHINE.network.injection_bw + MACHINE.network.intra_node_bw
        )

    @settings(max_examples=100, deadline=None)
    @given(
        p2p=st.floats(1e3, 1e8),
        nodes=st.integers(2, 3072),
    )
    def test_more_volume_takes_longer(self, p2p, nodes):
        t1 = MODEL.timing(p2p, nodes, 2).time
        t2 = MODEL.timing(2 * p2p, nodes, 2).time
        assert t2 >= t1

    @settings(max_examples=60, deadline=None)
    @given(nodes=st.integers(2, 4608))
    def test_overlap_efficiency_in_unit_interval(self, nodes):
        eff = MACHINE.network.calibration.overlap_efficiency(nodes)
        assert 0 < eff <= 1


class TestPlannerProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1536, 3072, 6144, 12288, 18432]),
        nodes=st.integers(1, 4608),
    )
    def test_planned_pencils_always_fit(self, n, nodes):
        from repro.core.planner import MemoryPlanner

        planner = MemoryPlanner(MACHINE)
        need = 4 * 25 * n**3 / nodes
        if need > MACHINE.node.usable_dram_bytes:
            with pytest.raises(ValueError):
                planner.plan(n, nodes)
            return
        row = planner.plan(n, nodes)
        assert (
            planner.gpu_bytes_required(n, nodes, row.npencils)
            <= MACHINE.node.gpu_memory_bytes
        )


class TestDistEquivalenceProperties:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.sampled_from([8, 12, 16]),
        ranks=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 10_000),
    )
    def test_distributed_fft_matches_numpy(self, n, ranks, seed):
        from repro.dist.outofcore import OutOfCoreSlabFFT
        from repro.dist.virtual_mpi import VirtualComm
        from repro.spectral.grid import SpectralGrid
        from repro.spectral.transforms import fft3d

        grid = SpectralGrid(n)
        u = np.random.default_rng(seed).standard_normal(grid.physical_shape)
        fft = OutOfCoreSlabFFT(grid, VirtualComm(ranks), npencils=1)
        got = fft.decomp.gather_spectral(
            fft.forward(fft.decomp.scatter_physical(u))
        )
        assert np.allclose(got, fft3d(u, grid), atol=1e-11)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        npencils=st.sampled_from([1, 2, 4]),
        seed=st.integers(0, 1000),
    )
    def test_out_of_core_matches_in_core(self, npencils, seed):
        from repro.dist.outofcore import OutOfCoreSlabFFT
        from repro.dist.virtual_mpi import VirtualComm
        from repro.spectral.grid import SpectralGrid
        from repro.spectral.transforms import fft3d

        grid = SpectralGrid(16)
        u = np.random.default_rng(seed).standard_normal(grid.physical_shape)
        ooc = OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=npencils,
                               device_bytes=1e9)
        a = fft3d(u, grid)
        b = ooc.decomp.gather_spectral(ooc.forward(ooc.decomp.scatter_physical(u)))
        assert np.allclose(a, b, atol=1e-12)
        assert ooc.arena.in_use == ooc.rings.nbytes
        ooc.close()
        assert ooc.arena.in_use == 0


class TestSolverInvariantProperties:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        dt=st.floats(1e-4, 5e-3),
    )
    def test_unforced_energy_never_grows(self, seed, dt):
        from repro.spectral.diagnostics import kinetic_energy, max_divergence
        from repro.spectral.grid import SpectralGrid
        from repro.spectral.initial import random_isotropic_field
        from repro.spectral.solver import NavierStokesSolver, SolverConfig

        grid = SpectralGrid(16)
        u0 = random_isotropic_field(
            grid, np.random.default_rng(seed), energy=0.5
        )
        solver = NavierStokesSolver(
            grid, u0, SolverConfig(nu=0.05, phase_shift=False)
        )
        e = kinetic_energy(solver.u_hat, grid)
        for _ in range(3):
            r = solver.step(dt)
            assert r.energy <= e * (1 + 1e-12)
            e = r.energy
        assert max_divergence(solver.u_hat, grid) < 1e-9


class TestExecutorProperties:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tpn=st.sampled_from([2, 6]),
        q=st.sampled_from([1, 3]),
        scheme=st.sampled_from(["rk2", "rk4"]),
    )
    def test_simulated_step_physical(self, tpn, q, scheme):
        from repro.core.config import RunConfig
        from repro.core.executor import simulate_step

        cfg = RunConfig(
            n=3072, nodes=16, tasks_per_node=tpn, npencils=3,
            q_pencils_per_a2a=q, scheme=scheme,
        )
        t = simulate_step(cfg, MACHINE, trace=True)
        assert 0 < t.step_time < 300
        # Busy time per category can never exceed the step duration.
        for cat, busy in t.breakdown.items():
            assert busy <= t.step_time + 1e-9, cat
        # MPI always dominates the communication-bound DNS.
        assert t.mpi_time == max(t.breakdown.values())
