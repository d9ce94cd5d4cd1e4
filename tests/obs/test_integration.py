"""Observability threaded through the real solver, dist, and out-of-core paths.

These tests check the *wiring*: that enabling an ``Observability`` bundle on
each instrumented subsystem records the promised spans, lanes, and counters —
and that leaving it off changes nothing.
"""

import numpy as np
import pytest

from repro.cuda.arena import DeviceArena, PencilRings
from repro.cuda.copyengine import Batched2DEngine
from repro.dist import DistributedNavierStokesSolver, VirtualComm
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.transpose import transpose_exchange
from repro.obs import NULL_OBS, Observability
from repro.spectral import (
    NavierStokesSolver,
    SolverConfig,
    SpectralGrid,
    random_isotropic_field,
)
from repro.spectral.diagnostics import cfl_number


def make_solver(n=16, obs=None, **cfg):
    grid = SpectralGrid(n)
    rng = np.random.default_rng(0)
    return NavierStokesSolver(
        grid,
        random_isotropic_field(grid, rng, energy=1.0),
        SolverConfig(nu=0.02, **cfg),
        obs=obs,
    )


class TestSolverObservability:
    def test_step_records_expected_categories(self):
        obs = Observability.create()
        solver = make_solver(obs=obs)
        solver.step(1e-3)
        cats = set(a.category for a in obs.spans.activities)
        assert {"step", "stage", "fft", "nonlinear", "projection",
                "integrating", "diagnostics"} <= cats

    def test_step_metrics(self):
        obs = Observability.create()
        solver = make_solver(obs=obs)
        solver.step(1e-3)
        solver.step(1e-3)
        assert obs.metrics.counter("solver.steps").value == 2
        assert obs.metrics.histogram("solver.step.seconds").count == 2
        # RK2: two RHS evaluations per step.
        assert obs.metrics.counter("solver.rhs.calls").value == 4
        assert obs.metrics.counter("fft.calls").value > 0
        assert obs.metrics.gauge("workspace.bytes_peak").value > 0

    def test_rk4_records_four_stages(self):
        obs = Observability.create()
        solver = make_solver(obs=obs, scheme="rk4")
        solver.step(1e-3)
        stages = {a.name for a in obs.spans.activities if a.category == "stage"}
        assert stages == {"rk4.stage1", "rk4.stage2", "rk4.stage3", "rk4.stage4"}

    def test_stable_dt_records_cfl_span(self):
        obs = Observability.create()
        solver = make_solver(obs=obs)
        solver.stable_dt(cfl=0.5)
        names = [a.name for a in obs.spans.activities]
        assert "diagnostics.cfl" in names

    def test_default_obs_is_shared_null(self):
        solver = make_solver()
        assert solver.obs is NULL_OBS
        solver.step(1e-3)
        assert len(NULL_OBS.spans) == 0

    def test_exclusive_partition_covers_step(self):
        obs = Observability.create()
        solver = make_solver(obs=obs)
        solver.step(1e-3)
        excl = obs.spans.exclusive_by_category()
        step_wall = obs.metrics.histogram("solver.step.seconds").last
        assert sum(excl.values()) == pytest.approx(step_wall, rel=0.05)


class TestCflWorkspacePath:
    def test_workspace_and_legacy_cfl_agree(self):
        grid = SpectralGrid(16)
        rng = np.random.default_rng(1)
        u_hat = random_isotropic_field(grid, rng, energy=1.0)
        solver = make_solver()
        legacy = cfl_number(u_hat, grid, dt=1.0)
        fast = cfl_number(u_hat, grid, dt=1.0, workspace=solver.workspace)
        assert fast == pytest.approx(legacy, rel=1e-12)

    def test_stable_dt_matches_between_paths(self):
        """The solver's workspace-backed CFL scan against the allocating one."""
        solver = make_solver()
        allocating = 0.5 / cfl_number(solver.u_hat, solver.grid, dt=1.0)
        assert solver.stable_dt(cfl=0.5) == pytest.approx(allocating, rel=1e-12)


class TestDistributedObservability:
    def test_rank_lanes_and_transpose_bytes(self):
        obs = Observability.create()
        grid = SpectralGrid(16)
        comm = VirtualComm(4)
        rng = np.random.default_rng(0)
        solver = DistributedNavierStokesSolver(
            grid, comm, random_isotropic_field(grid, rng, energy=1.0), obs=obs
        )
        solver.step(1e-3)
        lanes = set(a.lane for a in obs.spans.activities)
        assert {"rank0.local", "rank1.local", "rank2.local", "rank3.local"} <= lanes
        assert "main" in lanes
        # RK2: 2 RHS x 2 exchanges (one per direction, every field batched).
        assert obs.metrics.counter("transpose.count").value == 4
        assert obs.metrics.counter("transpose.bytes_moved").value > 0
        assert obs.metrics.counter("solver.steps").value == 1

    def test_transpose_span_and_bytes_match_comm_stats(self):
        obs = Observability.create()
        comm = VirtualComm(2)
        locals_ = [np.zeros((8, 16, 9), dtype=np.complex128) for _ in range(2)]
        transpose_exchange(comm, locals_, pack_axis=1, unpack_axis=0, obs=obs)
        cats = [a.category for a in obs.spans.activities]
        assert cats.count("pack") == 2  # pack + unpack
        assert cats.count("mpi") == 1
        moved = obs.metrics.counter("transpose.bytes_moved").value
        assert moved == comm.stats.records[-1].total_bytes

    def test_rank_tracers_cleared_between_steps(self):
        obs = Observability.create()
        grid = SpectralGrid(16)
        comm = VirtualComm(2)
        rng = np.random.default_rng(0)
        solver = DistributedNavierStokesSolver(
            grid, comm, random_isotropic_field(grid, rng, energy=1.0), obs=obs
        )
        # The constructor's dealiasing ran on the ranks' compute lanes.
        count0 = len(obs.spans)
        solver.step(1e-3)
        count1 = len(obs.spans) - count0
        solver.step(1e-3)
        # Second step adds roughly as many spans again (no duplication of
        # the first step's rank-local spans on re-merge).
        assert len(obs.spans) - count0 == 2 * count1


class TestOutOfCoreObservability:
    def test_arena_counters_and_high_water(self):
        obs = Observability.create()
        arena = DeviceArena(capacity_bytes=4096, obs=obs)
        engine = Batched2DEngine(obs=obs)
        rings = PencilRings(arena, 1)
        rings.reserve({"real": 512})
        back = np.empty(64)
        for _ in range(2):  # the second pass reuses the claimed slot
            slot = rings.view("real", 0, (64,), np.float64)
            engine.h2d(slot, np.ones(64))  # 512 B
            engine.d2h(back, slot)
            rings.reserve({"real": 512})
        assert obs.metrics.counter("arena.acquires").value == 1
        assert obs.metrics.counter("arena.releases").value == 0
        rings.close()
        assert np.all(back == 1.0)
        assert arena.in_use == 0
        assert obs.metrics.counter("arena.releases").value == 1
        assert obs.metrics.gauge("arena.high_water_bytes").value == 512
        cats = [a.category for a in obs.spans.activities]
        assert cats == ["h2d", "d2h"] * 2

    def test_outofcore_fft_records_pencil_and_transfer_spans(self):
        obs = Observability.create()
        grid = SpectralGrid(16)
        comm = VirtualComm(2)
        fft = OutOfCoreSlabFFT(grid, comm, npencils=4, obs=obs)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(grid.physical_shape)
        fft.forward(fft.decomp.scatter_physical(u))
        cats = set(a.category for a in obs.spans.activities)
        assert {"fft", "h2d", "d2h", "mpi"} <= cats
        assert "pack" not in cats  # the D2H is the pack
        assert obs.metrics.counter("arena.acquires").value > 0
        assert obs.metrics.counter("transpose.count").value == 1
