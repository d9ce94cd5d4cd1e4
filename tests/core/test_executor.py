"""Tests for the DNS step executor: pipeline semantics and paper trends."""

import pytest

from repro.core.config import Algorithm, RunConfig
from repro.core.executor import StepSimulation, simulate_step


def cfg(**kw):
    defaults = dict(n=3072, nodes=16, tasks_per_node=2, npencils=3)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestBasicExecution:
    def test_async_step_completes_with_positive_time(self, machine):
        t = simulate_step(cfg(), machine)
        assert 1.0 < t.step_time < 100.0
        assert t.mpi_time > 0
        assert t.gpu_busy_time > 0

    def test_deterministic(self, machine):
        a = simulate_step(cfg(), machine).step_time
        b = simulate_step(cfg(), machine).step_time
        assert a == b

    def test_trace_contains_all_lanes(self, machine):
        t = simulate_step(cfg(), machine, trace=True)
        lanes = t.tracer.lanes()
        assert any("transfer" in l for l in lanes)
        assert any("compute" in l for l in lanes)
        assert any("mpi" in l for l in lanes)

    def test_trace_disabled_still_times(self, machine):
        t = simulate_step(cfg(), machine, trace=False)
        assert t.step_time > 0
        assert not t.breakdown  # nothing recorded

    def test_operation_counts_scale_with_pencils(self, machine):
        few = simulate_step(cfg(q_pencils_per_a2a=1), machine)
        h2d_count = len(few.tracer.filter(category="h2d"))
        # 3 stages x 3 pencils x 2 substages x 3 GPUs of the one rank.
        assert h2d_count == 3 * 3 * 2 * 3

    def test_mpi_count_matches_groups(self, machine):
        t = simulate_step(cfg(q_pencils_per_a2a=1), machine)
        # 2 exchanges/substage x 3 groups x 2 substages (per rank).
        assert len(t.tracer.filter(category="mpi")) == 12
        t_slab = simulate_step(cfg(q_pencils_per_a2a=3), machine)
        assert len(t_slab.tracer.filter(category="mpi")) == 4


class TestAlgorithmVariants:
    def test_sync_gpu_slower_than_async(self, machine):
        """The asynchronous overlap must actually buy time (Sec. 3.4).

        Compared at matched MPI protocol (whole slab per exchange) so the
        difference isolates the GPU-side stream overlap; the 18432^3 point
        is used because there the per-pencil copy/pack work is substantial.
        """
        big = cfg(n=18432, nodes=3072, npencils=4, q_pencils_per_a2a=4)
        async_t = simulate_step(big, machine, trace=False).step_time
        sync_t = simulate_step(
            big.with_(algorithm=Algorithm.SYNC_GPU), machine, trace=False
        ).step_time
        assert sync_t > 1.02 * async_t

    def test_mpi_only_is_lower_bound(self, machine):
        """Fig. 9: the MPI-only skeleton bounds every GPU configuration."""
        mpi_t = simulate_step(
            cfg(algorithm=Algorithm.MPI_ONLY, q_pencils_per_a2a=3), machine
        ).step_time
        for q in (1, 3):
            gpu_t = simulate_step(cfg(q_pencils_per_a2a=q), machine).step_time
            assert gpu_t > mpi_t

    def test_cpu_baseline_much_slower(self, machine):
        cpu_t = simulate_step(cfg(algorithm=Algorithm.CPU_BASELINE), machine)
        gpu_t = simulate_step(cfg(), machine)
        assert cpu_t.step_time > 3 * gpu_t.step_time

    def test_rk4_roughly_doubles_rk2(self, machine):
        """Paper Sec. 2: 'The cost of RK4 per time step is approximately
        doubled'."""
        rk2 = simulate_step(cfg(scheme="rk2"), machine).step_time
        rk4 = simulate_step(cfg(scheme="rk4"), machine).step_time
        assert rk4 / rk2 == pytest.approx(2.0, rel=0.1)

    def test_gpu_direct_no_significant_benefit(self, machine):
        """Paper Sec. 3.3: implementing CUDA-aware MPI/GPU-direct gave 'no
        noticeable benefit' — the network card, not the staging copies, is
        the bottleneck.  Evaluated at the production scales the paper ran
        (the copies' DRAM contention matters a little more at 16 nodes)."""
        big = cfg(n=12288, nodes=1024, q_pencils_per_a2a=1)
        base = simulate_step(big, machine, trace=False).step_time
        direct = simulate_step(big.with_(gpu_direct=True), machine, trace=False).step_time
        assert 0 <= (base - direct) / base < 0.05

    def test_zero_copy_unpack_not_slower_than_memcpy2d_chains(self, machine):
        """Paper Sec. 4.2: the production unpack is the zero-copy kernel;
        falling back to cudaMemcpy2DAsync chains must not be the faster
        whole step."""
        big = cfg(n=12288, nodes=1024, q_pencils_per_a2a=3)
        zero_copy = simulate_step(big, machine, trace=False).step_time
        chains = simulate_step(
            big.with_(zero_copy_unpack=False), machine, trace=False
        ).step_time
        assert zero_copy <= chains * 1.02


class TestPaperTrends:
    def test_b_beats_a_at_small_scale(self, machine):
        a = simulate_step(cfg(tasks_per_node=6, q_pencils_per_a2a=1), machine)
        b = simulate_step(cfg(tasks_per_node=2, q_pencils_per_a2a=1), machine)
        assert b.step_time < a.step_time

    def test_slab_beats_pencil_beyond_16_nodes(self, machine):
        """Sec. 5.2: 'Beyond 16 nodes, waiting to send the entire slab at
        once is faster than overlapping a pencil at a time'."""
        for nodes, n in ((128, 6144), (1024, 12288)):
            pencil = simulate_step(
                cfg(n=n, nodes=nodes, q_pencils_per_a2a=1), machine, trace=False
            ).step_time
            slab = simulate_step(
                cfg(n=n, nodes=nodes, q_pencils_per_a2a=3), machine, trace=False
            ).step_time
            assert slab < pencil

    def test_pencil_beats_slab_at_16_nodes(self, machine):
        pencil = simulate_step(cfg(q_pencils_per_a2a=1), machine).step_time
        slab = simulate_step(cfg(q_pencils_per_a2a=3), machine).step_time
        assert pencil < slab

    def test_mpi_dominates_runtime_at_scale(self, machine):
        """Sec. 5.2 / Fig. 10: MPI is the major user of runtime; GPU work is
        under ~1/7 for the best configuration at 12288^3."""
        t = simulate_step(
            cfg(n=12288, nodes=1024, q_pencils_per_a2a=3), machine
        )
        assert t.mpi_time > 0.6 * t.step_time
        assert t.gpu_busy_time < 0.35 * t.step_time

    def test_headline_18432_under_20s(self, machine):
        """The headline: 18432^3 on 3072 nodes at a production-feasible rate
        (paper: 14.24 s; the model must land in the same regime, meeting the
        paper's stated ~20 s/step production goal)."""
        t = simulate_step(
            cfg(n=18432, nodes=3072, npencils=4, q_pencils_per_a2a=4),
            machine,
            trace=False,
        )
        assert t.step_time < 20.5

    def test_weak_scaling_time_grows_gently(self, machine):
        """216x more grid points on 192x more nodes costs ~2x per step."""
        t16 = simulate_step(cfg(q_pencils_per_a2a=1), machine, trace=False).step_time
        t3072 = simulate_step(
            cfg(n=18432, nodes=3072, npencils=4, q_pencils_per_a2a=4),
            machine,
            trace=False,
        ).step_time
        assert 1.2 < t3072 / t16 < 3.5


class TestStepTimingAccessors:
    def test_breakdown_categories(self, machine):
        t = simulate_step(cfg(), machine)
        for cat in ("mpi", "h2d", "d2h", "fft"):
            assert cat in t.breakdown
            assert t.breakdown[cat] > 0

    def test_cpu_breakdown_has_cpu_categories(self, machine):
        t = simulate_step(cfg(algorithm=Algorithm.CPU_BASELINE), machine)
        assert "cpu" in t.breakdown
        assert "pack" in t.breakdown
        assert "mpi" in t.breakdown


class TestTracerToggle:
    """`trace=False` must actually disable recording (this was once broken
    by a dead conditional that constructed an enabled tracer either way)."""

    def test_trace_false_records_nothing(self, machine):
        t = simulate_step(cfg(), machine, trace=False)
        assert len(t.tracer) == 0
        assert t.breakdown == {}
        assert t.step_time > 0

    def test_trace_flag_does_not_change_timing(self, machine):
        on = simulate_step(cfg(), machine, trace=True)
        off = simulate_step(cfg(), machine, trace=False)
        assert on.step_time == off.step_time
        assert len(on.tracer) > 0

    def test_breakdown_matches_per_category_busy_time(self, machine):
        t = simulate_step(cfg(), machine, trace=True)
        expected = {
            c: t.tracer.busy_time(category=c) for c in t.tracer.categories()
        }
        assert t.breakdown == expected
