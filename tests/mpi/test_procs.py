"""Process-pool comm backend: conformance, bit-equality, fault recovery.

The contract under test is the one the paper's production code gets from
MPI for free: ranks are separate address spaces, and moving from the
in-process :class:`VirtualComm` to real worker processes must change
*wall-clock behavior only* — every array that comes back is bit-identical,
collectively and through full RK2/RK4 solver steps, with and without
injected transient comm faults.
"""

import os
import time

import numpy as np
import pytest

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.transpose import transpose_exchange
from repro.dist.virtual_mpi import VirtualComm
from repro.mpi.procs import COMM_KINDS, ProcsComm, make_comm
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig
from repro.verify.faults import CommFaultPlan


@pytest.fixture
def procs4():
    comm = ProcsComm(4)
    yield comm
    comm.close()


def _spectral_field(grid, P, seed=0):
    from repro.dist.decomp import SlabDecomposition

    d = SlabDecomposition(grid.n, P)
    rng = np.random.default_rng(seed)
    shape = d.local_spectral_shape()
    return [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            grid.cdtype
        )
        for _ in range(P)
    ]


class TestFactory:
    def test_kinds(self):
        assert set(COMM_KINDS) == {"virtual", "procs"}

    def test_virtual(self):
        comm = make_comm("virtual", 3)
        assert type(comm) is VirtualComm and comm.size == 3

    def test_procs(self):
        comm = make_comm("procs", 2)
        try:
            assert isinstance(comm, ProcsComm)
            assert len(set(comm.worker_pids)) == 2
        finally:
            comm.close()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown comm kind"):
            make_comm("smoke-signals", 2)

    def test_mpi_gated(self):
        # The mpi4py transport is gone; its name is just another unknown kind.
        with pytest.raises(ValueError, match="unknown comm kind 'mpi'"):
            make_comm("mpi", 2)


class TestCollectiveConformance:
    """Inherited collectives behave exactly like the reference comm."""

    def test_alltoall_routing(self, procs4):
        send = [[np.full(2, 10 * r + s) for s in range(4)] for r in range(4)]
        recv = procs4.alltoall(send)
        for s in range(4):
            for r in range(4):
                assert np.all(recv[s][r] == 10 * r + s)

    def test_ialltoall_and_allreduce(self, procs4):
        send = [[np.full(2, r + s) for s in range(4)] for r in range(4)]
        got = procs4.ialltoall(send).wait()
        ref = VirtualComm(4).ialltoall(send).wait()
        for g_row, r_row in zip(got, ref):
            for g, r in zip(g_row, r_row):
                assert np.array_equal(g, r)
        assert procs4.allreduce([1.0, 2.0, 3.0, 4.0]) == [10.0] * 4

    def test_bcast_allgather_no_alias(self, procs4):
        out = procs4.bcast(np.zeros(3))
        out[0][:] = 9.0
        assert np.all(out[1] == 0.0)
        gathered = procs4.allgather([np.zeros(2)] * 4)
        gathered[0][0][:] = 5.0
        assert np.all(gathered[1][0] == 0.0)


class TestRankTranspose:
    def test_pure_transpose_matches_virtual(self, procs4):
        rng = np.random.default_rng(3)
        locs = [rng.standard_normal((4, 16, 9)) for _ in range(4)]
        ref = transpose_exchange(VirtualComm(4), locs, pack_axis=1, unpack_axis=0)
        got = transpose_exchange(procs4, locs, pack_axis=1, unpack_axis=0)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)

    def test_records_alltoall_stats(self, procs4):
        locs = [np.zeros((4, 16, 8)) for _ in range(4)]
        procs4.rank_transpose(locs, pack_axis=1, unpack_axis=0)
        rec = procs4.stats.records[-1]
        assert rec.kind == "alltoall"
        assert rec.uniform
        assert rec.messages == 16
        assert rec.total_bytes == sum(loc.nbytes for loc in locs)

    def test_complex_dtype_and_arena_growth(self, procs4):
        rng = np.random.default_rng(4)
        for n in (8, 32):  # second round forces segment growth
            locs = [
                (rng.standard_normal((n, n, n)) +
                 1j * rng.standard_normal((n, n, n))).astype(np.complex128)
                for _ in range(4)
            ]
            ref = transpose_exchange(
                VirtualComm(4), locs, pack_axis=2, unpack_axis=1
            )
            got = transpose_exchange(procs4, locs, pack_axis=2, unpack_axis=1)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b)

    def test_rejects_indivisible_axis(self, procs4):
        with pytest.raises(ValueError, match="not divisible"):
            procs4.rank_transpose(
                [np.zeros((3, 5, 2))] * 4, pack_axis=1, unpack_axis=0
            )

    def test_closed_comm_raises(self):
        comm = ProcsComm(2)
        comm.close()
        comm.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            comm.rank_transpose([np.zeros((2, 2, 2))] * 2,
                                pack_axis=0, unpack_axis=1)


class TestFusedSlabFFT:
    @pytest.mark.parametrize("n,P", [(16, 2), (24, 4)])
    def test_bit_equal_to_inline(self, n, P):
        grid = SpectralGrid(n)
        spec = _spectral_field(grid, P)
        ref_fft = SlabDistributedFFT(grid, VirtualComm(P))
        ref_phys = ref_fft.inverse(spec)
        ref_back = ref_fft.forward(ref_phys)
        comm = ProcsComm(P)
        try:
            fft = SlabDistributedFFT(grid, comm)
            phys = fft.inverse(spec)
            back = fft.forward(phys)
        finally:
            comm.close()
        for a, b in zip(ref_phys, phys):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)  # bit-identical, not allclose
        for a, b in zip(ref_back, back):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("heights", [None, (17, 7)])
    def test_out_is_filled_bit_identically(self, heights):
        """``out=`` reaches ``rank_transpose``, which copies each outbox
        into the caller's array instead of a fresh one."""
        grid, P = SpectralGrid(24), 2
        comm = ProcsComm(P)
        try:
            fft = SlabDistributedFFT(grid, comm, heights=heights)
            d = fft.decomp
            rng = np.random.default_rng(3)
            spec = [
                rng.standard_normal(d.local_spectral_shape(r))
                + 1j * rng.standard_normal(d.local_spectral_shape(r))
                for r in range(P)
            ]
            phys = fft.inverse(spec)
            into = [np.full(d.local_physical_shape(r), np.nan) for r in range(P)]
            assert all(g is o for g, o in zip(fft.inverse(spec, out=into), into))
            assert all(np.array_equal(o, e) for o, e in zip(into, phys))
            back = fft.forward(phys)
            into = [np.full(d.local_spectral_shape(r), np.nan, dtype=complex)
                    for r in range(P)]
            fft.forward(phys, out=into)
            assert all(np.array_equal(o, e) for o, e in zip(into, back))
        finally:
            comm.close()

    def test_worker_spans_land_in_rank_lanes(self):
        from repro.obs import Observability

        grid = SpectralGrid(16)
        obs = Observability(enabled=True)
        comm = ProcsComm(2)
        try:
            fft = SlabDistributedFFT(grid, comm, obs=obs)
            fft.inverse(_spectral_field(grid, 2))
        finally:
            comm.close()
        lanes = {a.lane for a in obs.spans.to_tracer().activities}
        assert "rank0.proc" in lanes and "rank1.proc" in lanes


class TestCrossBackendSolverDeterminism:
    """Full RK steps bit-identical across comm backends (the tentpole's
    acceptance bar: procs must change wall-clock behavior only)."""

    @pytest.mark.parametrize("scheme,n,P", [
        ("rk2", 24, 2),
        ("rk2", 32, 4),
        ("rk4", 24, 3),
        ("rk4", 32, 2),
    ])
    def test_rk_steps_bit_identical(self, scheme, n, P):
        grid = SpectralGrid(n)
        rng = np.random.default_rng(7)
        from repro.spectral import random_isotropic_field

        u0 = random_isotropic_field(grid, rng, energy=1.0)
        cfg = SolverConfig(nu=0.02, scheme=scheme)
        dt = 0.25 * grid.dx

        ref = DistributedNavierStokesSolver(grid, VirtualComm(P), u0, cfg)
        for _ in range(2):
            ref_result = ref.step(dt)

        comm = ProcsComm(P)
        try:
            solver = DistributedNavierStokesSolver(grid, comm, u0, cfg)
            for _ in range(2):
                result = solver.step(dt)
            assert result.energy == ref_result.energy  # bit-equal floats
            assert result.dissipation == ref_result.dissipation
            for a, b in zip(ref.u_hat, solver.u_hat):
                assert np.array_equal(a, b)
        finally:
            comm.close()

    def test_bit_identical_under_fault_plan(self):
        """One seeded CommFaultPlan profile on both backends.

        The plan's default kinds target the non-blocking path, so the
        solvers run the out-of-core engine (chunked ialltoall) where the
        retry loop lives; the injected drop/late faults must not perturb a
        single bit on either backend, and both must see the same faults
        (the plan draws in collective order, which matches because procs
        inherits the very same driver-side ialltoall).
        """
        grid = SpectralGrid(24)
        rng = np.random.default_rng(11)
        from repro.spectral import random_isotropic_field

        u0 = random_isotropic_field(grid, rng, energy=1.0)
        cfg = SolverConfig(nu=0.02, scheme="rk2")
        dt = 0.25 * grid.dx

        def run(comm):
            comm.fault_injector = CommFaultPlan(
                seed=5, drop_rate=0.15, late_rate=0.15
            )
            solver = DistributedNavierStokesSolver(
                grid, comm, u0, cfg, npencils=4
            )
            try:
                solver.step(dt)
                result = solver.step(dt)
            finally:
                solver.close()
            return result, solver.u_hat, comm.fault_injector

        ref_result, ref_state, ref_plan = run(VirtualComm(2))
        comm = ProcsComm(2)
        try:
            result, state, plan = run(comm)
        finally:
            comm.close()
        assert ref_plan.injected > 0, "profile injected nothing; test is vacuous"
        assert plan.injected == ref_plan.injected
        assert result.energy == ref_result.energy
        for a, b in zip(ref_state, state):
            assert np.array_equal(a, b)

    def test_fused_path_recovers_from_faults(self):
        """Faults aimed at the fused blocking exchange: the stage1 re-pack
        recovery must yield bit-identical transforms."""
        grid = SpectralGrid(16)
        spec = _spectral_field(grid, 2, seed=13)
        ref = SlabDistributedFFT(grid, VirtualComm(2)).inverse(spec)

        comm = ProcsComm(2)
        comm.fault_injector = CommFaultPlan(
            seed=3, drop_rate=0.4, late_rate=0.3, kinds=("alltoall",)
        )
        try:
            for _ in range(6):  # enough draws to hit both fault shapes
                got = SlabDistributedFFT(grid, comm).inverse(spec)
                for a, b in zip(ref, got):
                    assert np.array_equal(a, b)
        finally:
            comm.close()
        assert comm.fault_injector.injected > 0
        assert comm.fault_retries == comm.fault_injector.injected


class TestFaultPlanPickles:
    def test_round_trip_replays_identical_sequence(self):
        import pickle

        plan = CommFaultPlan(seed=9, drop_rate=0.3, late_rate=0.3)
        clone = pickle.loads(pickle.dumps(plan))
        comm = VirtualComm(2)

        def drive(p):
            outcomes = []
            for _ in range(20):
                try:
                    p.check("ialltoall", comm)
                    outcomes.append("ok")
                except Exception as exc:
                    outcomes.append("drop" if exc.dropped else "late")
            return outcomes

        assert drive(plan) == drive(clone)
        assert clone.injected == plan.injected


class TestWallClockFloor:
    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="procs cannot beat virtual without >= 4 cores")
    def test_procs_at_least_1_3x_virtual_at_64_cubed_4_ranks(self):
        """Real ranks must buy wall-clock once the cores exist; the answer
        may not move (worker spawn stays outside the timed steps)."""
        from repro.serve.runner import open_solver
        from repro.serve.spec import JobSpec

        def timed(comm):
            spec = JobSpec(n=64, steps=4, ranks=4, comm=comm,
                           ic="random").validate()
            stamps = []
            with open_solver(spec) as opened:
                result = opened.run(
                    on_step=lambda *_: stamps.append(time.perf_counter()))
            # the first step warms FFT plans and buffers on both backends
            return (stamps[-1] - stamps[0]) / 3, result.energies

        virtual, reference = timed("virtual")
        procs, energies = timed("procs")
        assert energies == reference
        assert virtual / procs >= 1.3, (
            f"procs {procs:.3f} s/step vs virtual {virtual:.3f} s/step on "
            f"{os.cpu_count()} cores")


class TestCli:
    def test_dns_comm_procs(self, capsys):
        from repro.cli import main

        assert main(["dns", "--n", "16", "--steps", "2", "--ranks", "2",
                     "--comm", "procs"]) == 0
        out = capsys.readouterr().out
        assert "comm=procs" in out
        assert "worker pids" in out

    def test_dns_comm_mpi_is_an_invalid_choice(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["dns", "--n", "16", "--steps", "1", "--ranks", "2",
                  "--comm", "mpi"])
        assert exc.value.code == 2
        assert "invalid choice: 'mpi'" in capsys.readouterr().err
