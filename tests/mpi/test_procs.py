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
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.transpose import transpose_exchange
from repro.dist.virtual_mpi import VirtualComm
from repro.mpi.procs import COMM_KINDS, ProcsComm, WorkerStallError, make_comm
from repro.obs import Observability
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


def _resident(engine, arrays):
    """``arrays`` copied into per-rank arrays ``engine.resident`` claims (a
    comm's or an FFT engine's): what a worker may address."""
    held = engine.resident([a.shape for a in arrays], arrays[0].dtype)
    for h, a in zip(held, arrays):
        h[...] = a
    return held


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

    def test_allreduce_no_alias(self, procs4):
        out = procs4.allreduce([np.zeros(3)] * 4)
        out[0][:] = 9.0
        assert np.all(out[1] == 0.0)


class TestRankTranspose:
    def test_pure_transpose_matches_virtual(self, procs4):
        rng = np.random.default_rng(3)
        locs = [rng.standard_normal((4, 16, 9)) for _ in range(4)]
        ref = transpose_exchange(VirtualComm(4), locs, pack_axis=1, unpack_axis=0)
        got = procs4.rank_transpose(_resident(procs4, locs), pack_axis=1,
                                    unpack_axis=0)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)

    def test_records_alltoall_stats(self, procs4):
        locs = procs4.resident([(4, 16, 8)] * 4, np.float64)
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
            got = procs4.rank_transpose(_resident(procs4, locs), pack_axis=2,
                                        unpack_axis=1)
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
        # The in-process reference: the whole slab as one pencil, inline.
        ref_fft = OutOfCoreSlabFFT(grid, VirtualComm(P), npencils=1)
        ref_phys = ref_fft.inverse(spec)
        ref_back = ref_fft.forward(ref_phys)
        comm = ProcsComm(P)
        try:
            fft = SlabDistributedFFT(grid, comm)
            phys = fft.inverse(_resident(comm, spec))
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
        """``out=`` reaches ``rank_transpose``, whose workers unpack into
        the caller's resident arrays instead of ones it claims."""
        grid, P = SpectralGrid(24), 2
        comm = ProcsComm(P)
        try:
            fft = SlabDistributedFFT(grid, comm, heights=heights)
            d = fft.decomp
            rng = np.random.default_rng(3)
            spec = _resident(fft, [
                rng.standard_normal(d.local_spectral_shape(r))
                + 1j * rng.standard_normal(d.local_spectral_shape(r))
                for r in range(P)
            ])
            phys = fft.inverse(spec)
            into = _resident(fft, [np.full(d.local_physical_shape(r), np.nan)
                                   for r in range(P)])
            assert all(g is o for g, o in zip(fft.inverse(spec, out=into), into))
            assert all(np.array_equal(o, e) for o, e in zip(into, phys))
            back = fft.forward(phys)
            into = _resident(fft, [np.full(d.local_spectral_shape(r), np.nan,
                                           dtype=complex) for r in range(P)])
            fft.forward(phys, out=into)
            assert all(np.array_equal(o, e) for o, e in zip(into, back))
        finally:
            comm.close()

    @pytest.mark.parametrize("fields", [3, 4], ids=["S0", "S1"])
    @pytest.mark.parametrize("heights", [None, (17, 7)],
                             ids=["even", "uneven"])
    def test_a_lent_landing_is_bit_equal_and_claims_no_slab(
        self, heights, fields
    ):
        """The substage's first exchange unpacks into a resident buffer
        of the caller's: the in-process bits, and no ``transposed`` claim
        in the workers."""
        from repro.spectral.pointwise import PRODUCT_PAIRS

        grid, P = SpectralGrid(24), 2
        pairs = PRODUCT_PAIRS + ((0, 3), (1, 3), (2, 3))[:3 * fields - 9]
        with OutOfCoreSlabFFT(grid, VirtualComm(P), 1, heights=heights) as ref:
            d, rng = ref.decomp, np.random.default_rng(7)
            shapes = [(fields, *d.local_spectral_shape(r)) for r in range(P)]
            values = [rng.standard_normal(s) + 1j * rng.standard_normal(s)
                      for s in shapes]
            want = ref.product_spectra(values, pairs)
        with ProcsComm(P) as comm:
            fft = SlabDistributedFFT(grid, comm, heights=heights)
            coeffs = fft.resident(shapes, grid.cdtype)
            land = fft.resident(shapes, grid.cdtype)
            for c, v in zip(coeffs, values):
                c[...] = v
            lent = [g.copy() for g in fft.product_spectra(coeffs, pairs,
                                                          land=land)]
            claims = [w["buffers"] for w in comm.worker_claims()]
            own = fft.product_spectra(coeffs, pairs)
            more = [w["buffers"] - b
                    for w, b in zip(comm.worker_claims(), claims)]
        # The y-FFTs' output and the products' work block; the second
        # exchange unpacks into ``out`` and transforms it in place.
        assert claims == [2] * P
        assert more == [1] * P  # the worker's transposed slab, unlent
        for w, a, b in zip(want, lent, own):
            assert np.array_equal(w, a) and np.array_equal(w, b)

    def test_worker_spans_land_in_rank_lanes(self):
        from repro.obs import Observability

        grid = SpectralGrid(16)
        obs = Observability(enabled=True)
        comm = ProcsComm(2)
        try:
            fft = SlabDistributedFFT(grid, comm, obs=obs)
            fft.inverse(_resident(comm, _spectral_field(grid, 2)))
        finally:
            comm.close()
        lanes = {a.lane for a in obs.spans.to_tracer().activities}
        assert "rank0.proc" in lanes and "rank1.proc" in lanes


class TestCrossBackendSolverDeterminism:
    """That full RK steps over procs give the in-process bits is the
    engine-invariance property's (``tests/verify/test_invariance.py``).
    These keep what it cannot check: the refusal of hooks without pencils,
    one fault plan firing the same faults on both backends, and faults aimed
    at the fused blocking exchange."""

    def test_hooks_need_pencils_over_workers(self):
        """The worker-fused whole slab has no lanes to fuzz, monitor or
        lend: a reasoned refusal, and with pencils the hooks run."""
        from repro.verify import InvariantMonitor
        from repro.verify.fuzz import FuzzProfile

        grid = SpectralGrid(16)
        u0 = np.zeros((3, *grid.spectral_shape), grid.cdtype)
        with ProcsComm(2) as comm:
            for hook in ({"fuzz": FuzzProfile(seed=1)},
                         {"monitor": InvariantMonitor()}, {"dlb": "lend"}):
                with pytest.raises(ValueError, match="need pencils over worker"):
                    DistributedNavierStokesSolver(grid, comm, u0, **hook)
            with DistributedNavierStokesSolver(grid, comm, u0, npencils=2,
                                               dlb="lend") as solver:
                solver.step(1e-3)

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
        """Faults aimed at the fused blocking exchange: a dropped exchange
        re-dispatches the pack alone, from the pre stage's output, and every
        leg — one transform, one batched substage, full solver steps — stays
        bit-identical to the in-process reference."""
        from repro.spectral import random_isotropic_field
        from repro.spectral.pointwise import PRODUCT_PAIRS

        grid = SpectralGrid(16)
        spec = _spectral_field(grid, 2, seed=13)
        fields = [np.stack([s, 0.5 * s, s.conj()]) for s in spec]
        u0 = random_isotropic_field(grid, np.random.default_rng(13), energy=1.0)
        cfg = SolverConfig(nu=0.02, scheme="rk2")

        def run(comm, fft):
            coeffs, spectra = _resident(fft, fields), _resident(fft, spec)
            legs = {
                "inverse": [fft.inverse(spectra) for _ in range(3)],
                "products": [[p.copy() for p in fft.product_spectra(
                    coeffs, PRODUCT_PAIRS)] for _ in range(3)],
            }
            solver = DistributedNavierStokesSolver(grid, comm, u0, cfg,
                                                   obs=fft.obs)
            legs["step"] = [[solver.step(1e-3).energy, solver.gather_state()]
                            for _ in range(2)]
            return legs

        with OutOfCoreSlabFFT(grid, VirtualComm(2), npencils=1) as inline:
            ref = run(inline.comm, inline)
        comm = ProcsComm(2)
        comm.fault_injector = CommFaultPlan(
            seed=3, drop_rate=0.4, late_rate=0.3, kinds=("alltoall",)
        )
        obs = Observability(enabled=True)
        try:
            got = run(comm, SlabDistributedFFT(grid, comm, obs=obs))
        finally:
            comm.close()
        for leg, runs in ref.items():
            for want, have in zip(runs, got[leg]):
                for a, b in zip(want, have):
                    assert np.array_equal(a, b), leg
        assert comm.fault_injector.injected > 0
        assert comm.fault_retries == comm.fault_injector.injected
        # The pencil exchange's counters, from the same recovery loop.
        assert obs.metrics.counter("comm.retries").value == comm.fault_retries
        assert (obs.metrics.counter("comm.faults.transient").value
                == comm.fault_injector.injected)


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


def _total(a):
    """Module-level, so a worker can import it: the sum of a rank's array."""
    return complex(a.sum())


def _fill(a, value):
    a[...] = value


def _solver_run(comm, n=16, steps=2):
    from repro.spectral import random_isotropic_field

    grid = SpectralGrid(n)
    u0 = random_isotropic_field(grid, np.random.default_rng(5), energy=1.0)
    cfg = SolverConfig(nu=0.02, scheme="rk2", diagnostics_every=0)
    solver = DistributedNavierStokesSolver(grid, comm, u0, cfg)
    for _ in range(steps):
        solver.step(1e-3)
    return solver


class TestResidentState:
    """Each rank's slab lives in its worker's shared memory; the driver
    only conducts."""

    def test_rank_calls_address_resident_arrays_in_place(self):
        with ProcsComm(2) as comm:
            arrays = comm.resident([(3, 4), (5, 4)], np.complex128)
            comm.each_rank(_fill, arrays, [1.5, 2.5j])
            assert np.all(arrays[0] == 1.5) and np.all(arrays[1] == 2.5j)
            assert comm.each_rank(_total, arrays) == [18.0, 50j]

    def test_ring_growth_leaves_claimed_arrays_in_place(self, monkeypatch):
        import repro.mpi.procs

        monkeypatch.setattr(repro.mpi.procs, "_INITIAL_RING_BYTES", 4096)
        with ProcsComm(2) as comm:
            arrays = comm.resident([(8, 8)] * 2, np.float64)
            comm.each_rank(_fill, arrays, [3.0, 4.0])
            where = [a.__array_interface__["data"][0] for a in arrays]
            before = comm._seg_bytes
            big = comm.resident([(64, 64, 8)] * 2, np.float64)
            comm.rank_transpose(big, pack_axis=1, unpack_axis=0)
            assert comm._seg_bytes > before  # the rings grew
            assert [a.__array_interface__["data"][0] for a in arrays] == where
            assert np.all(arrays[0] == 3.0) and np.all(arrays[1] == 4.0)
            assert comm.each_rank(_total, arrays) == [192.0, 256.0]

    def test_segments_are_gone_after_close(self):
        from multiprocessing import shared_memory

        comm = ProcsComm(2)
        arrays = comm.resident([(4,), (4,)], np.float64)
        names = [seg.name for seg in comm._resident_segs]
        comm.close()
        arrays[0][...] = 1.0  # the driver's views outlive the names
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segments_are_gone_after_the_gc_finalizer(self):
        import gc
        from multiprocessing import shared_memory

        comm = ProcsComm(2)
        comm.resident([(4,), (4,)], np.float64)
        names = [seg.name for seg in comm._resident_segs]
        finalizer = comm._finalizer
        del comm
        gc.collect()
        assert not finalizer.alive
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_worker_killed_mid_rank_call_is_a_stall(self):
        import threading

        comm = ProcsComm(2, heartbeat_interval=0.05, stall_timeout=0.5)
        try:
            threading.Timer(0.3, comm._workers[1][0].kill).start()
            with pytest.raises(WorkerStallError, match="rank 1"):
                comm.each_rank(time.sleep, [1.0, 1.0])
        finally:
            comm.close()

    def test_state_lives_once_in_shared_memory(self):
        with ProcsComm(2) as comm:
            solver = _solver_run(comm, steps=0)
            for array in solver._state + solver.u_hat:
                assert comm._descriptor(array) is not None

    def test_steps_claim_nothing_new_in_the_workers(self):
        with ProcsComm(2) as comm:
            solver = _solver_run(comm, steps=2)
            before = comm.worker_claims()
            for _ in range(5):
                solver.step(1e-3)
            after = comm.worker_claims()
        for b, a in zip(before, after):
            assert (a["buffers"], a["segments"]) == (b["buffers"], b["segments"])
            assert b["buffers"] > 0

    def test_a_step_is_four_exchanges_in_at_most_two_messages(self, monkeypatch):
        """Per RK2 substage the shift, both exchanges (each worker packs,
        meets its peers at the barrier, unpacks), the assembly and the
        combination queue up: the combination sends them as one message."""
        calls = []
        original = ProcsComm.rank_transpose

        def counted(self, *args, **kwargs):
            calls.append(kwargs.get("pre"))
            return original(self, *args, **kwargs)

        with ProcsComm(2) as comm:
            solver = _solver_run(comm, steps=1)
            monkeypatch.setattr(ProcsComm, "rank_transpose", counted)
            ops = [r["ops_completed"] for r in comm.heartbeats()]
            solver.step(1e-3)
            ops = [r["ops_completed"] - o for r, o in zip(comm.heartbeats(), ops)]
        assert calls == ["inv_y", None] * 2
        assert all(o <= 2 for o in ops), ops


def _raise_on(flag):
    if flag:
        raise ValueError("this rank call fails on purpose")


def _rows(comm):
    """Per rank a resident 4 x 4 block holding its rank, and a resident
    8 x 2 block the exchange along axis 1 into axis 0 lands in."""
    x = comm.resident([(4, 4)] * 2, np.float64)
    for r, a in enumerate(x):
        a[...] = np.arange(16).reshape(4, 4) + 100 * r
    return x, comm.resident([(8, 2)] * 2, np.float64)


#: One RK2 step at 16^3 over two workers started by ``sys.argv[1]``; prints
#: the state's hash.
_STEP_AND_HASH = """
import hashlib, sys
import numpy as np
from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.mpi.procs import ProcsComm
from repro.spectral import random_isotropic_field
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig

grid = SpectralGrid(16)
u0 = random_isotropic_field(grid, np.random.default_rng(5), energy=1.0)
with ProcsComm(2, start_method=sys.argv[1]) as comm:
    solver = DistributedNavierStokesSolver(grid, comm, u0, SolverConfig(nu=0.02))
    solver.step(1e-3)
    print(hashlib.sha256(solver.gather_state().tobytes()).hexdigest())
"""


class TestBarrier:
    """Workers meet at one barrier per exchange; the driver only queues."""

    def test_a_raising_rank_call_names_its_rank_and_strands_no_peer(self):
        """Rank 1 raises between two queued exchanges, with rank 0 bound
        for the second one's barrier: rank 1 still meets it there, so
        rank 0 finishes its ops, the error names rank 1, and the exchanges
        that follow are whole."""
        from multiprocessing import shared_memory

        comm = ProcsComm(2)
        try:
            x, y = _rows(comm)
            want = [a.copy() for a in x]
            comm.rank_transpose(x, pack_axis=1, unpack_axis=0, out=y, wait=False)
            comm.each_rank(_raise_on, [False, True], wait=False)
            with pytest.raises(RuntimeError,
                               match="(?s)rank 1 worker failed.*on purpose"):
                comm.rank_transpose(y, pack_axis=0, unpack_axis=1, out=x)
            comm.rank_transpose(y, pack_axis=0, unpack_axis=1, out=x)
            for a, b in zip(want, x):
                assert np.array_equal(a, b)
            procs = [proc for proc, _ in comm._workers]
            names = [seg.name for seg in comm._segments + comm._resident_segs]
        finally:
            comm.close()
        assert not any(proc.is_alive() for proc in procs)
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_spawned_workers_step_bit_identically_to_forked_ones(self):
        """A spawned worker imports for about a second before its first
        heartbeat and shares the driver's resource tracker: neither may
        read as a stall or unregister the driver's segments (whose
        tracker then prints KeyError tracebacks)."""
        import subprocess
        import sys

        import repro

        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
        env.pop("REPRO_PROCS_START", None)
        runs = {method: subprocess.run(
                    [sys.executable, "-c", _STEP_AND_HASH, method], env=env,
                    capture_output=True, text=True, timeout=120)
                for method in ("fork", "spawn")}
        for method, run in runs.items():
            assert run.returncode == 0 and run.stderr == "", (method, run.stderr)
        assert runs["spawn"].stdout == runs["fork"].stdout != ""


class TestReasonedRefusal:
    """What cannot cross to a worker is a TypeError naming the argument."""

    def test_lambda(self):
        with ProcsComm(2) as comm:
            with pytest.raises(TypeError, match="the function.*lambda"):
                comm.each_rank(lambda a: a, [1, 2])

    def test_closure(self):
        def local_fill(a, value):
            a[...] = value

        with ProcsComm(2) as comm:
            arrays = comm.resident([(2,), (2,)], np.float64)
            with pytest.raises(TypeError, match="the function.*local_fill"):
                comm.each_rank(local_fill, arrays, [0.0, 1.0])
            with pytest.raises(TypeError, match="argument 1 of rank 0.*closure"):
                comm.each_rank(_fill, arrays, [local_fill, local_fill])

    def test_array_that_is_not_resident(self):
        with ProcsComm(2) as comm:
            arrays = comm.resident([(2,), (2,)], np.float64)
            loose = [arrays[0], np.zeros(2)]
            with pytest.raises(TypeError,
                               match="argument 0 of rank 1 is not a resident"):
                comm.each_rank(_fill, loose, [0.0, 1.0])

    @pytest.mark.parametrize("role", ["locals_", "out", "land"])
    def test_exchange_array_that_is_not_resident(self, role):
        """``rank_transpose`` takes what ``each_rank`` takes: resident
        arrays only, the loose one named before anything is queued."""
        with ProcsComm(2) as comm:
            x, y = _rows(comm)
            args = {"locals_": comm.resident([(4, 4, 3)] * 2, complex),
                    "out": comm.resident([(8, 2, 4)] * 2, float),
                    "land": comm.resident([(8, 2, 3)] * 2, complex)}
            args[role] = [args[role][0], np.zeros_like(args[role][1])]
            with pytest.raises(TypeError,
                               match=f"{role} of rank 1 is not a resident"):
                comm.rank_transpose(args["locals_"], pack_axis=1,
                                    unpack_axis=0, post="inv_zx", n=4,
                                    out=args["out"], land=args["land"])
            # Nothing was queued: the next exchange round-trips exactly.
            comm.rank_transpose(x, pack_axis=1, unpack_axis=0, out=y)
            assert np.array_equal(comm.rank_transpose(
                y, pack_axis=0, unpack_axis=1)[1], x[1])


class TestWallClockFloor:
    """Real ranks must buy wall-clock once the cores exist; the answer may
    not move (worker spawn stays outside the timed steps)."""

    @staticmethod
    def _per_step(comm, ranks, steps):
        from repro.serve.runner import open_solver
        from repro.serve.spec import JobSpec

        spec = JobSpec(n=64, steps=steps, ranks=ranks, comm=comm,
                       ic="random").validate()
        stamps = []
        with open_solver(spec) as opened:
            result = opened.run(
                on_step=lambda *_: stamps.append(time.perf_counter()))
        # the first step warms FFT plans and buffers on both backends
        return (stamps[-1] - stamps[0]) / (steps - 1), result.energies

    def _floor(self, ranks, steps, ratio, runs=3):
        """Medians of ``runs`` timings per side, the sides taking turns to
        go first, as ``bench.compare`` pairs its runs: one run per side is
        at the mercy of whatever else the machine does at that moment."""
        times = {"virtual": [], "procs": []}
        energies = []
        for k in range(runs):
            for comm in sorted(times, reverse=k % 2 == 0):
                per_step, energy = self._per_step(comm, ranks, steps)
                times[comm].append(per_step)
                energies.append(energy)
        assert all(e == energies[0] for e in energies)
        virtual, procs = (float(np.median(times[c])) for c in ("virtual", "procs"))
        assert virtual / procs >= ratio, (
            f"procs {procs:.3f} s/step vs virtual {virtual:.3f} s/step "
            f"(medians of {runs}) on {os.cpu_count()} cores")

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="two workers cannot beat one driver on one core")
    def test_procs_at_least_1_15x_virtual_at_64_cubed_2_ranks(self):
        """Each worker runs its rank's transforms, products and pointwise
        work on its own state, so two ranks on two cores beat one driver."""
        self._floor(ranks=2, steps=6, ratio=1.15)

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="procs cannot beat virtual without >= 4 cores")
    def test_procs_at_least_1_3x_virtual_at_64_cubed_4_ranks(self):
        self._floor(ranks=4, steps=4, ratio=1.3)


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

        assert main(["dns", "--n", "16", "--steps", "1", "--ranks", "2",
                     "--comm", "mpi"]) == 2
        assert capsys.readouterr().err == (
            "error: --comm='mpi' not in ('virtual', 'procs')\n")
