"""End-to-end verification harness: fuzzing + schedule exploration.

:func:`run_verification` is what ``repro verify`` (and the CI ``verify``
job) executes.  It builds one deterministic distributed Navier-Stokes
problem, computes the sync-backend reference trajectory once, then:

1. **Fuzz matrix** — for every (seed, profile) pair, runs the full solver
   on the threaded out-of-core pipeline under a :class:`FuzzBackend`
   (seeded delays, dispatch reordering, transient op faults), a
   fault-capable comm shim (:class:`CommFaultPlan` dropping / delaying
   all-to-all chunks, recovered by the engine's retry/backoff), and an
   :class:`InvariantMonitor` asserting the buffer discipline inside the
   run.  Each case must finish under a deadlock watchdog, match the
   reference **bit-for-bit**, hold every invariant, and leave the arena
   empty.

2. **Engine pairs** — for every seed, the engine-invariance property's
   draw (:mod:`repro.verify.invariance`): one physics point run on two
   engine configurations, compared under the bound their differing
   ``JobSpec`` rows declare.

3. **Schedule exploration** — replays the out-of-core transform's recorded
   event graph through :class:`ReplayBackend` in sampled legal linear
   extensions (plus the submission order), asserting schedulability
   (deadlock-freedom), the structural window gates, and bit-exact results
   in every order.

The report carries enough to reproduce any failure: the case's seed and
profile name map 1:1 onto ``repro verify --seeds SEED --profiles NAME``
(or ``dns --fuzz SEED --fuzz-profile NAME``), and a pair's line names its
seed, physics point and both configurations (``--seeds SEED`` replays
it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import Observability
from repro.obs.flight import (
    FlightRecorder,
    current_flight,
    install_flight,
    uninstall_flight,
)
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig
from repro.verify.explorer import ReplayBackend
from repro.verify.faults import CommFaultPlan
from repro.verify.fuzz import FuzzProfile, fuzz_profile
from repro.verify.invariance import PairOutcome, draw_pair, run_pair
from repro.verify.invariants import InvariantMonitor
from repro.verify.watchdog import DeadlockTimeout, watchdog

__all__ = [
    "FuzzCase",
    "IMBALANCE_PROFILES",
    "VerificationReport",
    "run_verification",
]

DEFAULT_SEEDS = (101, 202, 303)
DEFAULT_PROFILES = ("calm", "jittery", "stormy", "faulty", "flaky-net")
#: The load-imbalance tier (`repro verify --profiles imbalance_...`): a
#: seeded slow rank per run, one stage category per profile.  Typically
#: combined with uneven ``heights`` and ``dlb="lend"``.
IMBALANCE_PROFILES = ("imbalance_compute", "imbalance_copy", "imbalance_comm")


@dataclass
class FuzzCase:
    """Outcome of one fuzzed full-solver run."""

    seed: int
    profile: str
    ok: bool
    error: Optional[str] = None
    faults_injected: int = 0
    faults_recovered: int = 0
    comm_faults: int = 0
    comm_dropped: int = 0
    comm_late: int = 0
    invariant_checks: int = 0
    wall_seconds: float = 0.0
    flight_dump: Optional[str] = None
    imbalance_seconds: float = 0.0
    pencils_lent: int = 0
    pencils_reclaimed: int = 0

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.error})"
        dlb = (
            f" dlb={self.pencils_lent}lent/{self.pencils_reclaimed}recl"
            if self.pencils_lent or self.pencils_reclaimed
            else ""
        )
        imb = (
            f" imb={self.imbalance_seconds:.3f}s"
            if self.imbalance_seconds > 0.0
            else ""
        )
        return (
            f"seed={self.seed} profile={self.profile:<10s} {status}  "
            f"op-faults={self.faults_injected}/{self.faults_recovered}rec "
            f"comm-faults={self.comm_faults} "
            f"(drop {self.comm_dropped}, late {self.comm_late}) "
            f"checks={self.invariant_checks}{dlb}{imb} "
            f"{self.wall_seconds:.2f}s"
        )


@dataclass
class VerificationReport:
    """Everything ``repro verify`` prints / exports."""

    cases: list[FuzzCase] = field(default_factory=list)
    pairs: list[PairOutcome] = field(default_factory=list)
    explorer_orders: int = 0
    explorer_ops: int = 0
    explorer_ok: bool = False
    explorer_error: Optional[str] = None
    violations: list[str] = field(default_factory=list)
    metrics_records: list[dict] = field(default_factory=list)
    flight_dumps: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            bool(self.cases)
            and all(c.ok for c in self.cases)
            and all(p.ok for p in self.pairs)
            and self.explorer_ok
            and not self.violations
        )

    @property
    def total_faults(self) -> int:
        return sum(c.faults_injected + c.comm_faults for c in self.cases)

    def render(self) -> str:
        lines = ["verification report", "-" * 19]
        for c in self.cases:
            lines.append("  " + c.describe())
        for p in self.pairs:
            lines.append("  " + p.describe())
        lines.append(
            f"  explorer: {self.explorer_orders} order(s), "
            f"{self.explorer_ops} op(s) replayed — "
            + ("ok" if self.explorer_ok else f"FAIL ({self.explorer_error})")
        )
        if self.violations:
            lines.append(f"  invariant violations ({len(self.violations)}):")
            lines.extend(f"    {v}" for v in self.violations)
        if self.flight_dumps:
            lines.append(f"  flight dumps ({len(self.flight_dumps)}):")
            lines.extend(f"    {p}" for p in self.flight_dumps)
        lines.append(
            f"  verdict: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.cases)} fuzz case(s), "
            f"{len(self.pairs)} engine pair(s), "
            f"{self.total_faults} fault(s) injected)"
        )
        perturbed = self.total_faults > 0 or any(
            c.imbalance_seconds > 0.0 for c in self.cases
        )
        if self.passed and not perturbed:
            lines.append(
                "  warning: no faults or imbalance were injected — raise "
                "rates or add seeds for a meaningful run"
            )
        return "\n".join(lines)


def _reference_trajectory(
    grid: SpectralGrid,
    u0: np.ndarray,
    config: SolverConfig,
    ranks: int,
    npencils: int,
    steps: int,
    dt: float,
    copy_strategy: str = "memcpy2d",
    heights: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The sync-backend oracle state after ``steps`` steps."""
    with DistributedNavierStokesSolver(
        grid, VirtualComm(ranks), u0, config=config,
        npencils=npencils, pipeline="sync", copy_strategy=copy_strategy,
        heights=heights,
    ) as solver:
        for _ in range(steps):
            solver.step(dt)
        return solver.gather_state()


def _initial_condition(grid: SpectralGrid, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (3, *grid.spectral_shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
        grid.cdtype
    )


def run_verification(
    n: int = 16,
    ranks: int = 2,
    npencils: int = 4,
    inflight: int = 3,
    steps: int = 1,
    dt: float = 1e-3,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    profiles: Sequence[str] = DEFAULT_PROFILES,
    orders: int = 8,
    watchdog_seconds: float = 30.0,
    verbose: bool = False,
    copy_strategy: str = "memcpy2d",
    artifact_dir: Optional[str] = None,
    run_id: Optional[str] = None,
    heights: Optional[Sequence[int]] = None,
    dlb: str = "off",
) -> VerificationReport:
    """Run the fuzz matrix, one engine pair per seed and the schedule
    exploration; see module doc.

    ``heights`` (uneven per-rank slab extents) and ``dlb`` (``off`` /
    ``lend``) extend the matrix to the load-imbalance tier: the unfuzzed
    sync reference runs on the same decomposition (DLB off —
    lanes never change bytes, which is exactly what the comparison
    proves), and every fuzzed case must still match it bit-for-bit.

    ``copy_strategy`` selects the strided host<->device copy engine for
    both the reference and every fuzzed run (all strategies are
    bit-identical, so the matrix passes regardless of the choice — a
    ``never`` row of the engine-invariance property).

    A :class:`~repro.obs.flight.FlightRecorder` is installed for the whole
    matrix: a case that deadlocks (watchdog expiry) or fails leaves a
    post-mortem dump under ``artifact_dir`` (default: working directory)
    with the last spans, events, and heartbeat ages; the report lists every
    dump written.
    """
    grid = SpectralGrid(n)
    config = SolverConfig(nu=0.02, scheme="rk2", phase_shift=True, seed=11)
    u0 = _initial_condition(grid)
    reference = _reference_trajectory(
        grid, u0, config, ranks, npencils, steps, dt,
        copy_strategy=copy_strategy, heights=heights,
    )
    report = VerificationReport()
    flight = FlightRecorder(capacity=512, run_id=run_id,
                            artifact_dir=artifact_dir)
    previous = current_flight()
    install_flight(flight)
    try:
        for seed in seeds:
            for name in profiles:
                profile = fuzz_profile(name, seed)
                case = _run_fuzz_case(
                    grid, u0, config, reference, ranks, npencils, inflight,
                    steps, dt, profile, watchdog_seconds, report,
                    copy_strategy=copy_strategy, flight=flight,
                    heights=heights, dlb=dlb,
                )
                report.cases.append(case)
                if verbose:
                    print(case.describe())
            pair = draw_pair(seed)
            try:
                with watchdog(watchdog_seconds,
                              label=f"engine pair seed={seed}"):
                    outcome = run_pair(pair)
            except DeadlockTimeout as exc:
                outcome = PairOutcome(pair, error=f"DeadlockTimeout: {exc}")
            report.pairs.append(outcome)
            if verbose:
                print(outcome.describe())

        _run_explorer(
            grid, ranks, npencils, inflight, orders, watchdog_seconds, report
        )
    finally:
        if previous is not None:
            install_flight(previous)
        else:
            uninstall_flight()
        report.flight_dumps = [str(p) for p in flight.dumps]
    return report


def _run_fuzz_case(
    grid: SpectralGrid,
    u0: np.ndarray,
    config: SolverConfig,
    reference: np.ndarray,
    ranks: int,
    npencils: int,
    inflight: int,
    steps: int,
    dt: float,
    profile: FuzzProfile,
    watchdog_seconds: float,
    report: VerificationReport,
    copy_strategy: str = "memcpy2d",
    flight: Optional[FlightRecorder] = None,
    heights: Optional[Sequence[int]] = None,
    dlb: str = "off",
) -> FuzzCase:
    case = FuzzCase(seed=profile.seed, profile=profile.name, ok=False)
    comm = VirtualComm(ranks)
    plan = None
    if profile.comm_drop_rate > 0.0 or profile.comm_late_rate > 0.0:
        plan = CommFaultPlan(
            seed=profile.seed,
            drop_rate=profile.comm_drop_rate,
            late_rate=profile.comm_late_rate,
        )
        comm.fault_injector = plan
    monitor = InvariantMonitor()
    obs = Observability.create(flight=flight)
    start = time.perf_counter()
    solver = None
    try:
        with watchdog(
            watchdog_seconds,
            label=f"fuzz seed={profile.seed} profile={profile.name}",
        ):
            solver = DistributedNavierStokesSolver(
                grid, comm, u0, config=config, obs=obs,
                npencils=npencils, pipeline="threads", inflight=inflight,
                fuzz=profile, monitor=monitor,
                copy_strategy=copy_strategy,
                heights=heights, dlb=dlb,
            )
            for _ in range(steps):
                solver.step(dt)
            state = solver.gather_state()
        if not np.array_equal(state, reference):
            raise AssertionError(
                "fuzzed trajectory diverged from sync reference "
                f"(max |diff| = {float(np.max(np.abs(state - reference))):.3e})"
            )
        monitor.assert_quiescent()
        if solver.fft.arena.in_use != 0:
            raise AssertionError(
                f"arena holds {solver.fft.arena.in_use} B after the run"
            )
        case.ok = True
    except BaseException as exc:  # noqa: BLE001 - reported, not re-raised
        case.error = f"{type(exc).__name__}: {exc}"
        if flight is not None:
            if isinstance(exc, DeadlockTimeout):
                # The watchdog already dumped via dump_current_flight.
                if flight.dumps:
                    case.flight_dump = str(flight.dumps[-1])
            else:
                case.flight_dump = str(flight.dump(
                    reason=f"fuzz-fail-seed{profile.seed}-{profile.name}"
                ))
    finally:
        case.wall_seconds = time.perf_counter() - start
        if solver is not None:
            backend = solver.fft._backend
            stats = getattr(backend, "stats", None)
            if stats is not None:
                case.faults_injected = stats["injected"]
                case.faults_recovered = stats["recovered"]
                case.imbalance_seconds = stats.get("imbalance_seconds", 0.0)
            policy = getattr(solver.fft, "_dlb_policy", None)
            if policy is not None:
                case.pencils_lent = policy.pencils_lent
                case.pencils_reclaimed = policy.pencils_reclaimed
            solver.close()
        if plan is not None:
            case.comm_faults = plan.injected
            case.comm_dropped = plan.dropped
            case.comm_late = plan.late
        case.invariant_checks = monitor.checks
        report.violations.extend(monitor.violations)
        if obs.enabled:
            for rec in obs.metrics.snapshot():
                rec["fuzz_seed"] = profile.seed
                rec["fuzz_profile"] = profile.name
                report.metrics_records.append(rec)
    return case


def _run_explorer(
    grid: SpectralGrid,
    ranks: int,
    npencils: int,
    inflight: int,
    orders: int,
    watchdog_seconds: float,
    report: VerificationReport,
) -> None:
    from repro.dist.decomp import SlabDecomposition

    d = SlabDecomposition(grid.n, ranks)
    rng = np.random.default_rng(99)
    shape = d.local_spectral_shape()
    spec = [
        (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
            grid.cdtype
        )
        for _ in range(ranks)
    ]
    with OutOfCoreSlabFFT(
        grid, VirtualComm(ranks), npencils, pipeline="sync"
    ) as ref:
        ref_phys = ref.inverse(spec)
        ref_spec = ref.forward(ref_phys)

    try:
        with watchdog(watchdog_seconds, label="schedule exploration"):
            for k in range(orders):
                backend = ReplayBackend(
                    order="submission" if k == 0 else "random", seed=k
                )
                with OutOfCoreSlabFFT(
                    grid, VirtualComm(ranks), npencils,
                    backend=backend, inflight=inflight,
                ) as fft:
                    phys = fft.inverse(spec)
                    back = fft.forward(phys)
                for a, b in zip(phys, ref_phys):
                    if not np.array_equal(a, b):
                        raise AssertionError(
                            f"replay order {k} diverged in inverse transform"
                        )
                for a, b in zip(back, ref_spec):
                    if not np.array_equal(a, b):
                        raise AssertionError(
                            f"replay order {k} diverged in forward transform"
                        )
                for graph in backend.graphs:
                    graph.verify_window(fft.inflight)
                report.explorer_orders += 1
                report.explorer_ops += backend.ops_run
        report.explorer_ok = True
    except BaseException as exc:  # noqa: BLE001 - reported, not re-raised
        report.explorer_error = f"{type(exc).__name__}: {exc}"
