"""End-to-end verification harness: engine pairs + schedule exploration.

:func:`run_verification` is what ``repro verify`` (and the CI ``verify``
job) executes.  It takes the :class:`~repro.serve.spec.JobSpec` the verify
flags name and proves the paper's Sec. 3.4 claim, that the Fig. 4 schedule
reorders execution and never data, in three stages:

1. **Fuzz matrix** — every (seed, profile) is an engine pair of that spec
   (:mod:`repro.verify.invariance`).  Side A runs on the threaded pipeline
   under the fuzz seed and profile: seeded delays, dropped or late
   all-to-all chunks, slowed ranks, and an :class:`InvariantMonitor`
   asserting the buffer discipline inside the run.  Side B is the same
   spec under ``pipeline="sync"``, ``dlb="off"``, run once and compared
   with every A.  Each A must finish under a deadlock watchdog, match B
   bit for bit, hold every invariant, hold nothing in the arena beside
   its engine's ring between steps, and nothing once closed.

2. **Engine pairs** — for every seed, the engine-invariance property's
   draw: one physics point run on two engine configurations, compared
   under the bound their differing ``JobSpec`` rows declare.

3. **Schedule exploration** — replays the recorded event graph of the
   spec's out-of-core engine (a round trip and the solver's substage) in
   sampled legal linear extensions (plus the submission order), asserting
   schedulability (deadlock-freedom), the structural window gates, and
   bit-exact results in every order
   (:func:`~repro.verify.explorer.replay_orders`).

Every side of every pair opens through the runner's construction path, so
this module builds no solver of its own.  Each report line names what
reproduces it: a fuzz case's line names its seed and profile (``repro
verify --seeds SEED --profiles NAME`` replays it), and a drawn pair's line
names its seed, physics point and both configurations (``--seeds SEED``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs import Observability
from repro.obs.flight import (
    FlightRecorder,
    current_flight,
    install_flight,
    uninstall_flight,
)
from repro.serve.spec import JobSpec
from repro.verify.explorer import replay_orders
from repro.verify.invariance import (
    EnginePair,
    PairOutcome,
    _run,
    draw_pair,
    run_pair,
)
from repro.verify.watchdog import DeadlockTimeout, watchdog

__all__ = [
    "DEFAULT_SPEC",
    "IMBALANCE_PROFILES",
    "VerificationReport",
    "run_verification",
]

#: What ``repro verify`` without flags checks: the engine shape of its
#: flag defaults on a random field, one RK2 step of ``dt`` 1e-3.
DEFAULT_SPEC = JobSpec(n=16, steps=1, dt=1e-3, ic="random", ranks=2,
                       npencils=4)
DEFAULT_SEEDS = (101, 202, 303)
DEFAULT_PROFILES = ("calm", "jittery", "stormy", "flaky-net", "chaos")
#: The load-imbalance tier (`repro verify --profiles imbalance_...`): a
#: seeded slow rank per run, one stage category per profile.  Typically
#: combined with uneven ``heights`` and ``dlb="lend"``.
IMBALANCE_PROFILES = ("imbalance_compute", "imbalance_copy", "imbalance_comm")


@dataclass
class VerificationReport:
    """Everything ``repro verify`` prints / exports."""

    cases: list[PairOutcome] = field(default_factory=list)
    pairs: list[PairOutcome] = field(default_factory=list)
    explorer_orders: int = 0
    explorer_ops: int = 0
    explorer_ok: bool = False
    explorer_error: Optional[str] = None
    metrics_records: list[dict] = field(default_factory=list)
    flight_dumps: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            bool(self.cases)
            and all(c.ok for c in self.cases)
            and all(p.ok for p in self.pairs)
            and self.explorer_ok
        )

    @property
    def total_faults(self) -> int:
        return sum(c.comm_faults for c in self.cases)

    def render(self) -> str:
        lines = ["verification report", "-" * 19]
        lines.extend("  " + o.describe() for o in self.cases + self.pairs)
        lines.append(
            f"  explorer: {self.explorer_orders} order(s), "
            f"{self.explorer_ops} op(s) replayed — "
            + ("ok" if self.explorer_ok else f"FAIL ({self.explorer_error})")
        )
        if self.flight_dumps:
            lines.append(f"  flight dumps ({len(self.flight_dumps)}):")
            lines.extend(f"    {p}" for p in self.flight_dumps)
        lines.append(
            f"  verdict: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.cases)} fuzz case(s), "
            f"{len(self.pairs)} engine pair(s), "
            f"{self.total_faults} comm fault(s) injected)"
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


def _fuzz_pair(spec: JobSpec, seed: int, profile: str) -> EnginePair:
    """The fuzz case ``(seed, profile)`` of ``spec``: A is fuzzed on the
    threaded pipeline, B is the unfuzzed sync reference without lanes."""
    return EnginePair(
        seed, phase_shift=True, scalars=0,
        a=spec.with_(pipeline="threads", fuzz_seed=seed,
                     fuzz_profile=profile).validate(),
        b=spec.with_(pipeline="sync", dlb="off").validate())


def run_verification(
    spec: JobSpec = DEFAULT_SPEC,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    profiles: Sequence[str] = DEFAULT_PROFILES,
    orders: int = 8,
    watchdog_seconds: float = 30.0,
    verbose: bool = False,
    artifact_dir: Optional[str] = None,
    run_id: Optional[str] = None,
) -> VerificationReport:
    """Run the fuzz matrix of ``spec``, one drawn engine pair per seed and
    the schedule exploration; see module doc.

    ``spec`` names the physics and the engine shape (``ranks``,
    ``npencils``, ``inflight``, ``copy_strategy``, ``heights``/``skew``,
    ``dlb``).  An invalid spec, or one no fuzz case can run (no
    ``ranks``), raises :class:`ValueError` before anything runs.

    A :class:`~repro.obs.flight.FlightRecorder` is installed for the whole
    matrix: a fuzz case that deadlocks (watchdog expiry) or fails leaves a
    post-mortem dump under ``artifact_dir`` (default: working directory)
    with the last spans, events, and heartbeat ages; the report lists every
    dump written.
    """
    matrix = [[_fuzz_pair(spec, s, p) for p in profiles] for s in seeds]
    cases = [pair for row in matrix for pair in row]
    report = VerificationReport()
    flight = FlightRecorder(capacity=512, run_id=run_id,
                            artifact_dir=artifact_dir)
    previous = current_flight()
    install_flight(flight)
    try:
        # Side B is the same for every case: run it once.
        reference = None
        if cases:
            with watchdog(watchdog_seconds, label="sync reference"):
                reference = _run(cases[0], cases[0].b, PairOutcome(cases[0]))
        for seed, row in zip(seeds, matrix):
            for pair in row:
                outcome = _fuzz_case(pair, reference, watchdog_seconds,
                                     flight, report)
                report.cases.append(outcome)
                if verbose:
                    print(outcome.describe())
            outcome = _watched(draw_pair(seed), watchdog_seconds,
                               f"engine pair seed={seed}")
            report.pairs.append(outcome)
            if verbose:
                print(outcome.describe())
        _run_explorer(spec, orders, watchdog_seconds, report)
    finally:
        if previous is not None:
            install_flight(previous)
        else:
            uninstall_flight()
        report.flight_dumps = [str(p) for p in flight.dumps]
    return report


def _watched(pair: EnginePair, seconds: float, label: str,
             **kwargs) -> PairOutcome:
    """:func:`run_pair` under the deadlock watchdog; expiry fails the pair."""
    try:
        with watchdog(seconds, label=label):
            return run_pair(pair, **kwargs)
    except DeadlockTimeout as exc:
        return PairOutcome(pair, error=f"DeadlockTimeout: {exc}")


def _fuzz_case(pair: EnginePair, reference, watchdog_seconds: float,
               flight: FlightRecorder,
               report: VerificationReport) -> PairOutcome:
    """One fuzzed A against the shared B, with its metrics and, on failure,
    its flight dump (the watchdog's own on expiry)."""
    seed, profile = pair.seed, pair.a.fuzz_profile
    obs = Observability.create(flight=flight)
    dumps = len(flight.dumps)
    outcome = _watched(pair, watchdog_seconds,
                       f"fuzz seed={seed} profile={profile}",
                       obs=obs, reference=reference)
    if not outcome.ok:
        outcome.flight_dump = str(
            flight.dumps[-1] if len(flight.dumps) > dumps
            else flight.dump(reason=f"fuzz-fail-seed{seed}-{profile}"))
    report.metrics_records.extend(
        {**rec, "fuzz_seed": seed, "fuzz_profile": profile}
        for rec in obs.metrics.snapshot())
    return outcome


def _run_explorer(spec: JobSpec, orders: int, watchdog_seconds: float,
                  report: VerificationReport) -> None:
    try:
        with watchdog(watchdog_seconds, label="schedule exploration"):
            for ops in replay_orders(spec, orders):
                report.explorer_orders += 1
                report.explorer_ops += ops
        report.explorer_ok = True
    except Exception as exc:  # noqa: BLE001 - reported, not re-raised
        report.explorer_error = f"{type(exc).__name__}: {exc}"
