"""Scheduler conformance fuzzing: random workloads, invariant checks.

The service's determinism contract — same (job set, seed, capacity) ⇒
same placement trace — is only as strong as the workloads it has been
held against.  This module generates random-but-seeded multi-tenant
workloads and plans each one twice in fresh stores, asserting the three
conformance invariants the ``serve`` test tier and ``repro verify
--scheduler`` both lean on:

* **determinism** — the two traces are byte-identical;
* **capacity** — replaying the trace's admit/finish ledger never exceeds
  the declared device-byte or slot capacity
  (:meth:`~repro.serve.scheduler.PlacementTrace.verify_capacity`);
* **fairness/liveness** — every admit picks the lowest-finish-tag pending
  job that fits, and every feasible job is eventually admitted
  (:meth:`~repro.serve.scheduler.PlacementTrace.verify_fairness`).

Everything here is plan-only (no DNS steps run), so a hundred-case sweep
costs seconds: this is model-space fuzzing, same spirit as
:mod:`repro.verify.explorer` sampling interleavings without real GPUs.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.serve.scheduler import (
    FairShareScheduler,
    PlacementTrace,
    ServeCapacity,
)
from repro.serve.spec import JobSpec
from repro.serve.store import JobStore

__all__ = [
    "SchedFuzzCase",
    "SchedFuzzReport",
    "plan_workload",
    "random_workload",
    "run_scheduler_fuzz",
]

_TENANTS = ("alice", "bob", "carol", "dave")
_SCHEMES = ("rk2", "rk4")


def random_workload(seed: int, max_jobs: int = 8) -> list[JobSpec]:
    """A seeded list of valid job specs spanning the spec space.

    Mixes serial and distributed jobs, priorities, schemes, and the
    occasional height-skewed decomposition — the dimensions admission
    pricing actually differentiates on.  Pure function of ``seed``.
    """
    rng = random.Random(seed)
    jobs = []
    for i in range(rng.randint(1, max_jobs)):
        n = rng.choice((8, 12, 16, 24))
        distributed = rng.random() < 0.5
        ranks = npencils = skew = None
        pipeline = "sync"
        inflight = 3
        if distributed:
            ranks = rng.choice((2, 4))
            npencils = rng.choice([d for d in (2, 4) if n % d == 0])
            pipeline = rng.choice(("sync", "threads"))
            inflight = rng.randint(2, 4)
            if rng.random() < 0.25:
                skew = round(rng.uniform(1.0, 2.0), 2)
        jobs.append(JobSpec(
            name=f"fz{i}",
            tenant=rng.choice(_TENANTS),
            priority=rng.randint(-2, 3),
            n=n,
            steps=rng.randint(1, 4),
            scheme=rng.choice(_SCHEMES),
            ranks=ranks,
            npencils=npencils,
            pipeline=pipeline,
            inflight=inflight,
            skew=skew,
        ))
    return jobs


def plan_workload(
    specs: list[JobSpec],
    capacity: ServeCapacity,
    seed: int,
    root: Union[str, Path],
) -> PlacementTrace:
    """Submit ``specs`` into a fresh store at ``root`` and plan (no exec)."""
    store = JobStore(root)
    for spec in specs:
        store.submit(spec)
    with FairShareScheduler(store, capacity=capacity, seed=seed) as sched:
        return sched.plan()


@dataclass
class SchedFuzzCase:
    """One workload's conformance verdict."""

    seed: int
    n_jobs: int
    capacity: ServeCapacity
    deterministic: bool = False
    capacity_ok: bool = False
    fairness_ok: bool = False
    admitted: int = 0
    rejected: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.deterministic and self.capacity_ok
                and self.fairness_ok and self.error is None)


@dataclass
class SchedFuzzReport:
    """The sweep's summary, rendered by ``repro verify --scheduler``."""

    cases: list[SchedFuzzCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.cases) and all(c.ok for c in self.cases)

    @property
    def failures(self) -> list[SchedFuzzCase]:
        return [c for c in self.cases if not c.ok]

    def render(self) -> str:
        lines = [
            f"scheduler fuzz: {len(self.cases)} workloads, "
            f"{len(self.failures)} failed"
        ]
        for c in self.cases:
            mark = "ok " if c.ok else "FAIL"
            lines.append(
                f"  [{mark}] seed={c.seed:<4d} jobs={c.n_jobs} "
                f"admitted={c.admitted} rejected={c.rejected} "
                f"det={'y' if c.deterministic else 'N'} "
                f"cap={'y' if c.capacity_ok else 'N'} "
                f"fair={'y' if c.fairness_ok else 'N'}"
                + (f"  {c.error}" if c.error else "")
            )
        return "\n".join(lines)


def run_scheduler_fuzz(
    seeds: Optional[list[int]] = None,
    capacity: Optional[ServeCapacity] = None,
    max_jobs: int = 8,
) -> SchedFuzzReport:
    """Plan each seeded workload twice and check the three invariants."""
    if seeds is None:
        seeds = list(range(12))
    report = SchedFuzzReport()
    for seed in seeds:
        cap = capacity if capacity is not None else ServeCapacity(
            device_bytes=float(random.Random(seed ^ 0xC0FFEE).choice(
                (64_000, 256_000, 2**31)
            )),
            max_jobs=random.Random(seed ^ 0xBEEF).choice((1, 2, 3, 4)),
        )
        specs = random_workload(seed, max_jobs=max_jobs)
        case = SchedFuzzCase(seed=seed, n_jobs=len(specs), capacity=cap)
        try:
            with tempfile.TemporaryDirectory(prefix="schedfuzz-") as tmp:
                t1 = plan_workload(specs, cap, seed, Path(tmp) / "a")
                t2 = plan_workload(specs, cap, seed, Path(tmp) / "b")
            case.deterministic = t1.to_json() == t2.to_json()
            case.admitted = len(t1.admitted_ids())
            case.rejected = len(t1.rejected_ids())
            try:
                t1.verify_capacity()
                case.capacity_ok = True
            except AssertionError as exc:
                case.error = f"capacity: {exc}"
            try:
                t1.verify_fairness()
                case.fairness_ok = True
            except AssertionError as exc:
                case.error = (case.error + "; " if case.error else "") + \
                    f"fairness: {exc}"
        except Exception as exc:  # conformance harness must not crash
            case.error = f"{type(exc).__name__}: {exc}"
        report.cases.append(case)
    return report
