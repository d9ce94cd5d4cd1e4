"""Deterministic weighted fair-share scheduling over a virtual clock.

The scheduler packs concurrent DNS jobs onto a shared device budget the
way the paper packs pencils onto a GPU: decisions come from *priced
models*, never from measurements, so a given (job set, seed, capacity)
always yields the same placement trace — byte-identical JSON, diffable in
CI, replayable by the conformance tier.

Two phases:

1. **Plan** — a discrete-event simulation on the virtual clock.  Every
   pending job is priced by :class:`~repro.plan.admission.AdmissionPricer`
   (infeasible or over-capacity specs are *rejected with the quote*);
   admitted jobs receive start-time-fair-queuing finish tags
   (``tag = max(tenant's last tag, now) + virtual_seconds / weight``, one
   virtual queue per tenant) and are packed lowest-tag-first into the
   device-byte budget, with a bounded concurrent-job window.  The DES
   emits the placement trace: admit/finish events with virtual times and
   the free-capacity ledger.

2. **Execute** — each admission, in the trace's admit order, runs in a
   child forked from the scheduler once fewer than ``max_jobs`` jobs are
   live and its quoted bytes fit the capacity minus the live jobs' bytes;
   else it waits for a live job to end.  The plan's finish edges are not
   replayed: its virtual seconds are modelled Summit seconds, 1.5–8× off
   this machine's and not in one ratio (DESIGN §17), so replaying them
   idles slots.  Processes, not threads, because jobs on threads
   serialise on the GIL.  The parent is the store's only writer; a child
   writes its run directory and sends ``(summary, run_dir, error)`` home.
   Results are bit-identical to standalone runs: each job runs the same
   :func:`~repro.serve.runner.run_job` code path.

Determinism argument (DESIGN §17): every quantity entering an ordering
decision — quotes, weights, tags, the seeded tie-break — is a pure
function of (spec, seed, capacity); ties end at the monotonic submit
``seq``.  Wall-clock appears only in job-record timestamps, never in the
trace.
"""

from __future__ import annotations

import ctypes
import heapq
import json
import math
import os
import pickle
import random
import signal
import sys
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Callable, Optional

from repro.plan.admission import AdmissionPricer
from repro.serve.store import JobRecord, JobState, JobStore

__all__ = [
    "FairShareScheduler",
    "PlacementTrace",
    "ScheduleResult",
    "SchedulerCrash",
    "ServeCapacity",
]


class SchedulerCrash(RuntimeError):
    """Deliberate mid-run abort (the crash-recovery tests' kill switch).

    Raised out of a job hook, it propagates through the scheduler without
    any store cleanup — exactly like ``kill -9`` from the store's point
    of view: ``RUNNING`` rows stay ``RUNNING`` for the reconciler.  Live
    job processes are killed and reaped first, so none writes on into a
    run directory the reconciler will reuse.
    """


@dataclass(frozen=True)
class ServeCapacity:
    """The shared budget jobs are packed into."""

    #: Total device bytes across concurrently admitted jobs (the shared
    #: DeviceArena stand-in; each job's engine arena is capped to its
    #: quoted share, so the sum is enforced, not advisory).
    device_bytes: float = 2.0 * 1024**3
    #: Maximum concurrently running jobs (live job processes).
    max_jobs: int = 4

    def __post_init__(self):
        if not (math.isfinite(self.device_bytes) and self.device_bytes > 0):
            raise ValueError(f"device bytes must be finite and positive, "
                             f"got {self.device_bytes}")
        if self.max_jobs < 1:
            raise ValueError(f"max jobs must be >= 1, got {self.max_jobs}")

    def to_dict(self) -> dict:
        return {"device_bytes": float(self.device_bytes),
                "max_jobs": int(self.max_jobs)}


@dataclass
class PlacementTrace:
    """The deterministic artifact of one planning pass.

    ``jobs`` carries each job's pricing inputs (demand, duration, tag,
    tie-break, weight, seq); ``events`` the admit/finish/reject sequence
    with virtual times and the free-byte ledger.  ``to_json`` is
    byte-stable: sorted keys, no wall-clock, floats via ``repr``.
    """

    seed: int
    capacity: dict
    jobs: dict[str, dict] = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"kind": "placement-trace", "seed": self.seed,
             "capacity": self.capacity, "jobs": self.jobs,
             "events": self.events},
            indent=2, sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PlacementTrace":
        doc = json.loads(text)
        return cls(seed=doc["seed"], capacity=doc["capacity"],
                   jobs=doc["jobs"], events=doc["events"])

    # -- conformance checks (shared by tests and the verify harness) --------

    def admitted_ids(self) -> list[str]:
        return [e["job"] for e in self.events if e["event"] == "admit"]

    def rejected_ids(self) -> list[str]:
        return [e["job"] for e in self.events if e["event"] == "reject"]

    def verify_capacity(self) -> None:
        """Admitted-set demand never exceeds the device budget or job cap."""
        budget = self.capacity["device_bytes"]
        max_jobs = self.capacity["max_jobs"]
        in_use = 0.0
        live = 0
        for ev in self.events:
            if ev["event"] == "admit":
                in_use += self.jobs[ev["job"]]["device_bytes"]
                live += 1
                if in_use > budget * (1.0 + 1e-12):
                    raise AssertionError(
                        f"capacity exceeded at admit of {ev['job']}: "
                        f"{in_use} B live > {budget} B budget"
                    )
                if live > max_jobs:
                    raise AssertionError(
                        f"job window exceeded at admit of {ev['job']}: "
                        f"{live} > {max_jobs}"
                    )
            elif ev["event"] == "finish":
                in_use -= self.jobs[ev["job"]]["device_bytes"]
                live -= 1
        if live != 0 or abs(in_use) > 1e-6:
            raise AssertionError(
                f"ledger did not return to zero ({live} live, {in_use} B)"
            )

    def verify_fairness(self) -> None:
        """Every admission is the fitting pending job with the lowest tag.

        This is the no-starvation invariant in checkable form: a job can
        only be passed over while it does not fit the free budget, never
        because a higher-tag job was preferred — so as capacity frees,
        the lowest-tag waiter is always next.
        """
        budget = self.capacity["device_bytes"]
        max_jobs = self.capacity["max_jobs"]
        pending = {jid for jid, j in self.jobs.items() if j["admitted"]}
        free = budget
        live = 0

        def key(jid):
            j = self.jobs[jid]
            return (j["finish_tag"], j["tiebreak"], j["seq"])

        for ev in self.events:
            if ev["event"] == "admit":
                jid = ev["job"]
                fitting = [
                    p for p in pending
                    if self.jobs[p]["device_bytes"] <= free * (1.0 + 1e-12)
                ]
                if live >= max_jobs:
                    raise AssertionError(
                        f"admit of {jid} with window full ({live})"
                    )
                best = min(fitting, key=key)
                if key(jid) != key(best):
                    raise AssertionError(
                        f"unfair admission: {jid} admitted while {best} "
                        f"had a lower tag and fit"
                    )
                pending.discard(jid)
                free -= self.jobs[jid]["device_bytes"]
                live += 1
            elif ev["event"] == "finish":
                free += self.jobs[ev["job"]]["device_bytes"]
                live -= 1
        if pending:
            raise AssertionError(
                f"queue not drained: {sorted(pending)} never admitted"
            )


@dataclass
class _Child:
    """One live job process and what it has sent home so far."""

    rec: JobRecord
    pid: int
    fd: int
    device_bytes: float
    out: bytearray = field(default_factory=bytearray)


@dataclass
class ScheduleResult:
    """What one ``run-scheduler`` invocation did."""

    trace: PlacementTrace
    trace_path: Optional[str] = None
    admitted: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)
    done: list[str] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"schedule: {len(self.admitted)} admitted, "
            f"{len(self.rejected)} rejected, {len(self.done)} done, "
            f"{len(self.failed)} failed",
        ]
        if self.trace_path:
            lines.append(f"  placement trace: {self.trace_path}")
        for jid in self.rejected:
            lines.append(f"  EVICTED {jid}")
        for jid in self.failed:
            lines.append(f"  FAILED  {jid}")
        return "\n".join(lines)


class FairShareScheduler:
    """Plans deterministically, runs jobs in processes, persists every step.

    Parameters
    ----------
    store:
        The persistent :class:`JobStore`.
    capacity:
        Shared :class:`ServeCapacity` budget.
    seed:
        Tie-break seed; part of the determinism triple (job set, seed,
        capacity).
    machine:
        Machine model backing admission quotes.
    runner:
        ``runner(record, store) -> dict`` executing one job in its forked
        process; the dict must pickle (defaults to
        :func:`repro.serve.runner.make_store_runner`); injectable so the
        conformance tier can schedule thousands of virtual jobs without
        integrating Navier-Stokes.
    on_job_start:
        Optional hook called in the scheduler with the record just after
        it turns ``RUNNING``, before it forks — the crash-recovery tests raise
        :class:`SchedulerCrash` from here.
    """

    def __init__(
        self,
        store: JobStore,
        capacity: ServeCapacity = ServeCapacity(),
        seed: int = 0,
        machine: str = "summit",
        pricer: Optional[AdmissionPricer] = None,
        runner: Optional[Callable[[JobRecord, JobStore], dict]] = None,
        on_job_start: Optional[Callable[[JobRecord], None]] = None,
    ):
        self.store = store
        self.capacity = capacity
        self.seed = int(seed)
        self.pricer = pricer if pricer is not None else AdmissionPricer(machine)
        self._owns_pricer = pricer is None
        if runner is None:
            from repro.serve.runner import make_store_runner

            runner = make_store_runner()
        self.runner = runner
        self.on_job_start = on_job_start

    def close(self) -> None:
        if self._owns_pricer:
            self.pricer.close()

    def __enter__(self) -> "FairShareScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- planning (pure virtual time) ---------------------------------------

    def plan(self, records: Optional[list[JobRecord]] = None) -> PlacementTrace:
        """The DES pass: price, tag, pack.  Mutates nothing.

        ``records`` defaults to the store's PENDING queue in seq order.
        """
        if records is None:
            records = self.store.pending()
        records = sorted(records, key=lambda r: r.seq)
        trace = PlacementTrace(seed=self.seed, capacity=self.capacity.to_dict())
        rng = random.Random(self.seed)
        tenant_tag: dict[str, float] = {}
        runnable: list[JobRecord] = []
        for rec in records:
            quote = self.pricer.quote(rec.spec)
            # Tie-breaks are drawn for every job in seq order so the
            # stream is a function of (job set, seed) alone.
            tiebreak = rng.random()
            entry = {
                "seq": rec.seq,
                "tenant": rec.spec.tenant,
                "weight": rec.spec.weight,
                "tiebreak": tiebreak,
                "device_bytes": float(quote.device_bytes),
                "virtual_seconds": float(quote.virtual_seconds),
                "admitted": False,
                "finish_tag": 0.0,
            }
            if not quote.feasible:
                entry["reason"] = quote.reason
                trace.jobs[rec.id] = entry
                trace.events.append(
                    {"event": "reject", "job": rec.id, "vtime": 0.0,
                     "reason": quote.reason}
                )
                continue
            if quote.device_bytes > self.capacity.device_bytes:
                reason = (
                    f"quoted device demand {quote.device_bytes:.0f} B "
                    f"exceeds service capacity "
                    f"{self.capacity.device_bytes:.0f} B"
                )
                entry["reason"] = reason
                trace.jobs[rec.id] = entry
                trace.events.append(
                    {"event": "reject", "job": rec.id, "vtime": 0.0,
                     "reason": reason}
                )
                continue
            # Start-time fair queuing: one virtual queue per tenant; a
            # tenant's next job queues behind its previous one, scaled by
            # the job's weight.  All tags are assigned at plan time
            # (batch semantics), so the tag set is deterministic.
            tenant = rec.spec.tenant
            start = tenant_tag.get(tenant, 0.0)
            tag = start + quote.virtual_seconds / rec.spec.weight
            tenant_tag[tenant] = tag
            entry["admitted"] = True
            entry["finish_tag"] = tag
            trace.jobs[rec.id] = entry
            runnable.append(rec)

        # Pack: lowest (tag, tiebreak, seq) first among jobs that fit the
        # free budget; when nothing fits, retire the earliest virtual
        # finisher and retry.  This is the Fig. 4 window discipline lifted
        # one level: jobs instead of pencils, bytes instead of ring slots.
        def key(rec: JobRecord):
            j = trace.jobs[rec.id]
            return (j["finish_tag"], j["tiebreak"], j["seq"])

        waiting = sorted(runnable, key=key)
        free = self.capacity.device_bytes
        vnow = 0.0
        running: list[tuple[float, float, int, str]] = []  # (vend, tb, seq, id)
        while waiting or running:
            admitted_one = False
            if len(running) < self.capacity.max_jobs:
                for rec in waiting:
                    j = trace.jobs[rec.id]
                    if j["device_bytes"] <= free:
                        free -= j["device_bytes"]
                        vend = vnow + j["virtual_seconds"]
                        heapq.heappush(
                            running, (vend, j["tiebreak"], j["seq"], rec.id)
                        )
                        trace.events.append(
                            {"event": "admit", "job": rec.id, "vtime": vnow,
                             "free_bytes_after": free,
                             "running_after": len(running)}
                        )
                        waiting.remove(rec)
                        admitted_one = True
                        break
            if admitted_one:
                continue
            if not running:  # pragma: no cover - every runnable job fits alone
                raise AssertionError(
                    "planner wedged: waiting jobs but nothing running"
                )
            vend, _tb, _seq, jid = heapq.heappop(running)
            vnow = max(vnow, vend)
            free += trace.jobs[jid]["device_bytes"]
            trace.events.append(
                {"event": "finish", "job": jid, "vtime": vnow,
                 "free_bytes_after": free, "running_after": len(running)}
            )
        return trace

    # -- execution (real time, trace-ordered) --------------------------------

    def run(self, execute: bool = True) -> ScheduleResult:
        """Plan the current queue, persist the trace, optionally execute."""
        records = {r.id: r for r in self.store.pending()}
        trace = self.plan(list(records.values()))
        trace_path = self._write_trace(trace)
        result = ScheduleResult(trace=trace, trace_path=str(trace_path))

        for ev in trace.events:
            if ev["event"] == "reject":
                rec = records[ev["job"]]
                rec.quote = {"feasible": False, "reason": ev["reason"]}
                self.store.save(rec)
                self.store.transition(rec, JobState.EVICTED,
                                      error=f"INFEASIBLE: {ev['reason']}")
                result.rejected.append(rec.id)

        if not execute:
            # Plan-only still reports what the DES would admit, so
            # ``run-scheduler --plan-only`` renders a meaningful summary.
            result.admitted = trace.admitted_ids()
            return result

        admits = [ev for ev in trace.events if ev["event"] == "admit"]
        live: dict[int, _Child] = {}  # by the read end of its pipe
        try:
            while admits or live:
                # The next admission fires once a slot and its bytes are
                # free; every admitted job fits alone, so this progresses.
                jid = admits[0]["job"] if admits else None
                if jid is not None and len(live) < self.capacity.max_jobs and (
                        trace.jobs[jid]["device_bytes"]
                        <= self.capacity.device_bytes
                        - sum(c.device_bytes for c in live.values())):
                    child = self._dispatch(records[jid], admits.pop(0),
                                           trace.jobs[jid])
                    live[child.fd] = child
                    result.admitted.append(jid)
                    continue
                for fd in wait(list(live)):
                    chunk = os.read(fd, 1 << 16)
                    if chunk:
                        live[fd].out += chunk
                    else:
                        self._reap(live.pop(fd))
        finally:  # a crash: no orphan may write on into a reused run dir
            for child in live.values():
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
                os.close(child.fd)
        for jid in result.admitted:
            state = self.store.get(jid).state
            if state == JobState.DONE:
                result.done.append(jid)
            elif state == JobState.FAILED:
                result.failed.append(jid)
        return result

    def _dispatch(self, rec: JobRecord, ev: dict, j: dict) -> "_Child":
        """Admit and start ``rec``: the hook runs here, then its process."""
        rec.quote = {"feasible": True, "device_bytes": j["device_bytes"],
                     "virtual_seconds": j["virtual_seconds"]}
        rec.placement = {"vstart": ev["vtime"], "finish_tag": j["finish_tag"],
                         "schedule_seed": self.seed}
        self.store.transition(rec, JobState.ADMITTED)
        self.store.transition(rec, JobState.RUNNING)
        if self.on_job_start is not None:
            self.on_job_start(rec)  # may raise SchedulerCrash
        read, write = os.pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:  # the job: never returns
            os.close(read)
            code = 1
            try:
                if sys.platform == "linux":  # die with the scheduler: no
                    # orphan writes on into a run dir the reconciler reuses
                    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # DEATHSIG
                    if os.getppid() != parent:  # it died before that call
                        os._exit(1)
                try:
                    msg = pickle.dumps(
                        (self.runner(rec, self.store), rec.run_dir, None))
                except BaseException as exc:
                    msg = pickle.dumps(
                        (None, None, f"{type(exc).__name__}: {exc}"))
                with open(write, "wb") as out:
                    out.write(msg)
                code = 0
            finally:  # no inherited finaliser or atexit handler runs
                os._exit(code)
        os.close(write)
        return _Child(rec, pid, read, j["device_bytes"])

    def _reap(self, child: "_Child") -> None:
        """Record how ``child``'s job ended, with its peak RSS."""
        _, status, usage = os.wait4(child.pid, 0)
        os.close(child.fd)
        code = os.waitstatus_to_exitcode(status)
        if code == 0 and child.out:
            summary, run_dir, error = pickle.loads(child.out)
        else:  # died before it sent a result
            summary = run_dir = None
            error = (f"job process killed by {signal.Signals(-code).name}"
                     if code < 0 else f"job process exited with code {code}")
        rec = child.rec
        rec.placement = {**rec.placement, **(summary or {}),
                         "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if error is not None:
            self.store.transition(rec, JobState.FAILED, error=error)
        else:
            rec.run_dir = run_dir
            self.store.transition(rec, JobState.DONE)

    def _write_trace(self, trace: PlacementTrace) -> Path:
        self.store.traces_dir.mkdir(parents=True, exist_ok=True)
        index = len(list(self.store.traces_dir.glob("placement-*.json")))
        path = self.store.traces_dir / f"placement-{index:04d}.json"
        path.write_text(trace.to_json() + "\n", encoding="utf-8")
        return path
