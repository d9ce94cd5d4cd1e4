"""Turn a job spec into a run, and leave a service job's artifacts behind.

:func:`open_solver` is the *only* place a
:class:`~repro.serve.spec.JobSpec` becomes a solver, and
:meth:`OpenSolver.run` the only step loop: ``repro dns``, the scheduler
(through :func:`run_job` / :func:`make_store_runner`) and the
bit-exactness oracles (``run_job(spec, registry_root=None)``) all go
through them.  Because every door is literally the same function with the
same seeds, "service energies == standalone energies == ``dns`` energies"
is an identity, not a tolerance.

Every job gets its own run-registry entry (under the store's
``runs/<job_id>/`` by default — reusing the PR 7 registry, so ``repro obs
report --runs-dir .repro/serve/runs`` works unchanged) holding:

* ``manifest.json`` — RunManifest with the spec as config;
* ``events.jsonl`` — the job's EventLog stream (start/step/finish);
* ``trace.json`` — chrome-trace of the job's spans;
* ``metrics.jsonl`` — metrics snapshot;
* ``energies.json`` — the per-step energy/dissipation series the
  bit-exactness tests compare (JSON floats round-trip exactly).

Restarted jobs reuse the same run id, hence the same directory — the
crash-recovery guarantee that a reconciled job never forks a duplicate
run directory.
"""

from __future__ import annotations

import json
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

from repro.serve.spec import JobSpec
from repro.serve.store import JobRecord, JobStore

__all__ = ["JobResult", "OpenSolver", "make_store_runner", "open_solver",
           "run_job"]

ENERGIES_NAME = "energies.json"


@dataclass
class JobResult:
    """The per-step series and summary of one executed job."""

    times: list[float] = field(default_factory=list)
    energies: list[float] = field(default_factory=list)
    dissipations: list[float] = field(default_factory=list)
    steps: int = 0
    run_dir: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": "job-energies",
            "steps": self.steps,
            "times": self.times,
            "energies": self.energies,
            "dissipations": self.dissipations,
        }

    @classmethod
    def from_json(cls, text: str) -> "JobResult":
        doc = json.loads(text)
        return cls(times=doc["times"], energies=doc["energies"],
                   dissipations=doc["dissipations"], steps=doc["steps"])


@dataclass
class OpenSolver:
    """What :func:`open_solver` yields: the live solver and what it rides on.

    ``comm`` is ``None`` for a serial run; ``monitor`` and ``fault_plan``
    are set only for a fuzzed job (``fault_plan`` only when the profile
    injects comm faults).
    """

    spec: JobSpec
    grid: object
    solver: object
    dt: float
    comm: object = None
    monitor: object = None
    fault_plan: object = None

    def run(
        self,
        on_step: Optional[Callable[[int, object], None]] = None,
        next_dt: Optional[Callable[[], float]] = None,
    ) -> JobResult:
        """Advance ``spec.steps`` steps; the one step loop every door uses.

        ``on_step(step, step_result)`` is called after each step;
        ``next_dt`` replaces the fixed ``dt`` with a per-step choice.
        """
        result = JobResult(steps=self.spec.steps)
        for step in range(1, self.spec.steps + 1):
            step_result = self.solver.step(
                self.dt if next_dt is None else next_dt())
            result.times.append(step_result.time)
            result.energies.append(step_result.energy)
            result.dissipations.append(step_result.dissipation)
            if on_step is not None:
                on_step(step, step_result)
        return result


@contextmanager
def open_solver(spec: JobSpec, obs=None, device_bytes: Optional[float] = None,
                forcing=None):
    """Turn a validated spec into a live solver; the only place that does.

    Owns everything between parameters and a steppable solver — grid,
    initial condition, :class:`SolverConfig`, then (:func:`_open`)
    communicator, fuzz profile with its :class:`InvariantMonitor` and
    :class:`CommFaultPlan`, uneven heights / skew / DLB — and releases it
    in order (solver, then comm) on exit.  ``device_bytes`` caps the
    out-of-core arena at an admission quote; ``forcing`` is a
    serial-solver forcing object (not nameable in a spec, so passed in).
    """
    import numpy as np

    from repro.spectral import (
        SolverConfig,
        SpectralGrid,
        random_isotropic_field,
        taylor_green_field,
    )

    grid = SpectralGrid(spec.n)
    if spec.ic == "taylor-green":
        u0 = taylor_green_field(grid)
    else:
        u0 = random_isotropic_field(
            grid, np.random.default_rng(spec.ic_seed), energy=1.0)
    config = SolverConfig(
        nu=spec.nu,
        scheme=spec.scheme,
        fft_backend=spec.fft_backend,
        diagnostics_every=spec.diagnostics_every,
    )
    with _open(spec, grid, u0, config, obs, device_bytes,
               forcing=forcing) as opened:
        yield opened


@contextmanager
def _open(spec: JobSpec, grid, u0, config, obs=None,
          device_bytes: Optional[float] = None, forcing=None):
    """What :func:`open_solver` builds after the :class:`SolverConfig`: the
    comm, the fuzz profile with its monitor and fault plan, and the solver.
    :mod:`repro.verify.invariance` opens its drawn pairs here too, with a
    config a spec cannot name (phase shift off).  A fuzzed run that
    returns must end quiescent once its solver has closed: no live lease
    (the engine's ring goes back at close) and no live operation."""
    opened = OpenSolver(spec, grid, None,
                        spec.dt if spec.dt is not None else 0.25 * grid.dx)
    if spec.ranks is None:
        from repro.spectral import NavierStokesSolver

        opened.solver = NavierStokesSolver(grid, u0, config, forcing=forcing,
                                           obs=obs)
        yield opened
        return

    from repro.dist import DistributedNavierStokesSolver
    from repro.mpi.procs import make_comm

    fuzz = None
    if spec.fuzz_seed is not None:
        from repro.verify import CommFaultPlan, InvariantMonitor, fuzz_profile

        fuzz = fuzz_profile(spec.fuzz_profile, spec.fuzz_seed)
        opened.monitor = InvariantMonitor()
        if fuzz.comm_drop_rate > 0.0 or fuzz.comm_late_rate > 0.0:
            opened.fault_plan = CommFaultPlan(
                seed=fuzz.seed, drop_rate=fuzz.comm_drop_rate,
                late_rate=fuzz.comm_late_rate)
    with ExitStack() as stack:
        comm = opened.comm = make_comm(spec.comm, spec.ranks,
                                       fft_backend=spec.fft_backend)
        stack.callback(getattr(comm, "close", lambda: None))
        if opened.fault_plan is not None:
            comm.fault_injector = opened.fault_plan
        opened.solver = DistributedNavierStokesSolver(
            grid, comm, u0, config=config, obs=obs,
            npencils=spec.npencils, pipeline=spec.pipeline,
            inflight=spec.inflight, copy_strategy=spec.copy_strategy,
            heights=spec.heights, skew=spec.skew, dlb=spec.dlb,
            fuzz=fuzz, monitor=opened.monitor,
            device_bytes=device_bytes,
        )
        stack.callback(opened.solver.close)
        yield opened
    if opened.monitor is not None:
        opened.monitor.assert_quiescent()


def run_job(
    spec: JobSpec,
    registry_root: Optional[Union[str, Path]] = None,
    run_id: Optional[str] = None,
    device_bytes: Optional[float] = None,
    obs_artifacts: bool = True,
) -> JobResult:
    """Run one job to completion; returns the per-step series.

    ``registry_root=None`` skips the registry entirely (pure in-memory
    standalone run — what the oracle side of the bit-exactness tests
    uses).  ``device_bytes`` caps the out-of-core engine's arena at the
    admission quote, making the scheduler's byte ledger an enforced
    contract.
    """
    spec.validate()
    if registry_root is None:
        with open_solver(spec, device_bytes=device_bytes) as opened:
            return opened.run()

    from repro.obs import EventLog, FlightRecorder, Observability
    from repro.obs.runs import RunRegistry

    registry = RunRegistry(registry_root)
    run = registry.start(
        kind="serve-job", config=spec.to_dict(),
        run_id=run_id or f"serve-{spec.name}",
        argv=[],
    )
    events = EventLog(run_id=run.run_id, sink=run.events_path)
    flight = FlightRecorder(run_id=run.run_id, artifact_dir=run.dir)
    obs = Observability.create(events=events, flight=flight)
    try:
        events.info("job.start", n=spec.n, steps=spec.steps,
                    scheme=spec.scheme, tenant=spec.tenant)
        with open_solver(spec, obs, device_bytes) as opened:
            result = opened.run(lambda step, r: events.debug(
                "job.step", step=step, t=r.time, energy=r.energy))
        events.info("job.finish", steps=result.steps,
                    final_energy=result.energies[-1] if result.energies
                    else None)
    except BaseException as exc:
        run.add_artifact("flight_dump",
                         flight.dump(reason=f"job-{type(exc).__name__}"))
        run.finish(status="error", error=f"{type(exc).__name__}: {exc}")
        events.close()
        raise
    result.run_dir = str(run.dir)
    if obs_artifacts:
        from repro.core.trace_export import write_chrome_trace
        from repro.obs import write_jsonl

        energies_path = run.dir / ENERGIES_NAME
        energies_path.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        run.add_artifact("energies", energies_path)
        trace_path = write_chrome_trace(
            obs.spans.to_tracer(), run.dir / "trace.json",
            metadata={"job": spec.name, "n": spec.n},
        )
        run.add_artifact("chrome_trace", trace_path)
        metrics_path = run.dir / "metrics.jsonl"
        write_jsonl(obs.metrics.snapshot(), metrics_path)
        run.add_artifact("metrics", metrics_path)
    run.finish(status="ok")
    events.close()
    return result


def make_store_runner() -> Callable[[JobRecord, JobStore], dict]:
    """The scheduler's default runner: execute + persist artifacts.

    Returns a summary dict merged into the job record's ``placement``:
    the run directory and the final energy (a cheap sanity handle for
    ``serve status``).
    """

    def _runner(record: JobRecord, store: JobStore) -> dict:
        quote = record.quote or {}
        result = run_job(
            record.spec,
            registry_root=store.runs_dir,
            run_id=record.id,
            device_bytes=quote.get("device_bytes"),
        )
        record.run_dir = result.run_dir
        return {
            "run_dir": result.run_dir,
            "final_energy": result.energies[-1] if result.energies else None,
            "steps_run": result.steps,
        }

    return _runner
