"""Command-line interface: ``python -m repro <command>``.

Subcommands expose the reproduction's main entry points:

===============  ==========================================================
``plan``         memory planning for a problem size (Table 1 / Sec. 3.5)
``autotune``     rank the MPI configurations for one operating point
``step``         simulate one DNS step of a chosen configuration
``dns``          run the *real* solver at laptop scale, printing statistics
``table1-4``     regenerate a paper table with paper-vs-model errors
``fig7-10``      regenerate a paper figure
``projection``   the exascale what-if study
``verify``       fuzz + schedule-exploration verification of the pipeline
``tune``         probe the strided-copy engines on real pencil layouts
``serve``        multi-tenant job service: queue, schedule, and run jobs
``obs``          run registry, live event tail, and the perf-regression gate
===============  ==========================================================

Every ``dns`` / ``verify`` / ``tune`` invocation registers itself under
``.repro/runs/<run_id>/`` (override with ``$REPRO_RUNS_DIR``): a manifest
with git sha / config / seeds / artifact paths, the run's event stream, and
any flight-recorder post-mortems.  ``repro obs report`` lists them,
``repro obs tail`` follows the latest, and ``repro obs diff`` compares two
metrics / bench artifacts with a regression threshold (non-zero exit on
regression — the CI gate).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def _pencils_per_alltoall(value: str):
    """``plan --q``: ``slab`` (case C) or a pencil count of at least 1."""
    if value == "slab":
        return value
    try:
        q = int(value)
    except ValueError:
        q = 0
    if q < 1:
        raise argparse.ArgumentTypeError(
            f"{value!r} is neither 'slab' nor an integer >= 1")
    return q


def _positive_int(value: str) -> int:
    """``plan --tasks-per-node``: an integer of at least 1."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer >= 1")
    return n


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.serve.spec import DNS_DEFAULTS, RUN_FIELDS, add_spec_flags

    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'19 asynchronous GPU pseudo-spectral DNS reproduction",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "plan",
        help="memory planning and capacity quotes (Table 1 / Sec. 3.5)",
    )
    p.add_argument("n", type=int, nargs="?", default=None,
                   help="linear problem size N")
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--machine", default="summit",
                   choices=("summit", "titan", "sierra", "exascale"))
    p.add_argument("--tasks-per-node", type=_positive_int, default=6)
    p.add_argument("--q", type=_pencils_per_alltoall, default=1,
                   help="pencils per all-to-all, or 'slab' (case C)")
    p.add_argument("--copy-strategy", default="memcpy2d",
                   choices=("per_chunk", "memcpy2d", "zero_copy", "auto"))
    p.add_argument("--quote", action="store_true",
                   help="price the configuration (registered run)")
    p.add_argument("--sweep", action="store_true",
                   help="sweep grids x copy strategies; write a bench JSON")
    p.add_argument("--grids", type=int, nargs="*", default=None,
                   help="sweep grid sizes (default: the Table 1 ladder)")
    p.add_argument("--strategies", nargs="*", default=None,
                   help="sweep copy strategies (default: memcpy2d)")
    p.add_argument("--out", default="BENCH_capacity.json",
                   help="sweep output path")

    p = sub.add_parser("autotune", help="rank MPI configurations")
    p.add_argument("n", type=int)
    p.add_argument("nodes", type=int)

    p = sub.add_parser("step", help="simulate one DNS step")
    p.add_argument("n", type=int)
    p.add_argument("nodes", type=int)
    p.add_argument("--tasks-per-node", type=int, default=2)
    p.add_argument("--q", type=int, default=None,
                   help="pencils per all-to-all (default: whole slab)")
    p.add_argument("--algorithm", default="async_gpu",
                   choices=["async_gpu", "sync_gpu", "cpu_baseline", "mpi_only"])
    p.add_argument("--scheme", default="rk2", choices=["rk2", "rk4"])
    p.add_argument("--timeline", action="store_true",
                   help="print the activity timeline")
    p.add_argument("--chrome-trace", metavar="PATH", default=None,
                   help="write a chrome://tracing JSON file")

    p = sub.add_parser("dns", help="run the real solver at laptop scale")
    add_spec_flags(p, DNS_DEFAULTS, RUN_FIELDS)
    p.add_argument("--forced", action="store_true",
                   help="serial only: band forcing (k_f=2.5, eps_inj=1)")
    p.add_argument("--trace-out", metavar="PATH", default=None,
                   help="write a chrome://tracing JSON of the run's spans")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write per-step + end-of-run metrics as JSONL")
    p.add_argument("--report", action="store_true",
                   help="print an end-of-run per-phase wall-clock breakdown")

    p = sub.add_parser(
        "tune",
        help="probe the strided-copy engines on this run's pencil layouts",
    )
    add_spec_flags(p, {"n": 32, "ranks": 2, "npencils": 4},
                   ("n", "ranks", "npencils", "pipeline", "inflight"))
    p.add_argument("--no-model", dest="model", action="store_false",
                   help="skip the Fig. 7 analytic ranking of the same "
                        "layouts (the deterministic sim-backend choice)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the probe records as JSON")

    p = sub.add_parser(
        "verify",
        help="fuzz + schedule-exploration verification of the async pipeline",
    )
    # The whole matrix shares one engine shape; every case must stay
    # bit-identical whatever the copy strategy, heights or DLB lanes.
    add_spec_flags(p, {"n": 16, "ranks": 2, "npencils": 4, "steps": 1},
                   ("n", "steps", "ranks", "npencils", "inflight",
                    "copy_strategy", "heights", "dlb"))
    # The physics no flag names: a random field, one fixed RK2 step size.
    p.set_defaults(dt=1e-3, ic="random")
    p.add_argument("--seeds", default=None, metavar="S1,S2,...",
                   help="comma-separated fuzz seeds (default 101,202,303)")
    p.add_argument("--seed-base", type=int, default=None, metavar="B",
                   help="use seeds B,B+1,B+2 (e.g. a CI date stamp); "
                        "overridden by --seeds")
    p.add_argument("--profiles", default=None, metavar="P1,P2,...",
                   help="comma-separated profile names "
                        "(default calm,jittery,stormy,flaky-net,chaos)")
    p.add_argument("--orders", type=int, default=8,
                   help="schedule-explorer replay orders to sample")
    p.add_argument("--watchdog", type=float, default=30.0,
                   help="per-case deadlock watchdog in seconds")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="write per-case fault/verify metrics as JSONL")
    p.add_argument("--scheduler", action="store_true",
                   help="instead of the pipeline fuzz matrix: conformance-"
                        "fuzz the serve scheduler (determinism, capacity, "
                        "fairness) over seeded random workloads")
    p.add_argument("--workloads", type=int, default=12,
                   help="with --scheduler: number of seeded workloads "
                        "(default 12; --seeds/--seed-base override)")

    p = sub.add_parser(
        "serve",
        help="multi-tenant DNS job service: queue, schedule, and run jobs",
    )
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    def _serve_common(q):
        q.add_argument("--root", default=None, metavar="DIR",
                       help="service state directory (default .repro/serve "
                            "or $REPRO_SERVE_DIR)")

    q = serve_sub.add_parser("submit", help="queue a job from a spec")
    _serve_common(q)
    q.add_argument("--spec", metavar="FILE", default=None,
                   help="JobSpec JSON file ('-' for stdin); the inline "
                        "flags below are ignored when given")
    add_spec_flags(q, {"name": None})  # no default: required without --spec
    q.add_argument("--quote", action="store_true",
                   help="print the admission quote after submitting")

    q = serve_sub.add_parser("status", help="one job's record")
    _serve_common(q)
    q.add_argument("job_id")

    q = serve_sub.add_parser("list", help="every job, oldest first")
    _serve_common(q)
    q.add_argument("--state", default=None,
                   help="only jobs in this state (PENDING|RUNNING|...)")

    q = serve_sub.add_parser("cancel", help="evict a queued/admitted job")
    _serve_common(q)
    q.add_argument("job_id")

    q = serve_sub.add_parser(
        "run-scheduler",
        help="reconcile, then pack and execute the queue deterministically",
    )
    _serve_common(q)
    q.add_argument("--seed", type=int, default=0,
                   help="scheduler tiebreak seed (default 0); same "
                        "(job set, seed, capacity) => same placement trace")
    q.add_argument("--device-bytes", type=float, default=None,
                   help="shared device arena capacity in bytes "
                        "(default 2 GiB)")
    q.add_argument("--max-jobs", type=int, default=4,
                   help="max concurrently running jobs (default 4)")
    q.add_argument("--plan-only", action="store_true",
                   help="write the placement trace without executing")

    q = serve_sub.add_parser("api", help="serve the HTTP JSON API")
    _serve_common(q)
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, default=8642)
    q.add_argument("--device-bytes", type=float, default=None)
    q.add_argument("--max-jobs", type=int, default=4)

    p = sub.add_parser(
        "obs",
        help="observability: saved-run registry, event tail, perf diff",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)

    q = obs_sub.add_parser(
        "report", help="list saved runs and their outcomes"
    )
    q.add_argument("--runs-dir", default=None, metavar="DIR",
                   help="registry root (default .repro/runs or "
                        "$REPRO_RUNS_DIR)")
    q.add_argument("--kind", default=None,
                   help="only runs of this kind (dns|verify|tune|...)")
    q.add_argument("--last", type=int, default=10,
                   help="show the most recent K runs (default 10)")

    q = obs_sub.add_parser(
        "tail", help="print (or follow) a run's recent events"
    )
    q.add_argument("run_id", nargs="?", default=None,
                   help="run to tail (default: the latest)")
    q.add_argument("--runs-dir", default=None, metavar="DIR")
    q.add_argument("--kind", default=None,
                   help="with no run_id: latest run of this kind")
    q.add_argument("--lines", type=int, default=20,
                   help="events to print (default 20)")
    q.add_argument("--follow", action="store_true",
                   help="keep streaming until the run finishes")

    q = obs_sub.add_parser(
        "diff",
        help="thresholded perf comparison; exits non-zero on regression",
    )
    q.add_argument("baseline", help="baseline artifact "
                                    "(BENCH_*.json or metrics JSONL)")
    q.add_argument("current", help="current artifact to gate")
    q.add_argument("--tolerance", type=float, default=0.10,
                   help="relative tolerance before a directed measure "
                        "gates (default 0.10)")
    q.add_argument("--only", action="append", default=None, metavar="SUBSTR",
                   help="restrict to measure keys containing SUBSTR "
                        "(repeatable)")
    q.add_argument("--verbose", action="store_true",
                   help="show unchanged and informational measures too")

    for name in ("table1", "table2", "table3", "table4"):
        sub.add_parser(name, help=f"regenerate paper {name}")
    for name in ("fig7", "fig8", "fig9", "fig10"):
        sub.add_parser(name, help=f"regenerate paper {name}")

    p = sub.add_parser("projection", help="exascale what-if study")
    p.add_argument("--n", type=int, default=18432)

    p = sub.add_parser("validation", help="physics validation checklist")
    p.add_argument("--n", type=int, default=24)

    p = sub.add_parser("density", help="Titan-vs-Summit node-density study")
    p.add_argument("--n", type=int, default=12288)

    p = sub.add_parser(
        "resolution", help="physics targets -> grid sizes -> machine cost"
    )
    return parser


def _infeasible(exc: ValueError) -> int:
    """An ``(N, nodes)`` the planner or ``RunConfig`` refuses: its reason on
    stderr, exit 2 — what ``dns`` does for a spec that fails validation."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_plan(args) -> int:
    import json

    from repro.obs.runs import write_bench_json
    from repro.plan import CapacityPlanner, bench_payload

    planner = CapacityPlanner(args.machine)
    try:
        if args.sweep:
            try:
                quotes = planner.sweep(
                    grids=args.grids or (3072, 6144, 12288, 18432),
                    node_counts=(args.nodes,) if args.nodes else None,
                    copy_strategies=tuple(args.strategies or ("memcpy2d",)),
                    tasks_per_node=args.tasks_per_node,
                    q=args.q,
                )
            except ValueError as exc:
                return _infeasible(exc)
            write_bench_json(bench_payload(quotes, machine=args.machine),
                             args.out)
            for q in quotes:
                print(f"  N={q.n:6d} @ {q.nodes:5d} nodes "
                      f"[{q.copy_strategy:>9}]: {q.seconds_per_step:8.2f} s/step")
            print(f"{len(quotes)} quotes written to {args.out}")
            return 0

        if args.quote:
            if args.n is None:
                print("error: --quote needs a problem size N", file=sys.stderr)
                return 2
            config = {"machine": args.machine, "n": args.n,
                      "nodes": args.nodes, "tasks_per_node": args.tasks_per_node,
                      "q": args.q, "copy_strategy": args.copy_strategy}
            with _registered_run("plan", config) as run, \
                    _flight_recording(run) as (events, _flight):
                events.info("plan.quote.start", machine=args.machine,
                            n=args.n, nodes=args.nodes)
                quote = planner.quote(
                    args.n, args.nodes, tasks_per_node=args.tasks_per_node,
                    q=args.q,
                    copy_strategy=args.copy_strategy,
                )
                quote_path = run.dir / "quote.json"
                with open(quote_path, "w") as fh:
                    json.dump(quote.to_record(), fh, indent=2, sort_keys=True)
                run.add_artifact("quote", quote_path)
                events.info("plan.quote.finish", feasible=quote.feasible,
                            seconds_per_step=quote.seconds_per_step)
                print(quote.report())
                print(f"run {run.run_id}: quote saved to {quote_path}")
            return 0 if quote.feasible else 1

        if args.n is None:
            print("error: give a problem size N (or --sweep)",
                  file=sys.stderr)
            return 2
        mem = planner.planner
        try:
            print(f"minimum nodes (D=25): {mem.min_nodes(args.n)}")
            valid = mem.valid_node_counts(args.n)
            print(f"valid node counts   : {valid}")
            nodes = args.nodes if args.nodes is not None else (valid[-1] if valid else None)
            if nodes is None:
                print("problem does not fit on this machine")
                return 1
            row = mem.plan(args.n, nodes)
        except ValueError as exc:
            return _infeasible(exc)
        print(f"plan for {nodes} nodes: mem/node {row.memory_per_node_gib:.1f} GiB, "
              f"np={row.npencils}, pencil {row.pencil_gib:.2f} GiB")
        return 0
    finally:
        planner.close()


def _cmd_autotune(args) -> int:
    from repro.core.autotuner import autotune
    from repro.machine.summit import summit

    try:
        result = autotune(summit(), args.n, args.nodes)
    except ValueError as exc:
        return _infeasible(exc)
    print(result.report())
    return 0


def _cmd_step(args) -> int:
    from repro.core.config import Algorithm, RunConfig
    from repro.core.executor import simulate_step
    from repro.core.planner import MemoryPlanner
    from repro.core.timeline import render_timeline
    from repro.machine.summit import summit

    machine = summit()
    try:
        np_ = MemoryPlanner(machine).plan(args.n, args.nodes).npencils
        while args.n % np_ != 0:
            np_ += 1
        q = args.q if args.q is not None else np_
        cfg = RunConfig(
            n=args.n,
            nodes=args.nodes,
            tasks_per_node=args.tasks_per_node,
            npencils=np_,
            q_pencils_per_a2a=q,
            algorithm=Algorithm(args.algorithm),
            scheme=args.scheme,
        )
    except ValueError as exc:
        return _infeasible(exc)
    timing = simulate_step(cfg, machine)
    print(f"{cfg.label()}: {timing.step_time:.2f} s/step")
    for cat, t in sorted(timing.breakdown.items()):
        print(f"  {cat:>6}: {t:8.2f} s busy")
    if args.timeline:
        print(render_timeline(timing.tracer, width=100))
    if args.chrome_trace:
        from repro.core.trace_export import write_chrome_trace

        path = write_chrome_trace(timing.tracer, args.chrome_trace)
        print(f"chrome trace written to {path}")
    return 0


from contextlib import contextmanager


@contextmanager
def _registered_run(kind: str, config: dict, seeds=()):
    """Register one CLI invocation in the run registry.

    Yields a :class:`~repro.obs.runs.RunHandle`; the manifest is finalized
    ``ok`` on clean exit or ``error`` (with the exception recorded) when the
    body raises — a crashed run still says what it was.
    """
    from repro.obs.runs import RunRegistry

    run = RunRegistry().start(kind, config=config, seeds=seeds,
                              argv=sys.argv[1:])
    try:
        yield run
    except BaseException as exc:
        run.finish(status="error", error=f"{type(exc).__name__}: {exc}")
        raise
    else:
        # A body that already judged itself (e.g. verify setting "fail")
        # keeps its verdict; only still-"running" runs finalize to ok.
        status = "ok" if run.manifest.status == "running" else run.manifest.status
        run.finish(status=status)


@contextmanager
def _flight_recording(run, events_level: str = "info"):
    """Flight recorder + event log for one run, installed process-globally.

    Yields ``(events, flight)``.  On an exception the recorder dumps a
    post-mortem into the run directory before re-raising (failure paths
    that *hang* instead — watchdog expiry, worker stalls — dump through
    :func:`repro.obs.flight.dump_current_flight` themselves).
    """
    from repro.obs import EventLog, FlightRecorder
    from repro.obs.flight import (
        current_flight,
        install_excepthook,
        install_flight,
        uninstall_flight,
    )

    events = EventLog(run_id=run.run_id, sink=run.events_path,
                      level=events_level)
    flight = FlightRecorder(run_id=run.run_id, artifact_dir=run.dir)
    flight.watch_events(events)
    previous = current_flight()
    install_flight(flight)
    install_excepthook()
    try:
        yield events, flight
    except BaseException as exc:
        path = flight.dump(reason=f"error-{type(exc).__name__}")
        run.add_artifact("flight_dump", path)
        raise
    finally:
        events.close()
        if previous is not None:
            install_flight(previous)
        else:
            uninstall_flight()


def _report_bad_heights(exc: Exception, n: int, ranks: int) -> int:
    """Reasoned quote for an infeasible slab partition (clean exit 2).

    Mirrors the CapacityPlanner's INFEASIBLE quote shape — configuration
    header, reason, feasible alternative — instead of surfacing a raw
    assertion: the user learns *why* the partition is rejected and what
    the planner would hand out for the same grid and rank count.
    """
    import numpy as np

    bounds = np.linspace(0, n, ranks + 1).astype(int)
    balanced = ",".join(str(int(b - a)) for a, b in zip(bounds[:-1], bounds[1:]))
    print(f"slab partition quote: N={n} over {ranks} rank(s)", file=sys.stderr)
    print(f"  INFEASIBLE: {exc}", file=sys.stderr)
    print(
        f"  feasible: --heights {balanced} (any non-negative per-rank "
        f"heights summing to {n}), or --skew X for a deterministic "
        f"uneven split",
        file=sys.stderr,
    )
    return 2


def _cmd_dns(args) -> int:
    """``repro dns``: one :class:`JobSpec` from the flags, run through
    :func:`repro.serve.runner.open_solver`, printed.

    What is ``dns``-only stays here: ``--forced``, the CFL-0.5 adaptive
    step of a serial run without ``--dt``, the report / trace / metrics
    outputs, and the reasoned INFEASIBLE quote for a bad slab partition.
    """
    from contextlib import ExitStack

    from repro import __version__
    from repro.obs import Observability
    from repro.serve.runner import open_solver
    from repro.serve.spec import in_flags, spec_from_args
    from repro.spectral import BandForcing, flow_statistics

    try:
        spec = spec_from_args(args)
    except ValueError as exc:  # --heights is not a list of integers
        return _report_bad_heights(exc, args.n, args.ranks or 1)
    ranks = spec.ranks
    if args.forced and ranks is not None:
        print("error: --forced is not supported with --ranks", file=sys.stderr)
        return 2
    try:
        spec.validate()
    except ValueError as exc:
        print(f"error: {in_flags(str(exc))}", file=sys.stderr)
        return 2

    forcing = BandForcing(k_force=2.5, eps_inj=1.0) if args.forced else None
    seeds = [spec.fuzz_seed] if spec.fuzz_seed is not None else []
    step_records: list[dict] = []
    with _registered_run("dns", {**spec.to_dict(), "forced": args.forced},
                         seeds=seeds) as run, \
            _flight_recording(run) as (events, flight), ExitStack() as stack:
        # The flight recorder is always on (bounded ring, near-zero
        # overhead); traces / metrics / reports stay opt-in outputs of the
        # same bundle.
        obs = Observability.create(events=events, flight=flight)
        try:
            opened = stack.enter_context(
                open_solver(spec, obs=obs, forcing=forcing))
        except ValueError as exc:
            if ranks is None:
                raise
            return _report_bad_heights(exc, spec.n, ranks)
        solver, comm = opened.solver, opened.comm

        if ranks is not None:
            fft = solver.fft
            engine = (
                f"out-of-core np={fft.npencils} pipeline={fft.pipeline} "
                f"inflight={fft.inflight} copy={fft.copy_strategy}"
                if hasattr(fft, "npencils") else "worker-fused whole-slab"
            )
            if spec.fuzz_seed is not None:
                engine += f" fuzz={spec.fuzz_profile}@{spec.fuzz_seed}"
            if solver.decomp.heights is not None:
                engine += (" heights="
                           + ",".join(map(str, solver.decomp.rank_heights)))
            if spec.dlb != "off":
                engine += f" dlb={spec.dlb}"
            print(f"distributed dns: P={ranks} ranks, comm={spec.comm}, "
                  f"{engine}")
            if spec.comm == "procs":
                print(f"worker pids: {comm.worker_pids} "
                      f"(cores available: {os.cpu_count()})")

        def on_step(step, result):
            events.debug("dns.step", step=step, t=result.time,
                         energy=result.energy)
            if obs.enabled:
                step_records.append({
                    "kind": "step", "step": step, "time": result.time,
                    "dt": result.dt, "energy": result.energy,
                    "dissipation": result.dissipation,
                    "wall_seconds":
                        obs.metrics.histogram("solver.step.seconds").last,
                })
            if step % max(1, spec.steps // 10) == 0:
                print(f"step {step:4d} t={result.time:.4f} "
                      f"E={result.energy:.5f} eps={result.dissipation:.5f}")

        events.info("dns.start", n=spec.n, steps=spec.steps, nu=spec.nu,
                    ranks=ranks, comm=spec.comm)
        adaptive = ranks is None and spec.dt is None
        opened.run(on_step, next_dt=(lambda: solver.stable_dt(cfl=0.5))
                   if adaptive else None)
        print(flow_statistics(
            solver.u_hat if ranks is None else solver.gather_state(),
            opened.grid, spec.nu))
        stack.close()  # solver, then comm: worker CPU totals land on close
        events.info("dns.finish", steps=spec.steps)

        if getattr(comm, "worker_cpu_seconds", None):
            print(f"worker cpu: {sum(comm.worker_cpu_seconds):.2f}s across "
                  f"{len(comm.worker_cpu_seconds)} rank processes")
        policy = getattr(getattr(solver, "fft", None), "_dlb_policy", None)
        if policy is not None:
            print(f"dlb: {policy.pencils_lent} pencil(s) lent, "
                  f"{policy.pencils_reclaimed} reclaimed "
                  f"(lane weights {list(policy.costs)})")
        if opened.monitor is not None:
            plan, monitor = opened.fault_plan, opened.monitor
            print(f"fuzz: {plan.injected if plan is not None else 0} comm "
                  f"fault(s), {monitor.checks} invariant check(s), "
                  f"{len(monitor.violations)} violation(s)")

        label = f"dns n={spec.n}" + (f" P={ranks}" if ranks else "")
        run_meta = {"repro_version": __version__, **spec.to_dict()}
        if args.report:
            from repro.obs import render_breakdown, render_percentiles

            print()
            print(render_breakdown(obs.spans, title=f"{label} phase breakdown"))
            print()
            print(render_percentiles(obs.metrics, title=f"{label} percentiles"))
        if args.trace_out:
            from repro.core.trace_export import write_chrome_trace

            path = write_chrome_trace(
                obs.spans.to_tracer(), args.trace_out, metadata=run_meta
            )
            run.add_artifact("chrome_trace", path)
            print(f"chrome trace written to {path}")
        if args.metrics_out:
            from repro.obs import write_jsonl

            write_jsonl([{"kind": "run", **run_meta}, *step_records,
                         *obs.metrics.snapshot()], args.metrics_out)
            run.add_artifact("metrics", args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_tune(args) -> int:
    from repro.serve.spec import in_flags, spec_from_args

    try:
        spec_from_args(args).validate()
    except ValueError as exc:
        print(f"error: {in_flags(str(exc))}", file=sys.stderr)
        return 2
    config = {"n": args.n, "ranks": args.ranks, "npencils": args.npencils,
              "pipeline": args.pipeline, "inflight": args.inflight,
              "model": args.model}
    with _registered_run("tune", config) as run:
        return _run_tune(args, run)


def _run_tune(args, run) -> int:
    """``repro tune``: probe every copy engine on the run's pencil layouts.

    Builds the out-of-core FFT with ``copy_strategy="auto"``, round-trips a
    random field (inverse then forward), runs one velocity substage on three
    such fields (the layouts a DNS step copies), and prints the autotuner's probe
    table: measured bandwidth per (layout, strategy) with the winner marked.
    With ``--model`` the Fig. 7 analytic ranking of the same layouts is
    appended (this is the choice the simulated-CUDA backend would make).
    """
    import numpy as np

    from repro.cuda.copyengine import ChunkLayout, CopyAutotuner
    from repro.dist.outofcore import OutOfCoreSlabFFT
    from repro.dist.virtual_mpi import VirtualComm
    from repro.spectral.grid import SpectralGrid
    from repro.spectral.pointwise import PRODUCT_PAIRS

    grid = SpectralGrid(args.n)
    P = args.ranks
    rng = np.random.default_rng(11)
    shape = None
    print(f"tune: n={args.n} P={P} np={args.npencils} "
          f"pipeline={args.pipeline}")
    with OutOfCoreSlabFFT(
        grid, VirtualComm(P), args.npencils,
        pipeline=args.pipeline, inflight=args.inflight,
        copy_strategy="auto",
    ) as fft:
        shape = fft.decomp.local_spectral_shape()
        spec = [
            (rng.standard_normal(shape)
             + 1j * rng.standard_normal(shape)).astype(grid.cdtype)
            for _ in range(P)
        ]
        fft.forward(fft.inverse(spec))
        fft.product_spectra([np.stack([s] * 3) for s in spec], PRODUCT_PAIRS)
        tuner = fft.copy_tuner
        print()
        print(tuner.report())
        records = tuner.records()
        chosen = {r["strategy"] for r in records if r["winner"]}
        print()
        print(f"measured winners: {sorted(chosen)} "
              f"over {len({tuple(r['shape']) for r in records})} layout(s)")
        if args.model:
            model = CopyAutotuner(obs=None)
            probed = set()
            for r in tuner.results:
                if not r.winner or r.key in probed:
                    continue
                probed.add(r.key)
                # Rebuild the probe's exact chunk geometry (the models only
                # consume chunk_bytes and nchunks; the real shape stays in
                # the key for display).
                itemsize = np.dtype(r.key[1]).itemsize
                elems = max(r.chunk_bytes // itemsize, 1)
                layout = ChunkLayout(
                    shape=(r.nchunks, elems),
                    lead_ndim=1 if r.nchunks > 1 else 0,
                    chunk_elems=elems,
                    itemsize=itemsize,
                )
                model._choose_model((*r.key[:2], "sim"), layout)
            print()
            print("Fig. 7 model ranking (the sim-backend choice):")
            print(model.report())
            records = records + model.records()
        if args.json:
            from repro.obs.runs import write_bench_json

            write_bench_json({"suite": "tune", "results": records}, args.json)
            run.add_artifact("probe_records", args.json)
            print(f"probe records written to {args.json}")
    return 0


def _verify_list(text: Optional[str], flag: str, item: type = int):
    """A comma-separated ``--seeds``/``--profiles`` value (None if unset),
    or ValueError with the reason."""
    if text is None:
        return None
    words = text.split(",")
    if item is int and not all(w.isdigit() for w in words):
        raise ValueError(f"{flag} {text!r} must be a comma-separated list of "
                         "ints >= 0")
    if not all(words):
        raise ValueError(f"{flag} {text!r} has an empty name")
    return [item(w) for w in words]


def _verify_inputs(args) -> tuple:
    """``(seeds, profiles)`` from the verify flags, each None when unset;
    ValueError with the first malformed flag's reason, before any run."""
    from repro.verify import PROFILES

    bounds = (
        (args.seed_base is None or args.seed_base >= 0,
         f"--seed-base={args.seed_base} must be an int >= 0"),
        (args.orders >= 0, f"--orders={args.orders} must be an int >= 0"),
        (args.workloads >= 1,
         f"--workloads={args.workloads} must be an int >= 1"),
        # Finite too: a timer cannot wait forever, it raises in its thread.
        (0 < args.watchdog < float("inf"),
         f"--watchdog={args.watchdog} must be a finite positive number of "
         f"seconds"),
    )
    for ok, reason in bounds:
        if not ok:
            raise ValueError(reason)
    seeds = _verify_list(args.seeds, "--seeds")
    profiles = _verify_list(args.profiles, "--profiles", str)
    unknown = [p for p in profiles or () if p not in PROFILES]
    if unknown:
        raise ValueError(f"unknown profile(s) {unknown}; "
                         f"choose from {sorted(PROFILES)}")
    return seeds, profiles


def _cmd_verify(args) -> int:
    """``repro verify``: the fuzz matrix, one engine pair per seed and the
    schedule exploration (CI job).

    The flags name one :class:`JobSpec` (validated as ``dns``'s are).  Each
    fuzz case ``(SEED, NAME)`` is an engine pair of it: the spec fuzzed on
    the threaded pipeline against the spec on the sync one.  Its report
    line names the seed and profile, so a CI failure reproduces locally
    with ``repro verify --seeds SEED --profiles NAME`` (or one side alone
    with ``repro dns --ranks P --npencils NP --pipeline threads --fuzz
    SEED --fuzz-profile NAME``); a drawn engine pair's line names its seed
    and both configurations.  A malformed list or bound is one ``error:``
    line and exit 2, before anything runs.
    """
    from repro.verify import DEFAULT_PROFILES, DEFAULT_SEEDS, run_verification

    try:
        seeds, profiles = _verify_inputs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.scheduler:
        return _cmd_verify_scheduler(args, seeds)
    if seeds is None:
        seeds = (DEFAULT_SEEDS if args.seed_base is None
                 else [args.seed_base + k for k in range(3)])
    profiles = profiles or DEFAULT_PROFILES
    from repro.dist.decomp import normalize_heights
    from repro.serve.spec import in_flags, spec_from_args

    try:
        spec = spec_from_args(args)
    except ValueError as exc:  # --heights is not a list of integers
        return _report_bad_heights(exc, args.n, args.ranks or 1)
    try:
        spec.validate()
    except ValueError as exc:
        print(f"error: {in_flags(str(exc))}", file=sys.stderr)
        return 2
    heights = spec.heights
    if heights is not None:
        try:
            normalize_heights(args.n, args.ranks, heights)
        except ValueError as exc:
            return _report_bad_heights(exc, args.n, args.ranks)
    print(f"verify: n={args.n} P={args.ranks} np={args.npencils} "
          f"inflight={args.inflight} seeds={list(seeds)}"
          + (f" heights={list(heights)}" if heights else "")
          + (f" dlb={args.dlb}" if args.dlb != "off" else ""))
    config = {**spec.to_dict(), "orders": args.orders,
              "profiles": list(profiles)}
    with _registered_run("verify", config, seeds=seeds) as run:
        report = run_verification(
            spec,
            seeds=seeds,
            profiles=profiles,
            orders=args.orders,
            watchdog_seconds=args.watchdog,
            verbose=True,
            artifact_dir=str(run.dir),
            run_id=run.run_id,
        )
        print()
        print(report.render())
        for i, dump in enumerate(report.flight_dumps):
            run.add_artifact(f"flight_dump_{i}", dump)
        if args.metrics_out:
            from repro.obs import write_jsonl

            write_jsonl(report.metrics_records, args.metrics_out)
            run.add_artifact("metrics", args.metrics_out)
            print(f"metrics written to {args.metrics_out}")
        run.manifest.status = "ok" if report.passed else "fail"
    return 0 if report.passed else 1


def _cmd_verify_scheduler(args, seeds: Optional[list]) -> int:
    """``repro verify --scheduler``: conformance-fuzz the serve scheduler.

    Plans each seeded workload twice in fresh stores and checks trace
    determinism plus the capacity and fairness invariants — the CI face
    of the ``pytest -m serve`` conformance tier.
    """
    from repro.verify import run_scheduler_fuzz

    if seeds is None:
        base = args.seed_base or 0
        seeds = list(range(base, base + args.workloads))
    print(f"verify --scheduler: {len(seeds)} seeded workloads")
    config = {"scheduler": True, "workloads": len(seeds)}
    with _registered_run("verify", config, seeds=seeds) as run:
        report = run_scheduler_fuzz(seeds=seeds)
        print(report.render())
        run.manifest.status = "ok" if report.ok else "fail"
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """``repro serve``: the multi-tenant job service front door."""
    import json
    from pathlib import Path

    from repro.serve import JobService, JobSpec, ServeCapacity
    from repro.serve.spec import spec_from_args

    def _service(**kwargs) -> JobService:
        return JobService(root=args.root, **kwargs)

    def _show(record) -> None:
        quote = record.quote or {}
        placement = record.placement or {}
        extra = ""
        if quote:
            extra += f" bytes={quote.get('device_bytes', 0):.0f}"
        if placement.get("final_energy") is not None:
            extra += f" E={placement['final_energy']:.6g}"
        if placement.get("peak_rss_mb") is not None:
            extra += f" rss={placement['peak_rss_mb']:.0f}MiB"
        if record.error:
            extra += f"  ({record.error})"
        print(f"  {record.id:<28} {record.state:<9} "
              f"tenant={record.spec.tenant:<10} restarts={record.restarts}"
              + extra)

    if args.serve_command == "submit":
        if not (args.spec or args.name):
            print("error: submit needs --spec FILE or --name (plus flags)",
                  file=sys.stderr)
            return 2
        try:  # a file that is missing, not JSON, or not one JobSpec object
            spec = (JobSpec.from_json(sys.stdin.read() if args.spec == "-" else
                                      Path(args.spec).read_text(encoding="utf-8"))
                    if args.spec else spec_from_args(args))
        except (OSError, TypeError, ValueError) as exc:
            print(f"error: invalid spec: {exc}", file=sys.stderr)
            return 2
        service = _service()
        try:
            record = service.submit(spec)
        except ValueError as exc:
            print(f"error: invalid spec: {exc}", file=sys.stderr)
            return 2
        print(f"submitted {record.id} ({record.state}) "
              f"under {service.store.root}")
        if args.quote:
            print(service.quote(spec).report())
        return 0

    if args.serve_command == "status":
        service = _service()
        try:
            record = service.status(args.job_id)
        except KeyError:
            print(f"error: no job {args.job_id!r} under {service.store.root}",
                  file=sys.stderr)
            return 1
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0

    if args.serve_command == "list":
        service = _service()
        records = service.list()
        if args.state:
            records = [r for r in records if r.state == args.state.upper()]
        if not records:
            print(f"no jobs under {service.store.root}")
            return 0
        print(f"jobs under {service.store.root}:")
        for record in records:
            _show(record)
        return 0

    if args.serve_command == "cancel":
        service = _service()
        try:
            record = service.cancel(args.job_id)
        except KeyError:
            print(f"error: no job {args.job_id!r} under {service.store.root}",
                  file=sys.stderr)
            return 1
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"cancelled {record.id} -> {record.state}")
        return 0

    if args.serve_command in ("run-scheduler", "api"):
        # Both doors refuse a capacity that holds no job before planning.
        try:
            capacity = ServeCapacity(
                **({} if args.device_bytes is None
                   else {"device_bytes": args.device_bytes}),
                max_jobs=args.max_jobs,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.serve_command == "run-scheduler":
        service = _service(capacity=capacity, seed=args.seed)
        if service.last_reconcile and service.last_reconcile.readmitted:
            print(service.last_reconcile.render())
        result = service.run_scheduler(execute=not args.plan_only)
        print(result.render())
        for record in service.list():
            _show(record)
        return 0 if not result.failed else 1

    if args.serve_command == "api":
        from repro.serve.http_api import make_server, serve_forever

        service = _service(capacity=capacity)
        server = make_server(service, host=args.host, port=args.port)
        host, port = server.server_address[:2]
        print(f"repro serve api on http://{host}:{port} "
              f"(store: {service.store.root}) — Ctrl-C to stop")
        try:
            serve_forever(server)
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.server_close()
        return 0

    raise AssertionError(
        f"unhandled serve command {args.serve_command}"
    )  # pragma: no cover


def _cmd_obs_report(args) -> int:
    """``repro obs report``: one line per saved run, newest last.

    Exits 2 when the registry holds a corrupted manifest — a run that
    exists but can't be trusted is a worse signal than "no runs yet"
    (exit 1), and CI must distinguish them.
    """
    from repro.obs.runs import RunRegistry

    registry = RunRegistry(args.runs_dir)
    runs, errors = registry.scan()
    if errors:
        for err in errors:
            print(f"error: corrupted manifest: {err}", file=sys.stderr)
        return 2
    if args.kind:
        runs = [h for h in runs if h.manifest.kind == args.kind]
    if not runs:
        print(f"no runs under {registry.root}")
        return 1
    shown = runs[-args.last:]
    print(f"runs under {registry.root} "
          f"({len(shown)} of {len(runs)} shown):")
    for h in shown:
        m = h.manifest
        wall = (f"{m.wall_seconds:8.2f}s" if m.wall_seconds is not None
                else "  (live)")
        sha = str((m.provenance or {}).get("git_sha", "unknown"))[:9]
        print(f"  {m.run_id:<34} {m.status:<7} {wall} "
              f"sha={sha} artifacts={len(m.artifacts)}")
    return 0


def _format_event(line: str) -> str:
    import json

    try:
        rec = json.loads(line)
    except ValueError:
        return line
    skip = {"kind", "ts", "level", "name", "run_id", "seq"}
    fields = " ".join(f"{k}={rec[k]}" for k in rec if k not in skip)
    ts = rec.get("ts", 0.0)
    return (f"  {ts:.3f} [{rec.get('level', '?'):<5}] "
            f"{rec.get('name', '?')} {fields}".rstrip())


def _cmd_obs_tail(args) -> int:
    """``repro obs tail``: recent events of one run; ``--follow`` streams
    new lines until the manifest leaves the ``running`` state."""
    import time as _time

    from repro.obs.runs import ManifestError, RunRegistry

    registry = RunRegistry(args.runs_dir)
    if args.run_id:
        try:
            run = registry.get(args.run_id)
        except ManifestError as exc:
            print(f"error: corrupted manifest: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError):
            print(f"error: no run {args.run_id!r} under {registry.root}",
                  file=sys.stderr)
            return 1
    else:
        run = registry.latest(kind=args.kind)
        if run is None:
            print(f"no runs under {registry.root}")
            return 1
    path = run.events_path
    print(f"run {run.run_id} [{run.manifest.status}] events: {path}")
    lines = (path.read_text(encoding="utf-8").splitlines()
             if path.is_file() else [])
    for line in lines[-args.lines:]:
        print(_format_event(line))
    if not args.follow:
        return 0
    seen = len(lines)
    while True:
        _time.sleep(0.2)
        lines = (path.read_text(encoding="utf-8").splitlines()
                 if path.is_file() else [])
        for line in lines[seen:]:
            print(_format_event(line))
        seen = len(lines)
        try:
            status = registry.get(run.run_id).manifest.status
        except (OSError, ValueError):  # pragma: no cover - run dir vanished
            status = "gone"
        if status != "running":
            print(f"run finished: {status}")
            return 0


def _cmd_obs_diff(args) -> int:
    """``repro obs diff``: the perf-regression gate (exit 1 on regression)."""
    from repro.obs.diff import diff_files

    try:
        result = diff_files(args.baseline, args.current,
                            tolerance=args.tolerance, only=args.only)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render(verbose=args.verbose))
    return 0 if result.passed else 1


def _cmd_obs(args) -> int:
    if args.obs_command == "report":
        return _cmd_obs_report(args)
    if args.obs_command == "tail":
        return _cmd_obs_tail(args)
    if args.obs_command == "diff":
        return _cmd_obs_diff(args)
    raise AssertionError(
        f"unhandled obs command {args.obs_command}"
    )  # pragma: no cover


def _cmd_study(args) -> int:
    """A cost-plane or physics study at problem size ``--n``; a size the
    study refuses is one ``error:`` line, exit 2."""
    from repro.experiments import density_study, projection, validation

    try:
        if args.command == "projection":
            print(projection.run(args.n).report())
        elif args.command == "density":
            print(density_study.report(args.n))
        else:
            report = validation.run(n=args.n)
            print(report.format())
            return 0 if report.all_passed else 1
    except ValueError as exc:
        return _infeasible(exc)
    return 0


def _cmd_report(module_name: str) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{module_name}")
    result = module.run()
    if hasattr(result, "report"):
        print(result.report())
    elif hasattr(result, "render"):  # fig10
        print(result.render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "autotune":
        return _cmd_autotune(args)
    if args.command == "step":
        return _cmd_step(args)
    if args.command == "dns":
        return _cmd_dns(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command in ("projection", "validation", "density"):
        return _cmd_study(args)
    if args.command == "resolution":
        from repro.experiments.resolution_study import run

        for row in run():
            print(row.format())
        return 0
    if args.command in {"table1", "table2", "table3", "table4",
                        "fig7", "fig8", "fig9", "fig10"}:
        return _cmd_report(args.command)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
