"""``serve_mix24``: a closed-loop client against the in-process job service.

One keep-alive HTTP connection POSTs every job of a seeded mix, then asks
the scheduler to run the queue; that is one *round*.  Rounds repeat on a
fresh store until the window is used up, so every submit and the makespan
have repetitions to take the fastest of.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from bench.dns import DT, NU
from bench.harness import Outcome, Workload, fastest, median, p90, per, window
from bench.trace import Tracer

TENANTS = ("t0", "t1", "t2")
MAX_JOBS = 2


@dataclass
class Round:
    """One service instance with its HTTP front end and the client's socket."""

    service: object
    server: object
    thread: threading.Thread
    conn: http.client.HTTPConnection
    closed: bool = False


@dataclass
class RoundResult:
    submit_s: list[float]
    makespan_s: float
    turnaround_s: list[float]
    queue_wait_s: list[float]
    plan_s: float
    artifact_bytes: int
    #: template -> text of the ``energies.json`` of its first job
    energies: dict[str, str]


@dataclass
class ServeState:
    specs: list
    scratch: Path
    round: Optional[Round]
    seed: int
    #: energies.json per template from the first round, for ``verify``
    energies: dict[str, str] = field(default_factory=dict)


class ServeWorkload(Workload):
    """``size``: ``jobs``, ``templates`` (name -> JobSpec fields), optional
    ``round_cap`` (toy runs)."""

    name = "serve_mix24"
    layers = ("serve", "spectral", "dist", "ooc", "exec")

    # -- inputs ---------------------------------------------------------------

    def _specs(self, seed: int) -> list:
        """The job mix: templates cycle, tenants cycle, ``t0`` has priority
        1; the seed sets the initial conditions and the submission order."""
        from repro.serve import JobSpec

        templates = self.size["templates"]
        names = sorted(templates)
        specs = []
        for i in range(self.size["jobs"]):
            template = names[i % len(names)]
            tenant = TENANTS[i % len(TENANTS)]
            specs.append(JobSpec(
                name=f"{template}{i:02d}", tenant=tenant,
                priority=1 if tenant == "t0" else 0,
                ic="random", ic_seed=seed, dt=DT, nu=NU,
                diagnostics_every=10, fft_backend="numpy",
                **templates[template],
            ))
        random.Random(seed).shuffle(specs)
        return specs

    # -- rounds ---------------------------------------------------------------

    def _open(self, root: Path, seed: int) -> Round:
        from repro.serve import JobService, ServeCapacity
        from repro.serve.http_api import make_server, serve_forever

        service = JobService(root, ServeCapacity(max_jobs=MAX_JOBS), seed=seed)
        server = make_server(service)
        thread = serve_forever(server, background=True)
        host, port = server.server_address[:2]
        try:
            conn = http.client.HTTPConnection(host, port, timeout=120)
            conn.connect()
        except BaseException:
            server.shutdown()
            server.server_close()
            thread.join()
            raise
        return Round(service, server, thread, conn)

    @staticmethod
    def _close(rnd: Optional[Round]) -> None:
        if rnd is None or rnd.closed:
            return
        rnd.closed = True
        rnd.conn.close()
        rnd.server.shutdown()
        rnd.server.server_close()
        rnd.thread.join()

    @staticmethod
    def _post(conn, path: str, doc: dict) -> tuple[int, dict]:
        body = json.dumps(doc)
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def _play(self, rnd: Round, state: ServeState, outcome: Outcome,
              tracer: Optional[Tracer]) -> RoundResult:
        """Submit the mix, run the scheduler, read back what happened."""
        from repro.serve.runner import ENERGIES_NAME

        def post(path, doc):
            if tracer is None:
                return self._post(rnd.conn, path, doc)
            return tracer.call("client.post", self._post, (rnd.conn, path, doc))

        submit_s = []
        first_job: dict[str, str] = {}
        begin = perf_counter()
        for spec in state.specs:
            outcome.attempted += 1
            start = perf_counter()
            status, doc = post("/v1/jobs", spec.to_dict())
            submit_s.append(perf_counter() - start)
            if status != 201:
                outcome.failed += 1
                outcome.problems.append(f"submit {spec.name}: HTTP {status} {doc}")
                continue
            first_job.setdefault(spec.name[0], doc["id"])
        schedule_unix = time.time()
        status, doc = post("/v1/scheduler/run", {"seed": state.seed})
        makespan = perf_counter() - begin
        if status != 200:
            outcome.problems.append(f"scheduler run: HTTP {status} {doc}")

        turnaround, queue_wait, first_running = [], [], []
        template_of = {job: template for template, job in first_job.items()}
        energies: dict[str, str] = {}
        for record in rnd.service.list():
            outcome.attempted += 1
            stamps = {s: t for s, t in record.history}
            path = Path(record.run_dir or "") / ENERGIES_NAME
            if record.state != "DONE" or not path.is_file():
                outcome.failed += 1
                outcome.problems.append(
                    f"job {record.id} ended {record.state}: {record.error}")
                continue
            turnaround.append(stamps["DONE"] - stamps["PENDING"])
            queue_wait.append(stamps["RUNNING"] - stamps["ADMITTED"])
            first_running.append(stamps["RUNNING"])
            if record.id in template_of:
                energies[template_of[record.id]] = path.read_text(encoding="utf-8")
        runs = rnd.service.store.runs_dir
        artifact_bytes = sum(
            p.stat().st_size for p in runs.rglob("*") if p.is_file()
        ) if runs.is_dir() else 0
        return RoundResult(
            submit_s, makespan, turnaround, queue_wait,
            (min(first_running) - schedule_unix) if first_running else 0.0,
            artifact_bytes, energies,
        )

    # -- protocol -------------------------------------------------------------

    def setup(self, seed: int, scratch: Path) -> ServeState:
        """Specs, one warm-up job per template (imports, FFT set-up), then the
        service, its server thread and the client connection."""
        from repro.serve.runner import run_job

        specs = self._specs(seed)
        seen = set()
        for spec in specs:
            if spec.name[0] not in seen:
                seen.add(spec.name[0])
                run_job(spec.with_(steps=2), registry_root=None)
        return ServeState(specs, scratch, self._open(scratch / "round0", seed), seed)

    def teardown(self, state: ServeState) -> None:
        self._close(state.round)
        state.round = None

    def run(self, state: ServeState, seconds: float, trace: bool) -> Outcome:
        """Rounds until the window closes; the first uses the service that
        ``setup`` built, later ones build their own outside the timings."""
        outcome = Outcome()
        tracer = Tracer()
        plain: list[RoundResult] = []
        traced: list[RoundResult] = []
        for traced_round in window(seconds, trace, self.size.get("round_cap")):
            index = len(plain) + len(traced)
            rnd = state.round or self._open(
                state.scratch / f"round{index}", state.seed)
            state.round = None
            try:
                if traced_round:
                    with tracer.install(self.layers):
                        traced.append(self._play(rnd, state, outcome, tracer))
                else:
                    plain.append(self._play(rnd, state, outcome, None))
            finally:
                self._close(rnd)
        state.energies = plain[0].energies
        # The i-th submit of every round is the same operation (same spec,
        # same queue length): each at its fastest round, then the median.
        submits = [fastest(by_position)
                   for by_position in zip(*(r.submit_s for r in plain))]
        every = [s for r in plain for s in r.submit_s]
        outcome.end_to_end["op_s"] = median(submits)
        # A round runs two jobs at a time: concurrent, so the median round.
        outcome.end_to_end["run_s"] = median(r.makespan_s for r in plain)
        outcome.notes.update(
            rounds=len(plain), op_samples=len(every), op_median_s=median(every),
            op_p90_s=p90(every), jobs=self.size["jobs"],
            turnaround_s=median(t for r in plain for t in r.turnaround_s),
        )
        if traced:
            self._per_layer(tracer, outcome, plain, traced)
        return outcome

    def _per_layer(self, tracer: Tracer, outcome: Outcome,
                   plain: list[RoundResult], traced: list[RoundResult]) -> None:
        """Per job unless noted; medians are over every job of the traced rounds."""
        rounds = len(traced)
        jobs = rounds * self.size["jobs"]
        m = outcome.per_layer
        # One handler thread serves the keep-alive connection, so handler
        # spans pair with the client's requests in order.
        client = tracer.named("client.post")
        handler = sorted(tracer.named("serve.handler"), key=lambda s: s.start)
        m["serve.http_s"] = median(
            c.duration - h.duration for c, h in zip(client, handler))
        m["serve.store_submit_s"] = median(
            s.duration for s in tracer.named("serve.store_submit"))
        m["serve.admission_s"] = per(tracer.total("serve.admission"), jobs)
        m["serve.plan_s"] = median(r.plan_s for r in traced)
        m["serve.queue_wait_s"] = median(w for r in traced for w in r.queue_wait_s)
        m["serve.turnaround_s"] = median(t for r in traced for t in r.turnaround_s)
        exec_s = tracer.total("serve.run_job")
        m["serve.exec_s"] = per(exec_s, rounds)  # per round
        m["serve.slot_util"] = per(
            exec_s, MAX_JOBS * sum(r.makespan_s for r in traced))
        m["serve.artifact_bytes"] = per(
            sum(r.artifact_bytes for r in traced), jobs)

        m.update(tracer.layer_metrics(jobs))
        m["trace.coverage_frac"] = per(
            tracer.covered(), sum(r.makespan_s for r in traced))
        m["obs.trace_overhead_frac"] = per(
            median(r.makespan_s for r in traced),
            median(r.makespan_s for r in plain)) - 1.0
        outcome.notes.update(traced_rounds=rounds, spans=len(tracer.spans))

    def verify(self, state: ServeState, outcome: Outcome) -> None:
        """One job per template must match a standalone ``run_job`` exactly."""
        from repro.serve.runner import JobResult, run_job

        by_template = {}
        for spec in state.specs:
            by_template.setdefault(spec.name[0], spec)
        mismatched = 0
        for template, spec in sorted(by_template.items()):
            text = state.energies.get(template)
            alone = run_job(spec, registry_root=None)
            served = JobResult.from_json(text) if text else None
            # repr() equality: bit-exact, and NaN (skipped diagnostics) == NaN.
            if served is None or (
                [repr(e) for e in served.energies]
                != [repr(e) for e in alone.energies]
            ):
                mismatched += 1
                outcome.problems.append(
                    f"template {template}: served energies differ from "
                    "standalone run_job")
        outcome.notes["serve_bitexact"] = mismatched
        if outcome.per_layer:
            outcome.per_layer["check.serve_bitexact"] = float(mismatched)
