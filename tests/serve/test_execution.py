"""The scheduler's execution contract: one forked process per admitted job.

Tier-1 with stub runners, except the ``serve``-marked procs job.  What is
pinned here:

* dispatch follows the trace's admit order, and the live set read back
  from the store's ADMITTED→DONE histories never exceeds ``max_jobs`` or
  the device-byte capacity;
* work conservation: the plan's finish edges are not replayed, so two jobs
  the DES serialises run together once capacity admits them;
* a job process that dies (exit code or signal) fails that job only, a
  :class:`SchedulerCrash` kills and reaps the live job processes, and a
  killed scheduler takes its job processes with it;
* each job's peak RSS lands in its record.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.serve import (
    FairShareScheduler,
    JobService,
    JobSpec,
    JobState,
    JobStore,
    SchedulerCrash,
    ServeCapacity,
    run_job,
)


def _sleepy_runner(record, store):
    time.sleep(0.01 * record.spec.steps)
    return {"slept": record.spec.steps}


def _children() -> set[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me, out = os.getpid(), set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                out.add(int(entry.name))
    return out


def _alive(pid: int) -> bool:
    """Running, not exited: a reaped pid or a zombie is dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _poll(predicate, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _stamp(record, state) -> float:
    return next(t for s, t in record.history if s == state)


class TestContract:
    def test_live_set_within_capacity_and_dispatch_in_admit_order(
            self, tmp_path):
        store = JobStore(tmp_path / "s")
        for i in range(8):
            store.submit(JobSpec(name=f"j{i}", tenant=f"t{i % 3}", n=8,
                                 steps=1 + i % 4))
        # fits roughly two serial 8^3 jobs at a time, under a 3-job window
        cap = ServeCapacity(device_bytes=40_000.0, max_jobs=3)
        with FairShareScheduler(store, capacity=cap, seed=5,
                                runner=_sleepy_runner) as sched:
            result = sched.run()
        assert sorted(result.done) == sorted(result.admitted)
        records = store.jobs()
        assert all(r.state == JobState.DONE for r in records)
        by_admit = sorted(records, key=lambda r: _stamp(r, JobState.ADMITTED))
        assert [r.id for r in by_admit] == result.trace.admitted_ids()
        assert result.admitted == result.trace.admitted_ids()

        # The parent makes every transition, so the stamps are one timeline:
        # at equal stamps a DONE (the slot freed) precedes the next ADMITTED.
        edges = sorted(
            [(_stamp(r, JobState.ADMITTED), 1, r) for r in records]
            + [(_stamp(r, JobState.DONE), 0, r) for r in records],
            key=lambda e: (e[0], e[1]))
        live, live_bytes = 0, 0.0
        for _, admitted, r in edges:
            sign = 1 if admitted else -1
            live += sign
            live_bytes += sign * r.quote["device_bytes"]
            assert live <= cap.max_jobs
            assert live_bytes <= cap.device_bytes * (1.0 + 1e-12)
        assert live == 0

    def test_work_conserving_overlap_of_jobs_the_plan_serialises(
            self, tmp_path):
        """One tenant's FIFO: the DES runs ``long`` and ``b`` first, and ``c``
        only after ``b``'s virtual finish.  Really ``long`` ends at once, so
        ``c`` must start while ``b`` still runs: ``b`` waits for the file
        ``c`` writes, for at most 10 s."""
        flag = tmp_path / "c-started"

        def runner(record, store):
            if record.spec.name == "b":
                deadline = time.monotonic() + 10.0
                while not flag.exists():
                    if time.monotonic() > deadline:
                        raise TimeoutError("c never ran beside b")
                    time.sleep(0.005)
            elif record.spec.name == "c":
                flag.write_text("c")
            return {}

        store = JobStore(tmp_path / "s")
        store.submit(JobSpec(name="long", tenant="t", n=16, steps=8))
        store.submit(JobSpec(name="b", tenant="t", n=8, steps=1))
        store.submit(JobSpec(name="c", tenant="t", n=8, steps=1))
        with FairShareScheduler(store, capacity=ServeCapacity(max_jobs=2),
                                runner=runner) as sched:
            plan = [(e["event"], e["job"]) for e in sched.plan().events]
            assert plan.index(("finish", "j0001-b")) < \
                plan.index(("admit", "j0002-c"))
            result = sched.run()
        assert result.failed == [], [r.error for r in store.jobs()]
        b, c = store.get("j0001-b"), store.get("j0002-c")
        assert _stamp(c, JobState.RUNNING) < _stamp(b, JobState.DONE)


class TestIsolation:
    def test_dead_job_process_fails_that_job_only(self, tmp_path):
        def runner(record, store):
            if record.spec.name == "exits":
                os._exit(3)
            if record.spec.name == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return {"ok": True}

        store = JobStore(tmp_path / "s")
        for name in ("fine", "exits", "killed", "also-fine"):
            store.submit(JobSpec(name=name, n=8))
        with FairShareScheduler(store, capacity=ServeCapacity(max_jobs=2),
                                runner=runner) as sched:
            result = sched.run()
        assert sorted(result.failed) == ["j0001-exits", "j0002-killed"]
        assert "exited with code 3" in store.get("j0001-exits").error
        assert "killed by SIGKILL" in store.get("j0002-killed").error
        for jid in ("j0000-fine", "j0003-also-fine"):
            rec = store.get(jid)
            assert rec.state == JobState.DONE and rec.placement["ok"] is True

    def test_scheduler_crash_kills_and_reaps_live_jobs(self, tmp_path):
        late = tmp_path / "late"

        def runner(record, store):
            time.sleep(0.5)
            late.write_text(record.id)  # must never happen: killed first
            return {}

        def bomb(record):
            if record.spec.name == "second":
                raise SchedulerCrash("injected")

        store = JobStore(tmp_path / "s")
        store.submit(JobSpec(name="first", n=8))
        store.submit(JobSpec(name="second", n=8))
        before = _children()
        with FairShareScheduler(store, capacity=ServeCapacity(max_jobs=2),
                                runner=runner, on_job_start=bomb) as sched:
            with pytest.raises(SchedulerCrash):
                sched.run()
        assert _children() <= before  # killed and reaped, not orphaned
        assert [r.state for r in store.jobs()] == [JobState.RUNNING] * 2
        time.sleep(0.7)
        assert not late.exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="parent-death signal")
    def test_job_process_dies_with_a_killed_scheduler(self, tmp_path):
        """``kill -9`` of the scheduler leaves no job process running on."""
        pidfile = tmp_path / "job.pid"
        script = textwrap.dedent(f"""
            import os, time
            from repro.serve import FairShareScheduler, JobSpec, JobStore

            def runner(record, store):
                open({str(pidfile)!r}, "w").write(str(os.getpid()))
                time.sleep(60)
                return {{}}

            store = JobStore({str(tmp_path / "s")!r})
            store.submit(JobSpec(name="orphan", n=8))
            FairShareScheduler(store, runner=runner).run()
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        scheduler = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            assert _poll(lambda: pidfile.is_file() and pidfile.read_text())
        finally:
            scheduler.kill()
            scheduler.wait()
        job = int(pidfile.read_text())
        assert _poll(lambda: not _alive(job)), f"job process {job} outlived"


def test_served_job_records_positive_peak_rss(tmp_path, monkeypatch, capsys):
    """The job process's ``ru_maxrss``, printed by ``serve status``/``list``."""
    monkeypatch.setenv("REPRO_SERVE_DIR", str(tmp_path / "serve"))
    assert main(["serve", "submit", "--name", "rss", "--n", "8",
                 "--steps", "1"]) == 0
    assert main(["serve", "run-scheduler"]) == 0
    capsys.readouterr()
    assert main(["serve", "status", "j0000-rss"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["state"] == JobState.DONE
    assert record["placement"]["peak_rss_mb"] > 0
    assert Path(record["run_dir"], "energies.json").is_file()
    assert main(["serve", "list"]) == 0
    assert " rss=" in capsys.readouterr().out


@pytest.mark.serve
def test_procs_job_through_the_scheduler(tmp_path):
    """A job child that starts its own rank workers: energies bit-identical
    to a standalone run, and neither a process nor a shared-memory segment
    of the job outlives ``run_scheduler``."""
    spec = JobSpec(name="procs", n=16, steps=2, ranks=2, comm="procs",
                   dt=0.01, ic="random")
    shm = Path("/dev/shm")
    segments, children = set(os.listdir(shm)), _children()
    service = JobService(root=tmp_path / "serve",
                         capacity=ServeCapacity(max_jobs=2))
    service.submit(spec)
    result = service.run_scheduler()
    assert result.done == ["j0000-procs"], service.list()[0].error
    assert _children() <= children
    assert set(os.listdir(shm)) <= segments

    record = service.status("j0000-procs")
    served = json.loads(Path(record.run_dir, "energies.json").read_text())
    alone = run_job(spec)
    assert [repr(e) for e in served["energies"]] == \
        [repr(e) for e in alone.energies]
