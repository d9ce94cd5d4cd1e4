"""ProcsComm cross-process telemetry: heartbeats, stall detection, dumps.

The PR 6 backend made workers separate address spaces; these tests pin the
PR 7 contract that the driver still *sees* them: live per-rank gauges off
the shared-memory heartbeat board, a stall detector that converts a dead or
wedged worker into :class:`WorkerStallError` (instead of a barrier that
never returns), a flight-recorder post-mortem on that path, and worker
span lanes that survive a Chrome-trace export round-trip.
"""

import json
import math
import os
import signal
import time

import numpy as np
import pytest

from repro.dist.slab_fft import SlabDistributedFFT
from repro.mpi.procs import ProcsComm, WorkerStallError
from repro.obs import Observability
from repro.obs.flight import FlightRecorder, install_flight, uninstall_flight
from repro.spectral.grid import SpectralGrid


def _spectral_field(fft, seed=0):
    """Random coefficients in the resident kz-slabs of ``fft``'s workers."""
    shape = fft.decomp.local_spectral_shape()
    rng = np.random.default_rng(seed)
    field = fft.resident([shape] * fft.comm.size, fft.grid.cdtype)
    for a in field:
        a[...] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return field


def _die_on(flag):
    """Module-level, so a worker can import it: kill this worker."""
    if flag:
        os.kill(os.getpid(), signal.SIGKILL)


class TestHeartbeats:
    def test_workers_publish_heartbeats(self):
        comm = ProcsComm(2, heartbeat_interval=0.05)
        try:
            deadline = time.time() + 5.0
            while (any(r["beats"] < 1 for r in comm.heartbeats())
                   and time.time() < deadline):
                time.sleep(0.02)
            records = comm.heartbeats()
            assert [r["rank"] for r in records] == [0, 1]
            assert all(r["beats"] >= 1 for r in records)
            assert all(r["age_seconds"] < 5.0 for r in records)
        finally:
            comm.close()
        assert comm.heartbeat_board is None  # board released on close

    def test_live_cpu_seconds_and_progress(self):
        grid = SpectralGrid(16)
        comm = ProcsComm(2, heartbeat_interval=0.05)
        try:
            fft = SlabDistributedFFT(grid, comm)
            fft.inverse(_spectral_field(fft))
            live = comm.live_worker_cpu_seconds()
            assert len(live) == 2 and all(c >= 0.0 for c in live)
            # Each rank completed at least one dispatched stage op.
            assert all(r["ops_completed"] >= 1 for r in comm.heartbeats())
        finally:
            comm.close()
        # close() still collects the authoritative end-of-life cpu totals.
        assert len(comm.worker_cpu_seconds) == 2
        assert sum(comm.worker_cpu_seconds) > 0.0

    def test_transpose_exports_per_rank_gauges(self):
        grid = SpectralGrid(16)
        obs = Observability.create()
        comm = ProcsComm(2, heartbeat_interval=0.05)
        try:
            fft = SlabDistributedFFT(grid, comm, obs=obs)
            fft.inverse(_spectral_field(fft))
        finally:
            comm.close()
        names = set(obs.metrics.names())
        for r in range(2):
            assert f"rank{r}.cpu_seconds" in names
            assert f"rank{r}.heartbeat_age_seconds" in names
            assert f"rank{r}.ops_completed" in names
        assert obs.metrics.gauge("rank0.ops_completed").value >= 1


class TestStallDetection:
    def test_killed_worker_raises_stall_error(self):
        grid = SpectralGrid(16)
        comm = ProcsComm(2, heartbeat_interval=0.05, stall_timeout=0.5)
        try:
            fft = SlabDistributedFFT(grid, comm)
            spec = _spectral_field(fft)
            fft.inverse(spec)  # healthy exchange first
            comm._workers[1][0].kill()
            time.sleep(0.3)  # let the process die and is_alive() settle
            with pytest.raises(WorkerStallError, match="rank 1"):
                fft.inverse(spec)
            assert comm.stalls_detected >= 1
        finally:
            comm.close()

    def test_a_rank_dying_between_exchanges_is_a_stall_not_a_hang(self):
        """Rank 1 dies after the first of two queued exchanges; rank 0,
        alive and beating, waits at the second one's barrier.  The driver
        checks every rank while it waits, so it names rank 1."""
        comm = ProcsComm(2, heartbeat_interval=0.05, stall_timeout=0.5)
        try:
            x = comm.resident([(4, 4)] * 2, np.float64)
            y = comm.resident([(8, 2)] * 2, np.float64)
            comm.rank_transpose(x, pack_axis=1, unpack_axis=0, out=y, wait=False)
            comm.each_rank(_die_on, [False, True], wait=False)
            start = time.monotonic()
            with pytest.raises(WorkerStallError, match="rank 1"):
                comm.rank_transpose(y, pack_axis=0, unpack_axis=1, out=x)
            assert time.monotonic() - start < comm.stall_timeout + 1.0
        finally:
            comm.close()

    def test_stall_dumps_installed_flight_recorder(self, tmp_path):
        flight = FlightRecorder(run_id="stall-test", artifact_dir=tmp_path)
        install_flight(flight)
        grid = SpectralGrid(16)
        try:
            comm = ProcsComm(2, heartbeat_interval=0.05, stall_timeout=0.5)
            try:
                obs = Observability.create(flight=flight)
                fft = SlabDistributedFFT(grid, comm, obs=obs)
                spec = _spectral_field(fft)
                fft.inverse(spec)
                comm._workers[0][0].kill()
                time.sleep(0.3)
                with pytest.raises(WorkerStallError):
                    fft.inverse(spec)
            finally:
                comm.close()
        finally:
            uninstall_flight()
        assert len(flight.dumps) == 1
        doc = json.loads(flight.dumps[0].read_text())
        assert doc["reason"].startswith("procs-stall")
        assert doc["run_id"] == "stall-test"
        # The post-mortem answers "where was everyone": recent spans from
        # the healthy exchange plus one heartbeat record per rank.
        assert len(doc["spans"]) > 0
        ages = {r["rank"]: r["age_seconds"] for r in doc["heartbeats"]}
        assert set(ages) == {0, 1}

    def test_stall_timeout_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCS_STALL", "7.5")
        comm = ProcsComm(2)
        try:
            assert comm.stall_timeout == 7.5
        finally:
            comm.close()

    def test_stall_detection_disabled_by_nonpositive(self):
        comm = ProcsComm(2, stall_timeout=0)
        try:
            assert comm.stall_timeout is None
        finally:
            comm.close()


class TestWorkerLaneTraceExport:
    def test_proc_lanes_round_trip_chrome_trace(self, tmp_path):
        from repro.core.trace_export import write_chrome_trace

        grid = SpectralGrid(16)
        obs = Observability.create()
        comm = ProcsComm(2)
        try:
            fft = SlabDistributedFFT(grid, comm, obs=obs)
            fft.inverse(_spectral_field(fft))
        finally:
            comm.close()
        path = write_chrome_trace(obs.spans.to_tracer(),
                                  tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        lane_names = {e["args"]["name"] for e in events
                      if e.get("ph") == "M" and e.get("name") == "thread_name"}
        assert {"rank0.proc", "rank1.proc"} <= lane_names
        # Worker lanes group under their rank's process with the rank's
        # other lanes (the Fig. 10 reading: one row block per rank).
        proc_names = {e["args"]["name"] for e in events
                      if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert {"rank0", "rank1"} <= proc_names
        # And real spans landed on the worker lanes.
        pid_of = {e["args"]["name"]: e["pid"] for e in events
                  if e.get("ph") == "M" and e.get("name") == "process_name"}
        span_pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert pid_of["rank0"] in span_pids

    def test_flight_ring_sees_proc_lanes(self):
        flight = FlightRecorder(capacity=1024)
        grid = SpectralGrid(16)
        obs = Observability.create(flight=flight)
        comm = ProcsComm(2)
        try:
            fft = SlabDistributedFFT(grid, comm, obs=obs)
            fft.inverse(_spectral_field(fft))
        finally:
            comm.close()
        lanes = {s["lane"] for s in flight.recent_spans()}
        assert {"rank0.proc", "rank1.proc"} <= lanes
