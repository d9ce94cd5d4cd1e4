"""Flight-recorder post-mortems from the verification harness.

The acceptance contract for the flight recorder is narrow but hard: an
*injected* hang — a comm fault plan that wedges instead of raising — must
leave a timeline on disk even though the run never returns.  These tests
wedge a real distributed FFT under the deadlock watchdog and check the
dump; they also pin the harness-side bookkeeping (a fuzz case whose
fuzzed side diverges records its own dump, a clean run records none).
"""

import json
import threading

import numpy as np
import pytest

from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs.flight import FlightRecorder, install_flight, uninstall_flight
from repro.spectral.grid import SpectralGrid
from repro.verify import invariance
from repro.verify.faults import CommFaultPlan
from repro.verify.harness import DEFAULT_SPEC, run_verification
from repro.verify.watchdog import DeadlockTimeout, watchdog


class _WedgedFaultPlan(CommFaultPlan):
    """A fault plan that *hangs* instead of raising — the bug class the
    watchdog exists for.  ``check`` blocks on an event nobody ever sets;
    the wait is interruptible on the main thread, which is how
    ``interrupt_main`` reaches it."""

    def __init__(self):
        super().__init__()
        self.armed = False

    def check(self, kind, comm):
        if self.armed:
            never = threading.Event()
            while True:
                # Timeout-sliced like the real backends' waits: an untimed
                # wait never re-enters the interpreter, so interrupt_main
                # could not reach it.
                never.wait(0.05)


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


@pytest.fixture(autouse=True)
def _no_global_recorder():
    uninstall_flight()
    yield
    uninstall_flight()


class TestWatchdogDump:
    def test_injected_deadlock_leaves_a_timeline(self, tmp_path):
        grid = SpectralGrid(16)
        comm = VirtualComm(2)
        plan = _WedgedFaultPlan()
        comm.fault_injector = plan

        flight = FlightRecorder(run_id="wedge-test", artifact_dir=tmp_path)
        flight.add_heartbeat_provider(
            lambda: [{"rank": 0, "age_seconds": 0.1},
                     {"rank": 1, "age_seconds": 9.9}]
        )
        install_flight(flight)
        from repro.obs import Observability

        obs = Observability.create(flight=flight)
        with OutOfCoreSlabFFT(grid, comm, 4, pipeline="sync",
                              obs=obs) as fft:
            spec = _spectral_field(grid, 2)
            fft.inverse(spec)  # healthy exchange populates the span ring
            plan.armed = True
            with pytest.raises(DeadlockTimeout, match="presumed deadlock"):
                with watchdog(0.5, label="wedged exchange"):
                    fft.inverse(spec)

        assert len(flight.dumps) == 1
        doc = json.loads(flight.dumps[0].read_text())
        assert doc["reason"] == "deadlock-wedged-exchange"
        assert doc["run_id"] == "wedge-test"
        # Last-N spans from the healthy exchange survived into the dump,
        # and the heartbeat section answers "which rank went silent".
        assert len(doc["spans"]) > 0
        ages = {r["rank"]: r["age_seconds"] for r in doc["heartbeats"]}
        assert ages == {0: 0.1, 1: 9.9}

    def test_deadlock_without_recorder_still_raises(self):
        never = threading.Event()
        with pytest.raises(DeadlockTimeout):
            with watchdog(0.2, label="bare"):
                while True:
                    never.wait(0.05)


class TestHarnessDumps:
    def test_diverged_fuzz_case_records_dump(self, tmp_path, monkeypatch):
        """One ulp added to the fuzzed side's state fails its pair as not
        bit-identical, and leaves a dump named after seed and profile."""
        real = invariance._run

        def nudged(pair, spec, outcome, obs=None):
            fields, sums = real(pair, spec, outcome, obs)
            if spec.fuzz_seed is not None:
                state = fields["state"]
                state.flat[0] = complex(np.nextafter(state.flat[0].real,
                                                     np.inf),
                                        state.flat[0].imag)
            return fields, sums

        monkeypatch.setattr(invariance, "_run", nudged)
        report = run_verification(
            DEFAULT_SPEC.with_(inflight=2), seeds=(3,), profiles=("calm",),
            orders=0, artifact_dir=str(tmp_path), run_id="diverge-test",
        )
        (case,) = report.cases
        assert not case.ok and not report.passed
        assert case.describe().startswith("pair seed=3 ")
        assert "fuzz_profile=calm" in case.describe()
        assert "not bit-identical" in case.error
        assert report.flight_dumps == [case.flight_dump]
        with open(case.flight_dump) as fh:
            doc = json.load(fh)
        assert doc["reason"] == "fuzz-fail-seed3-calm"
        assert len(doc["spans"]) > 0

    def test_clean_verification_records_no_dumps(self, tmp_path):
        report = run_verification(
            DEFAULT_SPEC, seeds=[101], profiles=["calm"], orders=0,
            artifact_dir=str(tmp_path), run_id="clean-run",
        )
        assert report.passed
        assert report.flight_dumps == []
        # The harness restored the global recorder slot on the way out.
        from repro.obs.flight import current_flight

        assert current_flight() is None

    def test_user_interrupt_in_the_explorer_propagates(self, monkeypatch):
        """A Ctrl-C is the user's, not a verification failure."""
        from repro.obs.flight import current_flight
        from repro.verify import harness

        def interrupted(*args):
            raise KeyboardInterrupt
            yield  # a generator, like replay_orders

        monkeypatch.setattr(harness, "replay_orders", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_verification(DEFAULT_SPEC, seeds=(), orders=1)
        assert current_flight() is None
