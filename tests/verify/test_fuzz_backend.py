"""FuzzBackend unit tests: delay mechanics, determinism, poisoning."""

import threading

import numpy as np
import pytest

from repro.exec import (
    PencilPipeline,
    PipelineStage,
    SyncBackend,
    ThreadBackend,
    make_backend,
)
from repro.obs import Observability
from repro.verify import FuzzBackend, FuzzProfile, PROFILES, fuzz_profile


def _recorder(log, lock):
    def make(stage_name):
        def fn(i):
            with lock:
                log.append((stage_name, i))
        return fn
    return make


def _run_stages(backend, nitems=6, window=2):
    log, lock = [], threading.Lock()
    make = _recorder(log, lock)
    stages = [
        PipelineStage("h2d", "h2d", "h2d", fn=make("h2d")),
        PipelineStage("fft", "compute", "fft", fn=make("fft")),
        PipelineStage("d2h", "d2h", "d2h", fn=make("d2h")),
    ]
    PencilPipeline(backend, stages, window=window).run(nitems)
    return log


class TestProfiles:
    def test_stock_profiles_cover_required_matrix(self):
        # Delays, comm faults and rank imbalance are each some profile's.
        assert len(PROFILES) >= 5
        assert any(p.delay_prob > 0 and p.delay_max > 0
                   for p in PROFILES.values())
        assert any(p.comm_drop_rate > 0 and p.comm_late_rate > 0
                   for p in PROFILES.values())
        assert any(p.imbalance_skew > 1.0 for p in PROFILES.values())

    def test_fuzz_profile_rebinds_seed(self):
        p = fuzz_profile("flaky-net", 42)
        assert p.seed == 42 and p.name == "flaky-net"
        assert PROFILES["flaky-net"].seed == 0  # stock entry untouched

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError):
            fuzz_profile("nope", 1)

    def test_per_stream_rng_is_stable_across_processes(self):
        # crc32-based stream salt: same draws every run, unlike hash().
        a = FuzzProfile(seed=5).rng_for("h2d").random(4)
        b = FuzzProfile(seed=5).rng_for("h2d").random(4)
        c = FuzzProfile(seed=5).rng_for("d2h").random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestInjection:
    @pytest.mark.parametrize("inner_factory", [SyncBackend, ThreadBackend])
    def test_schedule_preserved_under_delays(self, inner_factory):
        backend = FuzzBackend(inner_factory(), fuzz_profile("calm", 3))
        log = _run_stages(backend)
        backend.shutdown()
        for i in range(6):
            seen = [s for s, j in log if j == i]
            assert seen == ["h2d", "fft", "d2h"], f"item {i}: {seen}"
        assert backend.stats["delay_seconds"] > 0.0

    def test_real_errors_propagate_untouched(self):
        backend = FuzzBackend(ThreadBackend(), fuzz_profile("calm", 0))

        def boom(i):
            if i == 2:
                raise RuntimeError("pencil 2 failed")

        stages = [PipelineStage("w", "compute", "fft", fn=boom)]
        with pytest.raises(RuntimeError, match="pencil 2 failed"):
            PencilPipeline(backend, stages, window=2).run(4)
        backend.shutdown()

    def test_stats_deterministic_per_seed(self):
        def stats_for(seed):
            profile = FuzzProfile(seed=seed, delay_prob=0.5, delay_max=1e-5)
            backend = FuzzBackend(ThreadBackend(), profile)
            _run_stages(backend, nitems=20)
            backend.shutdown()
            return backend.stats["delay_seconds"]

        # The draws are per stream at submission, so thread timing cannot
        # move them: one seed sums the same delays in any order.
        assert stats_for(7) == pytest.approx(stats_for(7), rel=1e-12)
        assert stats_for(7) != stats_for(8)


class TestWiring:
    def test_make_backend_wraps_with_fuzz(self):
        backend = make_backend("threads", fuzz=fuzz_profile("calm", 1))
        assert isinstance(backend, FuzzBackend)
        assert backend.kind == "threads"
        backend.shutdown()

    def test_make_backend_plain_without_fuzz(self):
        backend = make_backend("threads")
        assert not isinstance(backend, FuzzBackend)
        backend.shutdown()

    def test_obs_counters_track_stats(self):
        obs = Observability.create()
        profile = FuzzProfile(seed=1, delay_prob=0.5, delay_max=1e-5)
        backend = FuzzBackend(ThreadBackend(obs=obs), profile, obs=obs)
        _run_stages(backend, nitems=12)
        backend.shutdown()
        snap = {r["name"]: r.get("value") for r in obs.metrics.snapshot()}
        assert backend.stats["delay_seconds"] > 0.0
        assert snap["verify.delay.seconds"] == pytest.approx(
            backend.stats["delay_seconds"], rel=1e-12)
