"""FuzzBackend: adversarial timing for exec backends.

The Fig. 4 pipeline's correctness claim is that its CUDA-event edges are
*sufficient*: any timing the event graph permits must produce the same
bytes.  The ThreadBackend only ever samples the timings the host scheduler
happens to produce — this module widens that sample adversarially.
:class:`FuzzBackend` decorates any real execution backend
(:class:`~repro.exec.SyncBackend` / :class:`~repro.exec.ThreadBackend`) and,
at every stream-op boundary, applies from a seeded plan:

* **delays** — per-op pre/post ``time.sleep`` drawn from the profile, which
  stretches and shears the schedule so slow-H2D / slow-comm / slow-compute
  timings all stress the real backend's synchronisation;
* **imbalance** — the seeded slow ranks of an
  :class:`~repro.verify.imbalance.ImbalancePlan`, the load the DLB
  lend/reclaim schedule prices.

It perturbs timing only: every op runs once, in its stream's submission
order.  Transient faults belong to the comm shim
(:class:`repro.verify.faults.CommFaultPlan`, built for runs under a
profile with comm rates), which production retry code recovers from; other
legal interleavings belong to the schedule explorer
(:mod:`repro.verify.explorer`), which replays the recorded event graph in
them.  All randomness is drawn from per-stream generators seeded by
``(profile.seed, crc32(stream name))`` at submission time, so a fuzzed run
is exactly reproducible from its seed regardless of how the worker threads
interleave.

The decorator also feeds the :class:`repro.verify.invariants
.InvariantMonitor`: every operation that carries an ``item`` (as every
:class:`~repro.exec.PencilPipeline` stage does) reports begin/end, which is
what lets ring-reuse and in-flight-window invariants be asserted *during*
the fuzzed run rather than post hoc.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from repro.exec.api import Event, ExecBackend, Stream
from repro.obs import NULL_OBS

__all__ = [
    "FuzzBackend",
    "FuzzProfile",
    "FuzzStream",
    "PROFILES",
    "fuzz_profile",
]


@dataclass(frozen=True)
class FuzzProfile:
    """One seeded perturbation plan (see :data:`PROFILES` for the stock set).

    ``delay_max``/``delay_prob`` shape the per-op sleeps;
    ``comm_drop_rate``/``comm_late_rate`` parameterize the fault-capable
    comm shim (:class:`repro.verify.faults.CommFaultPlan`) built for runs
    under this profile.

    ``imbalance_skew`` > 1.0 turns on per-rank load imbalance: the seeded
    slow ranks (``imbalance_ranks``, or one seeded victim when None) run
    every op in ``imbalance_categories`` ``imbalance_skew`` x slower (the
    op's own measured duration is stretched multiplicatively).  The plan
    itself lives in :class:`repro.verify.imbalance.ImbalancePlan`; the
    backend materializes it once the rank count is known (see
    :meth:`FuzzBackend.configure_imbalance`).
    """

    name: str = "inert"
    seed: int = 0
    delay_max: float = 0.0
    delay_prob: float = 0.0
    comm_drop_rate: float = 0.0
    comm_late_rate: float = 0.0
    imbalance_skew: float = 1.0
    imbalance_categories: tuple[str, ...] = ("fft",)
    imbalance_ranks: Optional[tuple[int, ...]] = None

    def rng_for(self, stream_name: str) -> np.random.Generator:
        """Deterministic per-stream generator: independent of thread timing."""
        return np.random.default_rng(
            [self.seed, zlib.crc32(stream_name.encode("utf-8"))]
        )


#: Stock delay/comm-fault/imbalance profiles.
#: ``fuzz_profile(name, seed)`` rebinds one to a concrete seed.
PROFILES: dict[str, FuzzProfile] = {
    "calm": FuzzProfile(name="calm", delay_prob=0.4, delay_max=2e-4),
    "jittery": FuzzProfile(name="jittery", delay_prob=0.9, delay_max=1e-3),
    "stormy": FuzzProfile(name="stormy", delay_prob=1.0, delay_max=2e-3),
    "flaky-net": FuzzProfile(
        name="flaky-net",
        delay_prob=0.3,
        delay_max=5e-4,
        comm_drop_rate=0.10,
        comm_late_rate=0.15,
    ),
    "chaos": FuzzProfile(
        name="chaos",
        delay_prob=0.7,
        delay_max=1e-3,
        comm_drop_rate=0.05,
        comm_late_rate=0.08,
    ),
    # Load-imbalance profiles: one seeded slow rank per run, skewing a
    # different stage category each — the regimes the DLB lend/reclaim
    # schedule (repro.exec.dlb) is meant to absorb.
    "imbalance_compute": FuzzProfile(
        name="imbalance_compute",
        imbalance_skew=2.0,
        imbalance_categories=("fft",),
    ),
    "imbalance_copy": FuzzProfile(
        name="imbalance_copy",
        imbalance_skew=1.75,
        imbalance_categories=("h2d", "d2h"),
    ),
    "imbalance_comm": FuzzProfile(
        name="imbalance_comm",
        imbalance_skew=1.5,
        imbalance_categories=("mpi",),
    ),
}


def fuzz_profile(name: str, seed: int) -> FuzzProfile:
    """A stock profile rebound to ``seed`` (raises KeyError on bad name)."""
    return replace(PROFILES[name], seed=seed)


class FuzzStream(Stream):
    """Decorates one inner stream with the profile's perturbations."""

    def __init__(self, backend: "FuzzBackend", inner: Stream):
        self._backend = backend
        self._inner = inner
        self._rng = backend.profile.rng_for(inner.name)
        self.name = inner.name
        self.lane = inner.lane

    def __getattr__(self, item):
        # Transparent passthrough (e.g. ``_spans`` used by instrumented
        # schedulers to nest spans on the stream's tracer).
        return getattr(self._inner, item)

    # -- perturbation plan (drawn at submit time, deterministic per stream) --

    def _draw_delays(self) -> tuple[float, float]:
        p = self._backend.profile
        if p.delay_max <= 0.0 or p.delay_prob <= 0.0:
            return 0.0, 0.0
        pre = post = 0.0
        if self._rng.random() < p.delay_prob:
            pre = float(self._rng.uniform(0.0, p.delay_max))
        if self._rng.random() < p.delay_prob:
            post = float(self._rng.uniform(0.0, p.delay_max))
        return pre, post

    def _wrap(
        self,
        name: str,
        category: str,
        fn: Callable[[], object],
        meta: dict,
    ) -> Callable[[], object]:
        backend = self._backend
        monitor = backend.monitor
        pre, post = self._draw_delays()
        stream_name = self.name
        item = meta.get("item")

        plan = backend.imbalance
        imb = 1.0
        if plan is not None and plan.applies(category):
            if category == "mpi":
                # A collective is as slow as its slowest participant.
                imb = plan.max_factor
            elif item is not None:
                imb = plan.factor(int(item) % plan.ranks)
        if imb > 1.0:
            inner_fn, slowdown = fn, imb - 1.0

            def fn():  # noqa: F811 - deliberate rebind of the wrapped op
                t0 = time.perf_counter()
                result = inner_fn()
                extra = (time.perf_counter() - t0) * slowdown
                if extra > 0.0:
                    backend._note_imbalance(extra)
                    time.sleep(extra)
                return result

        def fuzzed():
            if pre > 0.0:
                backend._note_delay(pre)
                time.sleep(pre)
            watched = monitor is not None and item is not None
            if watched:
                monitor.on_op_begin(stream_name, name, item)
            try:
                return fn()
            finally:
                if watched:
                    monitor.on_op_end(stream_name, name, item)
                if post > 0.0:
                    backend._note_delay(post)
                    time.sleep(post)

        return fuzzed

    # -- Stream interface ----------------------------------------------------

    def submit(
        self,
        name: str,
        category: str,
        fn: Optional[Callable[[], object]] = None,
        **meta: object,
    ) -> Event:
        wrapped = self._wrap(name, category, fn, meta) if fn is not None else None
        return self._inner.submit(name, category, wrapped, **meta)

    def wait_event(self, event: Event) -> None:
        self._inner.wait_event(event)

    def synchronize(self) -> None:
        self._inner.synchronize()


class FuzzBackend(ExecBackend):
    """An :class:`ExecBackend` decorator applying a :class:`FuzzProfile`.

    ``stats`` tallies what was actually applied (``delay_seconds`` /
    ``imbalance_seconds``), and the same tallies feed the
    ``verify.delay.seconds`` / ``verify.imbalance.seconds`` metrics
    counters when ``obs`` is enabled — the proof that fuzzed runs really
    were perturbed.
    """

    def __init__(
        self,
        inner: ExecBackend,
        profile: Optional[FuzzProfile] = None,
        obs=None,
        monitor=None,
    ):
        self.inner = inner
        self.profile = profile if profile is not None else FuzzProfile()
        self.obs = obs if obs is not None else NULL_OBS
        self.monitor = monitor
        #: Optional :class:`repro.verify.imbalance.ImbalancePlan`; set by
        #: :meth:`configure_imbalance` once the engine knows its rank count.
        self.imbalance = None
        self._streams: dict[str, FuzzStream] = {}
        self._lock = threading.Lock()
        self.stats = {"delay_seconds": 0.0, "imbalance_seconds": 0.0}
        # Instruments pre-created here: workers only mutate existing ones.
        if self.obs.enabled:
            m = self.obs.metrics
            self._delay_counter = m.counter("verify.delay.seconds")
            self._imbalance_counter = m.counter("verify.imbalance.seconds")
        else:
            self._delay_counter = None
            self._imbalance_counter = None

    @property
    def kind(self) -> str:
        return self.inner.kind

    # -- bookkeeping ---------------------------------------------------------

    def _note_delay(self, seconds: float) -> None:
        with self._lock:
            self.stats["delay_seconds"] += seconds
        if self._delay_counter is not None:
            self._delay_counter.inc(seconds)

    def _note_imbalance(self, seconds: float) -> None:
        with self._lock:
            self.stats["imbalance_seconds"] += seconds
        if self._imbalance_counter is not None:
            self._imbalance_counter.inc(seconds)

    def configure_imbalance(self, ranks: int) -> None:
        """Materialize the profile's imbalance plan for ``ranks`` lanes.

        Called by engines (e.g. the out-of-core FFT) once the virtual rank
        count is known.  No-op for profiles without imbalance; idempotent
        for a fixed rank count.
        """
        from repro.verify.imbalance import ImbalancePlan

        self.imbalance = ImbalancePlan.from_profile(self.profile, ranks)

    # -- ExecBackend interface ----------------------------------------------

    def stream(self, name: str) -> FuzzStream:
        if name not in self._streams:
            self._streams[name] = FuzzStream(self, self.inner.stream(name))
        return self._streams[name]

    def synchronize(self) -> None:
        self.inner.synchronize()

    def drain_obs(self) -> None:
        self.inner.drain_obs()

    def reset(self) -> None:
        self.inner.reset()
        # Inner streams may have been replaced; re-wrap lazily on next use.
        self._streams.clear()

    def shutdown(self) -> None:
        self.inner.shutdown()
        self._streams.clear()
