"""FuzzBackend: adversarial timing and fault injection for exec backends.

The Fig. 4 pipeline's correctness claim is that its CUDA-event edges are
*sufficient*: any interleaving the event graph permits must produce the same
bytes.  The ThreadBackend only ever samples the interleavings the host
scheduler happens to produce — this module widens that sample adversarially.
:class:`FuzzBackend` decorates any real execution backend
(:class:`~repro.exec.SyncBackend` / :class:`~repro.exec.ThreadBackend`) and,
at every stream-op boundary, injects from a seeded plan:

* **delays** — per-op pre/post ``time.sleep`` drawn from the profile, which
  stretches and shears the schedule so slow-H2D / slow-comm / slow-compute
  timings are all exercised;
* **reordered dispatch** — submissions are held in a bounded buffer and
  released to the inner backend in a seeded shuffle that preserves each
  stream's FIFO order (cross-stream submission order is *not* part of the
  contract: only events are), so the inner workers see different dispatch
  races;
* **transient faults** — operations fail with :class:`TransientFault`
  *before* running (no partial effects), then are retried with backoff up
  to the profile's budget; a budget-exhausted fault propagates and must
  poison the pipeline cleanly.

All randomness is drawn from per-stream generators seeded by
``(profile.seed, crc32(stream name))`` at submission time, so a fuzzed run
is exactly reproducible from its seed regardless of how the worker threads
interleave.  Faults fire before the wrapped ``fn`` executes, which is what
makes retries safe for non-idempotent operations (in-place FFTs).

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
    "FuzzEvent",
    "FuzzProfile",
    "FuzzStream",
    "PROFILES",
    "TransientFault",
    "fuzz_profile",
]


class TransientFault(RuntimeError):
    """An injected, retryable stream-op failure (raised before the op ran)."""


@dataclass(frozen=True)
class FuzzProfile:
    """One seeded perturbation plan (see :data:`PROFILES` for the stock set).

    ``delay_max``/``delay_prob`` shape the per-op sleeps; ``fault_rate`` and
    ``fault_categories`` decide which span categories can fail transiently
    (at most ``max_consecutive_faults`` times per op — kept <= ``retries``
    so injected faults always recover unless a test raises the rate);
    ``reorder_window`` > 1 enables the hold-and-shuffle dispatch buffer;
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
    fault_rate: float = 0.0
    fault_categories: tuple[str, ...] = ("h2d", "d2h")
    max_consecutive_faults: int = 2
    retries: int = 3
    backoff: float = 0.001
    reorder_window: int = 1
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


#: Stock delay/fault profiles (>= 5, per the verification acceptance bar).
#: ``fuzz_profile(name, seed)`` rebinds one to a concrete seed.
PROFILES: dict[str, FuzzProfile] = {
    "calm": FuzzProfile(name="calm", delay_prob=0.4, delay_max=2e-4),
    "jittery": FuzzProfile(name="jittery", delay_prob=0.9, delay_max=1e-3),
    "stormy": FuzzProfile(name="stormy", delay_prob=1.0, delay_max=2e-3),
    "faulty": FuzzProfile(
        name="faulty",
        delay_prob=0.3,
        delay_max=5e-4,
        fault_rate=0.08,
        fault_categories=("h2d", "d2h"),
    ),
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
        fault_rate=0.05,
        fault_categories=("h2d", "d2h", "fft"),
        reorder_window=4,
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


class FuzzEvent(Event):
    """Proxy for an op whose submission is held in the reorder buffer.

    Binds to the inner backend's event when the buffered submission is
    flushed; waiting blocks until then.  Flushes are driven from the
    submitting thread (buffer full, a same-stream ``wait_event``, or
    ``synchronize``), so a bound event is always eventually reached.
    """

    __slots__ = ("_inner", "_bound", "name")

    def __init__(self, name: str):
        self._inner: Optional[Event] = None
        self._bound = threading.Event()
        self.name = name

    def _bind(self, inner: Event) -> None:
        self._inner = inner
        self._bound.set()

    @property
    def done(self) -> bool:
        return self._bound.is_set() and self._inner.done

    @property
    def exception(self) -> Optional[BaseException]:
        if not self._bound.is_set():
            return None
        return self._inner.exception

    def wait(self, timeout: Optional[float] = None) -> None:
        if not self._bound.wait(timeout):
            raise TimeoutError(
                f"held op {self.name!r} was never dispatched within {timeout}s"
            )
        self._inner.wait(timeout)


class _HeldOp:
    __slots__ = ("name", "category", "fn", "meta", "proxy")

    def __init__(self, name, category, fn, meta, proxy):
        self.name = name
        self.category = category
        self.fn = fn
        self.meta = meta
        self.proxy = proxy


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

    def _draw_faults(self, category: str) -> int:
        p = self._backend.profile
        if p.fault_rate <= 0.0 or category not in p.fault_categories:
            return 0
        if self._rng.random() >= p.fault_rate:
            return 0
        return 1 + int(self._rng.integers(0, p.max_consecutive_faults))

    def _wrap(
        self,
        name: str,
        category: str,
        fn: Callable[[], object],
        meta: dict,
    ) -> Callable[[], object]:
        backend = self._backend
        profile = backend.profile
        monitor = backend.monitor
        pre, post = self._draw_delays()
        nfaults = self._draw_faults(category)
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
            # Injected faults fire *before* fn: a retry re-runs nothing.
            for attempt in range(nfaults):
                backend._count("injected")
                if attempt >= profile.retries:
                    raise TransientFault(
                        f"injected {category} fault on {name!r} "
                        f"(stream {stream_name!r}): retry budget "
                        f"({profile.retries}) exhausted"
                    )
                backend._count("retried")
                time.sleep(profile.backoff * (attempt + 1))
            if nfaults:
                # Every fault this op took is now recovered, so a run whose
                # budget held ends with injected == recovered.
                backend._count("recovered", nfaults)
            if monitor is not None and item is not None:
                monitor.on_op_begin(stream_name, name, item)
                try:
                    return fn()
                finally:
                    monitor.on_op_end(stream_name, name, item)
                    if post > 0.0:
                        backend._note_delay(post)
                        time.sleep(post)
            try:
                return fn()
            finally:
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
        if self._backend._reorder_active:
            proxy = FuzzEvent(name)
            self._backend._hold(self, _HeldOp(name, category, wrapped, meta, proxy))
            return proxy
        return self._inner.submit(name, category, wrapped, **meta)

    def wait_event(self, event: Event) -> None:
        if self._backend._reorder_active:
            # Flush this stream's held ops first so the wait lands *after*
            # them in the inner FIFO — per-stream order is part of the
            # contract; only cross-stream dispatch order may be shuffled.
            self._backend._flush_stream(self)
        if isinstance(event, FuzzEvent) and event._bound.is_set():
            event = event._inner
        self._inner.wait_event(event)

    def synchronize(self) -> None:
        if self._backend._reorder_active:
            self._backend._flush_all()
        self._inner.synchronize()


class FuzzBackend(ExecBackend):
    """An :class:`ExecBackend` decorator applying a :class:`FuzzProfile`.

    ``stats`` tallies what was actually injected (``injected`` /
    ``retried`` / ``recovered`` / ``delay_seconds``), and the same tallies
    feed ``verify.faults.*`` metrics counters when ``obs`` is enabled — the
    acceptance proof that fuzzed runs really were perturbed.
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
        self._held: list[tuple[FuzzStream, _HeldOp]] = []
        self._shuffle_rng = np.random.default_rng(
            [self.profile.seed, 0x5EED]
        )
        # Holding submissions requires deferred execution; the sync backend
        # executes inline at submit, so reordering only applies to threads.
        self._reorder_active = (
            self.profile.reorder_window > 1 and inner.kind == "threads"
        )
        self.stats = {
            "injected": 0,
            "retried": 0,
            "recovered": 0,
            "delay_seconds": 0.0,
            "imbalance_seconds": 0.0,
            "reordered": 0,
        }
        # Instruments pre-created here: workers only mutate existing ones.
        if self.obs.enabled:
            m = self.obs.metrics
            self._counters = {
                "injected": m.counter("verify.faults.injected"),
                "retried": m.counter("verify.faults.retried"),
                "recovered": m.counter("verify.faults.recovered"),
                "reordered": m.counter("verify.dispatch.reordered"),
            }
            self._delay_counter = m.counter("verify.delay.seconds")
            self._imbalance_counter = m.counter("verify.imbalance.seconds")
        else:
            self._counters = None
            self._delay_counter = None
            self._imbalance_counter = None

    @property
    def kind(self) -> str:
        return self.inner.kind

    # -- bookkeeping ---------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.stats[key] += amount
        if self._counters is not None and key in self._counters:
            self._counters[key].inc(amount)

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

    # -- reorder buffer ------------------------------------------------------

    def _hold(self, stream: FuzzStream, op: _HeldOp) -> None:
        with self._lock:
            self._held.append((stream, op))
            full = len(self._held) >= self.profile.reorder_window
        if full:
            self._flush_all()

    def _dispatch(self, stream: FuzzStream, op: _HeldOp) -> None:
        inner_event = stream._inner.submit(
            op.name, op.category, op.fn, **op.meta
        )
        op.proxy._bind(inner_event)

    def _flush_stream(self, stream: FuzzStream) -> None:
        """Release ``stream``'s held ops (in FIFO order), keep the rest."""
        with self._lock:
            mine = [op for s, op in self._held if s is stream]
            self._held = [(s, op) for s, op in self._held if s is not stream]
        for op in mine:
            self._dispatch(stream, op)

    def _flush_all(self) -> None:
        """Release every held op in a seeded shuffle of the cross-stream
        interleaving; each stream's internal FIFO order is preserved."""
        with self._lock:
            held, self._held = self._held, []
        if not held:
            return
        queues: dict[int, list] = {}
        order: list[int] = []
        for s, op in held:
            queues.setdefault(id(s), []).append((s, op))
            order.append(id(s))
        shuffled = list(order)
        self._shuffle_rng.shuffle(shuffled)
        if shuffled != order:
            self._count("reordered")
        for sid in shuffled:
            s, op = queues[sid].pop(0)
            self._dispatch(s, op)

    # -- ExecBackend interface ----------------------------------------------

    def stream(self, name: str) -> FuzzStream:
        if name not in self._streams:
            self._streams[name] = FuzzStream(self, self.inner.stream(name))
        return self._streams[name]

    def synchronize(self) -> None:
        if self._reorder_active:
            self._flush_all()
        self.inner.synchronize()

    def drain_obs(self) -> None:
        self.inner.drain_obs()

    def reset(self) -> None:
        with self._lock:
            held, self._held = self._held, []
        for _, op in held:  # never-dispatched proxies must still fire
            op.proxy._bind(_FAILED_EVENT)
        self.inner.reset()
        # Inner streams may have been replaced; re-wrap lazily on next use.
        self._streams.clear()

    def shutdown(self) -> None:
        if self._reorder_active:
            self._flush_all()
        self.inner.shutdown()
        self._streams.clear()


class _DiscardedEvent(Event):
    """Completion marker for ops discarded by a reset (never dispatched)."""

    __slots__ = ()

    @property
    def done(self) -> bool:
        return True

    @property
    def exception(self) -> Optional[BaseException]:
        return None

    def wait(self, timeout: Optional[float] = None) -> None:
        return None


_FAILED_EVENT = _DiscardedEvent()
