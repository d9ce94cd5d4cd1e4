"""Wall-clock span tracing for the real numeric path.

The paper's optimization story was read off profiler timelines: NVTX ranges
around every phase of the RK2 substep, rendered in NVIDIA's visual profiler
(Fig. 10).  :class:`SpanTracer` is the reproduction's equivalent for *real*
(measured, not simulated) runs: a nested context manager that records
wall-clock intervals as :class:`repro.sim.trace.Activity` objects, so the
existing ``trace_export`` / ``timeline`` tooling renders measured runs and
simulated runs identically.

Design points:

* **Injectable clock** — ``SpanTracer(clock=fake)`` makes tests
  deterministic; the default is :func:`time.perf_counter`.
* **Epoch rebasing** — the first span's start defines t=0, so exported
  traces start at the origin instead of at an arbitrary monotonic-clock
  value.  Tracers created via :meth:`SpanTracer.child` share the parent's
  epoch, keeping merged per-rank timelines coherent.
* **Exclusive time** — every finished span records both its wall duration
  and its *exclusive* time (duration minus directly nested spans), so a
  per-phase breakdown sums to the wall time of the outermost spans with no
  double counting (``meta["exclusive"]``).
* **Near-zero overhead when disabled** — ``span(...)`` on a disabled tracer
  returns a shared no-op context manager: no object allocation, no clock
  read, no string formatting.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.sim.trace import Activity, Tracer

__all__ = ["NULL_SPAN", "SpanTracer"]


class _NullSpan:
    """Shared do-nothing context manager returned by disabled tracers."""

    __slots__ = ()
    duration = 0.0
    exclusive = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself into the tracer on exit."""

    __slots__ = (
        "_tracer", "name", "category", "lane", "meta",
        "start", "duration", "exclusive", "child_time",
    )

    def __init__(self, tracer: "SpanTracer", name: str, category: str,
                 lane: str, meta: dict):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.lane = lane
        self.meta = meta
        self.child_time = 0.0
        self.duration = 0.0
        self.exclusive = 0.0

    def __enter__(self) -> "_Span":
        tr = self._tracer
        t = tr.clock()
        epoch = tr._epoch
        if epoch[0] is None:
            epoch[0] = t
        self.start = t - epoch[0]
        tr._stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        tr = self._tracer
        end = tr.clock() - tr._epoch[0]
        tr._stack.pop()
        self.duration = end - self.start
        self.exclusive = self.duration - self.child_time
        if tr._stack:
            tr._stack[-1].child_time += self.duration
        meta = self.meta
        meta["exclusive"] = self.exclusive
        meta["depth"] = len(tr._stack)
        tr.tracer.record(
            self.category, self.lane, self.name, self.start, end, **meta
        )
        fl = tr.flight
        if fl is not None:
            fl.record_span(self.lane, self.name, self.category, self.start, end)
        return False


class SpanTracer:
    """Collects nested wall-clock spans into a :class:`~repro.sim.trace.Tracer`.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds (monotonic preferred).
    lane:
        Default lane name for spans that don't override it (one timeline
        row per lane, same convention as the simulated tracer).
    enabled:
        When False, :meth:`span` returns a shared no-op context manager and
        nothing is ever recorded.

    Examples
    --------
    >>> times = iter([0.0, 1.0, 3.0, 4.0])
    >>> st = SpanTracer(clock=lambda: next(times))
    >>> with st.span("solver.step"):
    ...     with st.span("fft.fwd", grid=32):
    ...         pass
    >>> [a.name for a in st.activities]
    ['fft.fwd', 'solver.step']
    >>> st.activities[1].meta["exclusive"]  # 4s step minus 2s fft
    2.0
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        lane: str = "main",
        enabled: bool = True,
        _epoch: Optional[list] = None,
    ):
        self.clock = clock
        self.lane = lane
        self.enabled = enabled
        self.tracer = Tracer()
        self.tracer.enabled = enabled
        self._stack: list[_Span] = []
        #: Optional :class:`repro.obs.flight.FlightRecorder` fed one ring
        #: entry per finished span (attach via :meth:`attach_flight`).
        self.flight = None
        # Shared one-element holder so child tracers rebase to the same t=0.
        self._epoch: list[Optional[float]] = _epoch if _epoch is not None else [None]

    # -- recording ----------------------------------------------------------

    def span(self, name: str, category: Optional[str] = None,
             lane: Optional[str] = None, **meta: object):
        """Context manager timing one interval.

        ``category`` defaults to the name's dotted prefix (``"fft.fwd"`` →
        ``"fft"``); ``lane`` defaults to the tracer's lane.  Arbitrary
        keyword metadata rides along into the exported trace.
        """
        if not self.enabled:
            return NULL_SPAN
        if category is None:
            category = name.split(".", 1)[0]
        return _Span(self, name, category, lane or self.lane, meta)

    def record(self, name: str, category: str, start: float, end: float,
               lane: Optional[str] = None) -> None:
        """One interval timed elsewhere on this tracer's clock (a worker
        process's ``perf_counter`` — the same monotonic base on Linux)."""
        if not self.enabled:
            return
        self.ensure_epoch()
        t0, t1 = start - self._epoch[0], end - self._epoch[0]
        lane = lane or self.lane
        self.tracer.record(category, lane, name, t0, t1, exclusive=t1 - t0)
        if self.flight is not None:
            # Past _Span.__exit__, so the flight ring is fed here: a
            # post-mortem of a hung exchange needs the worker lanes too.
            self.flight.record_span(lane, name, category, t0, t1)

    def ensure_epoch(self) -> None:
        """Pin t=0 to *now* if no span has set it yet.

        Call from the main thread before handing child tracers to worker
        threads: the first-span epoch write is otherwise racy when several
        workers open their first span concurrently.
        """
        if self.enabled and self._epoch[0] is None:
            self._epoch[0] = self.clock()

    def child(self, lane: str) -> "SpanTracer":
        """A tracer sharing this one's clock, epoch, and enabled flag.

        Use one child per virtual rank (or stream) so their spans land on
        distinct lanes but a common time base, then :meth:`merge` them back.
        Children inherit the flight recorder, so a post-mortem ring sees
        per-rank / per-stream spans too.
        """
        child = SpanTracer(
            clock=self.clock, lane=lane, enabled=self.enabled, _epoch=self._epoch
        )
        if self.flight is not None:
            child.attach_flight(self.flight)
        return child

    def attach_flight(self, recorder) -> None:
        """Feed finished spans (and dump-time open spans) to ``recorder``."""
        self.flight = recorder
        recorder.watch_tracer(self)

    def merge(self, other: "SpanTracer | Tracer", lane_prefix: str = "") -> None:
        """Append another tracer's finished spans, optionally prefixing lanes."""
        src = other.tracer if isinstance(other, SpanTracer) else other
        self.tracer.merge(src, lane_prefix=lane_prefix)

    def clear(self) -> None:
        """Drop all finished spans (active spans are unaffected)."""
        self.tracer.activities.clear()

    # -- queries ------------------------------------------------------------

    @property
    def activities(self) -> list[Activity]:
        return self.tracer.activities

    @property
    def depth(self) -> int:
        """Nesting depth of the currently open spans."""
        return len(self._stack)

    def __len__(self) -> int:
        return len(self.tracer.activities)

    def to_tracer(self) -> Tracer:
        """The underlying activity tracer (shared, not a copy).

        Feed it to :func:`repro.core.trace_export.write_chrome_trace` with
        ``time_unit=1e6`` (the spans are already in seconds) or to
        :func:`repro.core.timeline.render_timeline`.
        """
        return self.tracer

    def breakdown(self) -> dict[str, float]:
        """Wall busy-time per category (union of intervals, overlap once)."""
        return self.tracer.busy_time_by_category()

    def exclusive_by_category(self) -> dict[str, float]:
        """Exclusive seconds per category; sums to outermost wall time.

        Unlike :meth:`breakdown`, nested spans don't double-count: a
        ``nonlinear`` span containing ``fft`` spans contributes only its
        own arithmetic here, which is what a per-phase table should show.
        """
        out: dict[str, float] = {}
        for act in self.tracer.activities:
            excl = act.meta.get("exclusive", act.duration)
            out[act.category] = out.get(act.category, 0.0) + excl
        return out

    def wall_time(self) -> float:
        """End-to-end wall span covered by the recorded activities."""
        t0, t1 = self.tracer.span()
        return t1 - t0
