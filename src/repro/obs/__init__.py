"""Unified wall-clock observability for the real numeric path.

The simulated executor has always been traced (``repro.sim.trace``); this
package gives the *real* solver, the distributed transpose, and the
out-of-core pipeline the same treatment:

* :mod:`repro.obs.spans` — nested wall-clock span tracing recording
  :class:`repro.sim.trace.Activity` intervals, so measured runs export
  through the same Chrome-trace / ASCII-timeline tooling as simulations;
* :mod:`repro.obs.metrics` — counters, gauges, and histograms with JSONL
  and Prometheus exporters;
* :mod:`repro.obs.report` — the end-of-run per-phase breakdown table.

:class:`Observability` bundles one span tracer and one metrics registry —
the single handle instrumented code paths accept.  The module-level
:data:`NULL_OBS` is the shared disabled bundle: passing no ``obs`` costs a
single attribute check per instrumentation point (asserted < 2% step-time
overhead by the hot-path bench).
"""

from __future__ import annotations

from typing import Callable, Optional

import time

from repro.obs.events import EVENT_LEVELS, NULL_EVENTS, EventLog
from repro.obs.flight import (
    FlightRecorder,
    current_flight,
    dump_current_flight,
    install_excepthook,
    install_flight,
    uninstall_flight,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_record,
    write_jsonl,
)
from repro.obs.report import phase_breakdown, render_breakdown, render_percentiles
from repro.obs.spans import NULL_SPAN, SpanTracer

__all__ = [
    "Counter",
    "EVENT_LEVELS",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_EVENTS",
    "NULL_OBS",
    "NULL_SPAN",
    "Observability",
    "SpanTracer",
    "current_flight",
    "dump_current_flight",
    "install_excepthook",
    "install_flight",
    "metric_record",
    "phase_breakdown",
    "render_breakdown",
    "render_percentiles",
    "uninstall_flight",
    "write_jsonl",
]


class Observability:
    """One span tracer plus one metrics registry, enabled (or not) together.

    Instrumented constructors (:class:`repro.spectral.NavierStokesSolver`,
    :class:`repro.dist.DistributedNavierStokesSolver`,
    :class:`repro.cuda.arena.DeviceArena`, ...) take an optional
    ``obs``; ``None`` means the shared :data:`NULL_OBS` and turns every
    instrumentation point into a no-op.
    """

    __slots__ = ("spans", "metrics", "events", "flight", "enabled")

    def __init__(
        self,
        spans: Optional[SpanTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: "EventLog | None" = None,
        flight: Optional[FlightRecorder] = None,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self.spans = spans if spans is not None else SpanTracer(enabled=enabled)
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(enabled=enabled)
        )
        self.events = events if events is not None else NULL_EVENTS
        self.flight = flight
        if flight is not None:
            self.spans.attach_flight(flight)
            flight.watch_metrics(self.metrics)
            flight.watch_events(self.events)

    @classmethod
    def create(
        cls,
        clock: Callable[[], float] = time.perf_counter,
        lane: str = "main",
        events: "EventLog | None" = None,
        flight: Optional[FlightRecorder] = None,
    ) -> "Observability":
        """An enabled bundle with a fresh tracer on ``lane``.

        Pass ``flight=FlightRecorder(...)`` to keep a bounded post-mortem
        ring of the bundle's spans/events/metrics (see
        :mod:`repro.obs.flight`), and ``events=EventLog(...)`` for a
        structured narrative track alongside the spans.
        """
        return cls(
            spans=SpanTracer(clock=clock, lane=lane),
            events=events,
            flight=flight,
        )

    @staticmethod
    def disabled() -> "Observability":
        """The shared disabled bundle (do not mutate)."""
        return NULL_OBS


#: Shared disabled bundle; every un-instrumented call path routes here.
NULL_OBS = Observability(enabled=False)
