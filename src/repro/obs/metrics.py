"""Metrics registry: counters, gauges, histograms, and their exporters.

Complements :mod:`repro.obs.spans`: spans answer *where the time went inside
one run*; metrics answer *what the run did* — FFT calls, bytes through the
all-to-all, arena high-water marks, per-step wall seconds — in a form that
can be diffed across runs and machines.

Two export formats share one record schema (see :func:`metric_record`):

* **JSONL** — one JSON object per line; the CLI writes one ``step`` record
  per solver step plus one ``metric`` record per registered metric at the
  end of the run (:func:`write_jsonl`).
* **Prometheus text** — ``# TYPE`` headers plus ``name{label="v"} value``
  lines; histograms export count/sum and p50/p90/p95/p99 quantiles
  (:meth:`MetricsRegistry.to_prometheus_text`).

A registry constructed with ``enabled=False`` hands out shared null
instruments: ``counter()/gauge()/histogram()`` return singletons whose
mutators are no-ops, so the disabled path performs **zero allocations**
(asserted by the tier-1 tests).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_record",
    "write_jsonl",
]


def metric_record(
    name: str,
    kind: str,
    value: Optional[float] = None,
    labels: Optional[dict] = None,
    **extra: object,
) -> dict:
    """The shared metric-record schema used by every exporter.

    ``{"kind": "metric", "name": ..., "type": "counter"|"gauge"|"histogram",
    "value": ..., "labels": {...}, ...}`` — histogram records carry
    ``count/sum/min/max/p50/p90/p95/p99`` in place of ``value``.
    """
    rec: dict = {"kind": "metric", "name": name, "type": kind}
    if value is not None:
        rec["value"] = value
    rec["labels"] = dict(labels) if labels else {}
    rec.update(extra)
    return rec


class Counter:
    """Monotonically increasing count (resettable between runs)."""

    kind = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def to_record(self) -> dict:
        return metric_record(self.name, self.kind, self._value)


class Gauge:
    """Point-in-time value; ``set_max`` tracks high-water marks."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def set_max(self, value: float) -> None:
        if value > self._value:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def to_record(self) -> dict:
        return metric_record(self.name, self.kind, self._value)


class Histogram:
    """Stores every observation; exact percentiles at export time.

    Run lengths here are thousands of steps at most, so exact storage beats
    bucketing (no bucket-boundary tuning, exact p99).  ``percentile`` uses
    linear interpolation between order statistics (numpy's default).
    """

    kind = "histogram"
    __slots__ = ("name", "help", "_values")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: list[float] = []

    def observe(self, value: float) -> None:
        self._values.append(float(value))

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def sum(self) -> float:
        return math.fsum(self._values)

    @property
    def last(self) -> float:
        return self._values[-1] if self._values else math.nan

    def percentile(self, p: float) -> float:
        """p-th percentile (0 <= p <= 100) with linear interpolation."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        vals = sorted(self._values)
        if not vals:
            return math.nan
        rank = (len(vals) - 1) * p / 100.0
        lo = int(rank)
        hi = min(lo + 1, len(vals) - 1)
        frac = rank - lo
        return vals[lo] * (1.0 - frac) + vals[hi] * frac

    def reset(self) -> None:
        self._values.clear()

    def to_record(self) -> dict:
        if not self._values:
            return metric_record(self.name, self.kind, count=0, sum=0.0)
        return metric_record(
            self.name,
            self.kind,
            count=self.count,
            sum=self.sum,
            min=min(self._values),
            max=max(self._values),
            p50=self.percentile(50),
            p90=self.percentile(90),
            p95=self.percentile(95),
            p99=self.percentile(99),
        )


class _NullCounter:
    """Shared no-op counter for disabled registries."""

    kind = "counter"
    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def reset(self) -> None:
        pass


class _NullGauge:
    kind = "gauge"
    __slots__ = ()
    name = "null"
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass

    def reset(self) -> None:
        pass


class _NullHistogram:
    kind = "histogram"
    __slots__ = ()
    name = "null"
    count = 0
    sum = 0.0
    last = math.nan

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return math.nan

    def reset(self) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Named metric instruments, created on first use.

    ``counter/gauge/histogram`` are get-or-create: repeated calls with the
    same name return the same instrument (requesting an existing name as a
    different type raises).  A registry constructed ``enabled=False``
    returns shared null singletons instead — the zero-allocation off mode.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get(self, name: str, cls, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get(name, Histogram, help)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return list(self._metrics)

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    # -- exporters ----------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """One :func:`metric_record` per registered metric (name order)."""
        return [self._metrics[n].to_record() for n in sorted(self._metrics)]

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prom = _prom_name(name)
            if metric.help:
                lines.append(f"# HELP {prom} {metric.help}")
            if isinstance(metric, Histogram):
                lines.append(f"# TYPE {prom} summary")
                for q in (50, 90, 95, 99):
                    lines.append(
                        f'{prom}{{quantile="0.{q}"}} {_fmt(metric.percentile(q))}'
                    )
                lines.append(f"{prom}_sum {_fmt(metric.sum)}")
                lines.append(f"{prom}_count {metric.count}")
            else:
                lines.append(f"# TYPE {prom} {metric.kind}")
                lines.append(f"{prom} {_fmt(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write_prometheus(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.to_prometheus_text())
        return path


def _prom_name(name: str) -> str:
    """Dotted metric names to the ``[a-zA-Z_][a-zA-Z0-9_]*`` charset."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return out if not out[:1].isdigit() else f"_{out}"


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return repr(float(value))


def write_jsonl(records: Iterable[dict], path: Union[str, Path]) -> Path:
    """Write records one-JSON-object-per-line; returns the path."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")
    return path
