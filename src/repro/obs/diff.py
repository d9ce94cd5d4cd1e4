"""Thresholded perf comparator over metrics / bench JSON artifacts.

``repro obs diff BASELINE CURRENT`` answers one question with an exit
code: *did a measure move the wrong way by more than the baseline
tolerates?*  Two ``BENCH_*.json`` files sit at the repo root —
``BENCH_capacity.json`` and ``BENCH_imbalance.json`` — and each stays only
because a CI job (``plan``, ``imbalance``) regenerates it on every push and
runs this module against the committed copy; ``tests/test_collection.py``
fails for a ``BENCH_*.json`` no job gates.  It is equally usable locally
against any two artifacts.  (The solver's own speed is not gated here: that
is the repo benchmark, ``python3 -m bench.run`` + ``bench.compare``.)

Two input shapes are understood, auto-detected per file:

* **bench JSON** — what :func:`repro.obs.runs.write_bench_json` writes
  (``repro plan --sweep``, ``repro tune --json``,
  ``python -m repro.benchkit.imbalance``): a dict with a ``results`` record
  list (and optionally ``speedups``);
* **metrics JSONL** — the ``--metrics-out`` stream of ``repro dns`` /
  ``verify``: one :func:`repro.obs.metrics.metric_record` per line.

Every numeric measure is classified by *direction*: ``lower`` is better
for times and bytes, ``higher`` for rates and speedups, and measures with
no known direction are reported but never gate.  A comparison fails when a
directed measure moved the wrong way by more than ``tolerance`` (relative,
default 10%).  Identity for matching comes from the record's non-measure
fields (n, scheme, backend, ranks, labels, ...), so a baseline sweep and a
rerun pair up cell by cell; cells present on only one side are reported as
``missing`` and do not gate (sweeps legitimately grow).

Tolerances are per-artifact business: the capacity quotes and the
imbalance model rows are deterministic model outputs, so CI gates them at
2%, while the imbalance wall-clock rows get a generous second pass
(cross-machine noise is real).  The tier-1 suite asserts the sharp
contract — a synthetic 20% ``seconds_per_step`` regression must exit
non-zero at the default tolerance, and a file must pass against itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

__all__ = ["DiffResult", "DiffRow", "MEASURE_DIRECTIONS", "compare_artifacts",
           "diff_files", "load_artifact", "measure_direction"]

#: Known measure fields -> "lower" / "higher" (is better; None never
#: gates): the measure both gated files carry, and the names the substring
#: hints below would misread.
MEASURE_DIRECTIONS = {
    "seconds_per_step": "lower",
    "worker_cpu_seconds": None,
    "final_energy": None,
    # Sweep parameters that merely *look* like measures: sized in bytes but
    # chosen by the harness, so they are identity fields, never gates.
    "chunk_bytes": None,
    "total_bytes": None,
    "fullgrid_bytes": None,
}

#: Name-substring heuristics for metric records (checked in order).
_NAME_HINTS = (
    ("per_sec", "higher"),
    ("steps_per", "higher"),
    ("bandwidth", "higher"),
    ("speedup", "higher"),
    ("seconds", "lower"),
    ("bytes", "lower"),
    ("retries", None),
    ("faults", None),
)


def measure_direction(name: str) -> Optional[str]:
    """Direction for a measure/metric name; None = informational only."""
    if name in MEASURE_DIRECTIONS:
        return MEASURE_DIRECTIONS[name]
    for hint, direction in _NAME_HINTS:
        if hint in name:
            return direction
    return None


@dataclass
class DiffRow:
    """One compared measure cell."""

    key: str
    baseline: Optional[float]
    current: Optional[float]
    direction: Optional[str]
    status: str  # ok | regression | improved | info | missing
    rel_change: Optional[float] = None

    def describe(self) -> str:
        if self.status == "missing":
            side = "current" if self.current is None else "baseline"
            return f"{self.key}: missing in {side}"
        arrow = {"regression": "REGRESSION", "improved": "improved",
                 "ok": "ok", "info": "info"}[self.status]
        pct = (f"{100.0 * self.rel_change:+.1f}%"
               if self.rel_change is not None else "n/a")
        return (f"{self.key}: {self.baseline:.6g} -> {self.current:.6g} "
                f"({pct}) {arrow}")


@dataclass
class DiffResult:
    """Outcome of one baseline-vs-current comparison."""

    baseline: str
    current: str
    tolerance: float
    rows: list[DiffRow] = field(default_factory=list)

    @property
    def regressions(self) -> list[DiffRow]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def compared(self) -> int:
        return sum(1 for r in self.rows if r.status != "missing")

    @property
    def passed(self) -> bool:
        return self.compared > 0 and not self.regressions

    def render(self, verbose: bool = False) -> str:
        lines = [
            f"perf diff: {self.baseline} -> {self.current} "
            f"(tolerance {100.0 * self.tolerance:.0f}%)"
        ]
        shown = [
            r for r in self.rows
            if verbose or r.status in ("regression", "improved", "missing")
        ]
        for row in shown:
            lines.append("  " + row.describe())
        hidden = len(self.rows) - len(shown)
        if hidden:
            lines.append(f"  ({hidden} unchanged/info measure(s) hidden; "
                         f"--verbose shows all)")
        if self.compared == 0:
            lines.append("  verdict: FAIL (no comparable measures — wrong "
                         "file pair?)")
        elif self.regressions:
            lines.append(f"  verdict: FAIL ({len(self.regressions)} "
                         f"regression(s) in {self.compared} measure(s))")
        else:
            lines.append(f"  verdict: PASS ({self.compared} measure(s) "
                         f"within tolerance)")
        return "\n".join(lines)


# -- flattening artifacts to {measure_key: (value, direction)} -----------------


def _is_identity(name: str, value: object) -> bool:
    """Record fields that name the cell rather than measure it."""
    if measure_direction(name) is not None:
        return False
    return isinstance(value, (str, bool)) or (
        isinstance(value, int) and not isinstance(value, bool)
    )


def _flatten_bench(payload: dict) -> dict[str, tuple[float, Optional[str]]]:
    out: dict[str, tuple[float, Optional[str]]] = {}
    for rec in payload.get("results", ()):
        if not isinstance(rec, dict):
            continue
        ident = ",".join(
            f"{k}={rec[k]}" for k in sorted(rec)
            if _is_identity(k, rec[k])
        )
        for name, value in rec.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            if _is_identity(name, value):
                continue
            key = f"{ident}:{name}" if ident else name
            out[key] = (float(value), measure_direction(name))
    for key, value in (payload.get("speedups") or {}).items():
        if isinstance(value, (int, float)):
            out[f"speedup:{key}"] = (float(value), "higher")
    return out


def _flatten_metrics(records: Sequence[dict]) -> dict[str, tuple[float, Optional[str]]]:
    out: dict[str, tuple[float, Optional[str]]] = {}
    for rec in records:
        if not isinstance(rec, dict) or rec.get("kind") != "metric":
            continue
        name = str(rec.get("name"))
        labels = rec.get("labels") or {}
        ident = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        base = f"{name}{{{ident}}}" if ident else name
        direction = measure_direction(name)
        if rec.get("type") == "histogram":
            for stat in ("p50", "p95", "p99", "sum"):
                value = rec.get(stat)
                if isinstance(value, (int, float)) and math.isfinite(value):
                    out[f"{base}.{stat}"] = (float(value), direction)
        else:
            value = rec.get("value")
            if isinstance(value, (int, float)) and math.isfinite(value):
                out[base] = (float(value), direction)
    return out


def load_artifact(path: Union[str, Path]) -> dict[str, tuple[float, Optional[str]]]:
    """Load + flatten one artifact (bench JSON or metrics JSONL)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except ValueError:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        return _flatten_metrics(records)
    if isinstance(doc, dict):
        if "results" in doc or "speedups" in doc:
            return _flatten_bench(doc)
        if doc.get("kind") == "metric":
            return _flatten_metrics([doc])
    if isinstance(doc, list):
        return _flatten_metrics(doc)
    raise ValueError(f"{path}: unrecognized artifact shape")


# -- the comparison ------------------------------------------------------------


def compare_artifacts(
    baseline: dict[str, tuple[float, Optional[str]]],
    current: dict[str, tuple[float, Optional[str]]],
    tolerance: float = 0.10,
    only: Optional[Sequence[str]] = None,
    baseline_name: str = "baseline",
    current_name: str = "current",
) -> DiffResult:
    """Compare two flattened artifacts; see module doc for the rules.

    ``only`` restricts gating *and* reporting to keys containing any of the
    given substrings (e.g. ``["seconds_per_step"]``).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")

    def _selected(key: str) -> bool:
        return only is None or any(s in key for s in only)

    result = DiffResult(baseline=baseline_name, current=current_name,
                        tolerance=tolerance)
    for key in sorted(set(baseline) | set(current)):
        if not _selected(key):
            continue
        base = baseline.get(key)
        cur = current.get(key)
        if base is None or cur is None:
            result.rows.append(DiffRow(
                key=key,
                baseline=base[0] if base else None,
                current=cur[0] if cur else None,
                direction=(base or cur)[1],
                status="missing",
            ))
            continue
        base_v, direction = base
        cur_v = cur[0]
        rel = (cur_v - base_v) / abs(base_v) if base_v != 0 else (
            0.0 if cur_v == 0 else math.inf
        )
        if direction is None:
            status = "info"
        elif direction == "lower":
            status = ("regression" if rel > tolerance
                      else "improved" if rel < -tolerance else "ok")
        else:  # higher is better
            status = ("regression" if rel < -tolerance
                      else "improved" if rel > tolerance else "ok")
        result.rows.append(DiffRow(
            key=key, baseline=base_v, current=cur_v,
            direction=direction, status=status, rel_change=rel,
        ))
    return result


def diff_files(
    baseline: Union[str, Path],
    current: Union[str, Path],
    tolerance: float = 0.10,
    only: Optional[Sequence[str]] = None,
) -> DiffResult:
    """Load two artifact files and compare them (the CLI entry point)."""
    return compare_artifacts(
        load_artifact(baseline),
        load_artifact(current),
        tolerance=tolerance,
        only=only,
        baseline_name=str(baseline),
        current_name=str(current),
    )
