"""Hot-path measurement of the real solver, and the shared JSON writer.

Steps/second and steady-state allocation behaviour of
:class:`repro.spectral.NavierStokesSolver` across transform backends and
grid sizes.  The standing speed question is answered by the repo benchmark's
``serial_n96`` workload (``bench/``); this module stays for
:func:`benchmark_solver` (an allocation probe with a steps/sec reading) and
for :func:`write_json`, the provenance-stamping writer the other
``benchkit`` modules share.

The JSON emitted by :func:`write_json` has one record per (n, scheme,
backend) combination::

    {"n": 64, "scheme": "rk2", "backend": "numpy",
     "steps_per_sec": 12.9, "seconds_per_step": 0.077,
     "peak_alloc_bytes": 524288, "fullgrid_bytes": 2097152, ...}

``peak_alloc_bytes`` is the tracemalloc peak of *new* allocations during the
measured steps (after warmup), so a zero-allocation steady state shows up as
a peak far below ``fullgrid_bytes`` (the size of one N^3 scalar field).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs.metrics import metric_record, write_jsonl

__all__ = [
    "HotpathResult",
    "benchmark_solver",
    "run_suite",
    "to_metrics_records",
    "write_json",
    "write_metrics_jsonl",
]


@dataclass(frozen=True)
class HotpathResult:
    """One measured operating point of the solver hot path."""

    n: int
    scheme: str
    backend: str
    steps: int
    warmup: int
    steps_per_sec: float
    seconds_per_step: float
    peak_alloc_bytes: int
    fullgrid_bytes: int

    @property
    def allocates_full_grids(self) -> bool:
        """True if the measured steps allocated at least one N^3 field."""
        return self.peak_alloc_bytes >= self.fullgrid_bytes


def benchmark_solver(
    n: int,
    scheme: str = "rk2",
    backend: str = "numpy",
    steps: int = 5,
    warmup: int = 2,
    nu: float = 0.02,
    dt: float = 1e-3,
    phase_shift: bool = True,
    diagnostics_every: int = 0,
    seed: int = 0,
    trace_alloc: bool = True,
) -> HotpathResult:
    """Time ``steps`` solver steps after ``warmup`` and record allocations.

    Diagnostics are off by default so the measurement isolates the RHS +
    time-advance pipeline; pass ``diagnostics_every=1`` to measure the
    user-facing default instead.
    """
    from repro.spectral import (
        NavierStokesSolver,
        SolverConfig,
        SpectralGrid,
        random_isotropic_field,
    )

    grid = SpectralGrid(n)
    rng = np.random.default_rng(seed)
    solver = NavierStokesSolver(
        grid,
        random_isotropic_field(grid, rng, energy=1.0),
        SolverConfig(
            nu=nu,
            scheme=scheme,
            phase_shift=phase_shift,
            fft_backend=backend,
            diagnostics_every=diagnostics_every,
        ),
    )
    for _ in range(warmup):
        solver.step(dt)

    peak = 0
    if trace_alloc:
        tracemalloc.start()
        tracemalloc.reset_peak()
    t0 = time.perf_counter()
    for _ in range(steps):
        solver.step(dt)
    elapsed = time.perf_counter() - t0
    if trace_alloc:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    return HotpathResult(
        n=n,
        scheme=scheme,
        backend=backend,
        steps=steps,
        warmup=warmup,
        steps_per_sec=steps / elapsed,
        seconds_per_step=elapsed / steps,
        peak_alloc_bytes=int(peak),
        fullgrid_bytes=n**3 * np.dtype(np.float64).itemsize,
    )


def run_suite(
    grid_sizes: Sequence[int] = (32, 64),
    schemes: Sequence[str] = ("rk2", "rk4"),
    backends: Optional[Sequence[str]] = None,
    steps: int = 5,
    warmup: int = 2,
    trace_alloc: bool = True,
) -> dict:
    """Sweep grids/schemes/backends.

    Returns a JSON-serializable payload with a ``results`` record list.
    """
    from repro.spectral import available_backends

    if backends is None:
        backends = [b for b in available_backends() if b != "auto"]

    results = [
        benchmark_solver(
            n, scheme, backend=backend, steps=steps, warmup=warmup,
            trace_alloc=trace_alloc,
        )
        for n in grid_sizes
        for scheme in schemes
        for backend in backends
    ]
    payload = {
        "suite": "solver_hotpath",
        "grid_sizes": list(grid_sizes),
        "schemes": list(schemes),
        "backends": list(backends),
        "steps": steps,
        "warmup": warmup,
        "results": [asdict(r) for r in results],
    }
    payload["metrics"] = to_metrics_records(payload)
    return payload


def to_metrics_records(payload: dict) -> list[dict]:
    """Bench results as :func:`repro.obs.metrics.metric_record` dicts.

    One ``solver.step.seconds`` / ``solver.steps_per_sec`` /
    ``solver.peak_alloc_bytes`` gauge per measured operating point, labelled
    by (n, scheme, backend) — the same schema the ``repro dns``
    metrics JSONL uses, so bench artifacts and run logs share tooling.
    """
    records = []
    for r in payload["results"]:
        labels = {
            "n": r["n"],
            "scheme": r["scheme"],
            "backend": r["backend"],
        }
        records.append(
            metric_record("solver.step.seconds", "gauge",
                          r["seconds_per_step"], labels)
        )
        records.append(
            metric_record("solver.steps_per_sec", "gauge",
                          r["steps_per_sec"], labels)
        )
        records.append(
            metric_record("solver.peak_alloc_bytes", "gauge",
                          r["peak_alloc_bytes"], labels)
        )
    return records


def write_metrics_jsonl(payload: dict, path: str) -> str:
    """Write the suite's metric records as JSONL; returns ``path``."""
    records = payload.get("metrics") or to_metrics_records(payload)
    write_jsonl(records, path)
    return path


def write_json(payload: dict, path: str) -> str:
    """Write the suite payload as pretty-printed JSON; returns ``path``.

    Every ``BENCH_*.json`` writer routes through here, so each artifact is
    stamped with the shared :func:`repro.obs.runs.run_provenance` record
    (git sha, cores_available, timestamp) — a baseline with no provenance
    can't answer "which commit, on what machine?".  A caller-supplied
    ``provenance`` key wins.
    """
    if isinstance(payload, dict) and "provenance" not in payload:
        from repro.obs.runs import run_provenance

        payload = {**payload, "provenance": run_provenance()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
