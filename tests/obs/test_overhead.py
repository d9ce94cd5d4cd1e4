"""Disabled-path observability overhead: the <2% contract, measured.

The whole obs design rests on one promise: instrumentation left compiled
into the hot path costs nothing measurable when it is off.  Two claims are
checked against a real 64^3 RK2 step:

1. **NULL_OBS** — every instrumentation point on the disabled path is one
   attribute check plus a shared no-op (null span context, null counter
   ``inc``).  We count the actual instrumentation points one step executes
   (spans + metric mutations, from an enabled reference run), measure the
   per-call cost of the null primitives, and assert the projected per-step
   overhead is under 2% of the measured step time.

2. **Flight recorder off** — an *enabled* tracer with no recorder attached
   pays one ``is None`` check per finished span; with a recorder attached
   it pays one dict build + deque append.  Both, projected over the spans
   one step emits, must also stay under 2%.

Projection (count x per-primitive cost) rather than A/B step timing is
deliberate: the primitives cost tens of nanoseconds, so an A/B comparison
at laptop scale drowns in run-to-run noise, while the projection bounds
the overhead with a measurement that is itself stable.
"""

import time
import timeit

import numpy as np
import pytest

from repro.obs import NULL_OBS, FlightRecorder, Observability
from repro.spectral import (
    NavierStokesSolver,
    SolverConfig,
    SpectralGrid,
    random_isotropic_field,
)

N = 64
STEPS = 3
WARMUP = 1
BUDGET = 0.02  # the README's "<2% when disabled" contract


def _make_solver(obs=None):
    grid = SpectralGrid(N)
    rng = np.random.default_rng(0)
    return NavierStokesSolver(
        grid,
        random_isotropic_field(grid, rng, energy=1.0),
        SolverConfig(nu=0.02, scheme="rk2", diagnostics_every=0),
        obs=obs,
    )


def _seconds_per_step(solver) -> float:
    for _ in range(WARMUP):
        solver.step(1e-3)
    best = float("inf")
    for _ in range(STEPS):
        t0 = time.perf_counter()
        solver.step(1e-3)
        best = min(best, time.perf_counter() - t0)
    return best


def _instrumentation_counts():
    """(spans, metric mutations) one instrumented step performs."""
    obs = Observability.create()
    solver = _make_solver(obs=obs)
    solver.step(1e-3)
    before_spans = len(obs.spans)
    before_metrics = {
        name: getattr(obs.metrics.get(name), "count",
                      getattr(obs.metrics.get(name), "value", 0.0))
        for name in obs.metrics.names()
    }
    solver.step(1e-3)
    spans = len(obs.spans) - before_spans
    mutations = 0
    for name in obs.metrics.names():
        metric = obs.metrics.get(name)
        after = getattr(metric, "count", getattr(metric, "value", 0.0))
        delta = after - before_metrics.get(name, 0.0)
        # Counters can inc by >1; each inc is still ~one mutation.  Gauges
        # set once per delta observed.  Upper-bound with the delta itself
        # (>=1 mutation per changed metric).
        mutations += max(1, int(abs(delta))) if delta else 0
    return spans, mutations


@pytest.fixture(scope="module")
def step_profile():
    """(seconds per uninstrumented step, spans per step, metric ops per step)."""
    solver = _make_solver()  # obs=None -> shared NULL_OBS
    assert solver.obs is NULL_OBS
    return (_seconds_per_step(solver), *_instrumentation_counts())


def test_null_obs_projected_overhead_under_2_percent(step_profile):
    step_seconds, spans, mutations = step_profile
    assert spans > 0 and mutations > 0

    reps = 100_000
    null_span_cost = timeit.timeit(
        "s.span('solver.step')", globals={"s": NULL_OBS.spans}, number=reps
    ) / reps
    null_metric_cost = timeit.timeit(
        "m.counter('fft.calls').inc()", globals={"m": NULL_OBS.metrics},
        number=reps,
    ) / reps

    projected = spans * null_span_cost + mutations * null_metric_cost
    assert projected < BUDGET * step_seconds, (
        f"NULL_OBS path projects {projected * 1e6:.1f} us/step "
        f"({spans} spans x {null_span_cost * 1e9:.0f} ns + {mutations} "
        f"metric ops x {null_metric_cost * 1e9:.0f} ns) against a "
        f"{step_seconds * 1e3:.1f} ms step — over the "
        f"{100 * BUDGET:.0f}% budget"
    )


def test_flight_ring_projected_overhead_under_2_percent(step_profile):
    step_seconds, spans, _ = step_profile

    # Per-span cost with a recorder attached: one dict + bounded append.
    flight = FlightRecorder(capacity=512)
    reps = 100_000
    ring_cost = timeit.timeit(
        "f.record_span('main', 'fft.fwd', 'fft', 0.0, 1.0)",
        globals={"f": flight}, number=reps,
    ) / reps
    # Per-span cost with recording off: the `flight is None` check, bounded
    # by an attribute read on the tracer.
    tracer = Observability.create().spans
    off_cost = timeit.timeit(
        "t.flight is None", globals={"t": tracer}, number=reps
    ) / reps

    for label, per_span in (("ring append", ring_cost), ("off check", off_cost)):
        projected = spans * per_span
        assert projected < BUDGET * step_seconds, (
            f"flight {label} projects {projected * 1e6:.1f} us/step over a "
            f"{step_seconds * 1e3:.1f} ms step — over the "
            f"{100 * BUDGET:.0f}% budget"
        )
    assert len(flight.recent_spans()) == 512  # ring stayed bounded
