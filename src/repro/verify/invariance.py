"""Engine invariance as one generated property (paper Sec. 3.4).

The paper's correctness argument for Fig. 4 is that asynchrony, pencil
count and placement reorder *execution*, never *data*.  Every
:class:`~repro.serve.spec.JobSpec` row declares which kind it is
(``answer`` in its table row):

* ``never`` — the engine rows (``comm``, ``npencils``, ``pipeline``,
  ``inflight``, ``copy_strategy``, ``heights``/``skew``, ``dlb``,
  ``fuzz_*``): the state stays bit-identical;
* ``roundoff`` — ``ranks`` (serial vs distributed) and ``fft_backend``:
  the state agrees within :data:`STATE_ATOL`;
* ``physics`` — the problem itself, never varied within a pair.

:func:`draw_pair` maps a seed to one physics point and two engine
configurations of it, each a spec kept only if :meth:`JobSpec.validate`
passes, so the cross-field rules come from the doors' one table.
:func:`run_pair` opens both through the runner's construction path and
compares them under the bound the differing rows declare.  The
diagnostics (energy, dissipation, scalar variance) are per-rank partial
sums reduced by ``allreduce``, so their bits follow the partition: they
compare with ``==`` only when both sides share ``ranks`` and
``heights``/``skew`` and no ``roundoff`` row differs, else within
:data:`DIAG_RTOL`.

A pair's :meth:`EnginePair.describe` names the seed, the physics point
and both configurations; ``repro verify --seeds SEED`` replays it.  The
fuzz cases of ``repro verify`` are pairs too, of the spec its flags name
(side A fuzzed, side B sync); ``--seeds SEED --profiles NAME`` replays
one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from repro.serve.runner import _open
from repro.serve.spec import JobSpec, _choices
from repro.spectral import SolverConfig, SpectralGrid, random_isotropic_field

__all__ = ["DIAG_RTOL", "STATE_ATOL", "EnginePair", "PairOutcome",
           "draw_pair", "run_pair"]

#: The state's bound when a ``roundoff`` row differs (serial vs
#: distributed differ by <= 7e-18 at 24^3).
STATE_ATOL = 1e-13
#: The diagnostics' relative bound across partitions or roundoff rows.
DIAG_RTOL = 1e-13

_GRIDS = (8, 12, 16, 24)
_ANSWER = {f.name: f.metadata["answer"] for f in fields(JobSpec)}
#: The rows a pair may differ in, and so what a configuration prints.
_ENGINE_ROWS = tuple(name for name, answer in _ANSWER.items()
                    if answer in ("never", "roundoff"))


@dataclass(frozen=True)
class EnginePair:
    """One physics point (in both specs, plus the two solver options a
    spec cannot name) and two engine configurations of it."""

    seed: int
    phase_shift: bool
    scalars: int
    a: JobSpec
    b: JobSpec

    def differs(self) -> dict:
        """``{row: answer class}`` of every row the two specs differ in."""
        return {name: _ANSWER[name] for name in _ANSWER
                if getattr(self.a, name) != getattr(self.b, name)}

    def describe(self) -> str:
        a = self.a
        return (f"seed={self.seed} n={a.n} {a.scheme} "
                f"shift={'on' if self.phase_shift else 'off'} "
                f"S={self.scalars}: A[{_engine(a)}] vs B[{_engine(self.b)}]")


def _engine(spec: JobSpec) -> str:
    if spec.ranks is None:
        return f"serial fft_backend={spec.fft_backend}"
    words = []
    for name in _ENGINE_ROWS:
        value = getattr(spec, name)
        if name == "fuzz_profile" and spec.fuzz_seed is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(map(str, value))
        if value is not None:
            words.append(f"{name}={value}")
    return " ".join(words)


def _vocab(row: str) -> tuple:
    return _choices(JobSpec.__dataclass_fields__[row].metadata)


def _pick(rng, values):
    """One of ``values``, or of the vocabulary of the row so named."""
    if isinstance(values, str):
        values = _vocab(values)
    return values[int(rng.integers(len(values)))]


def _partition(rng, n: int, ranks: int) -> dict:
    """Even (where ``ranks`` divides ``n``), uneven, with a height-0 rank,
    or skewed."""
    kinds = ("even",) * (n % ranks == 0) + ("uneven", "zero", "skew")
    kind = "even" if ranks == 1 else _pick(rng, kinds)
    if kind == "even":
        return {}
    if kind == "skew":
        return {"skew": _pick(rng, (1.5, 2.0, 3.0))}
    # Cut points of n into ranks parts; a zero-height rank empties one part.
    parts = ranks - (kind == "zero")
    cuts = sorted(rng.choice(np.arange(1, n), parts - 1, replace=False))
    heights = list(np.diff([0, *cuts, n]))
    if kind == "zero":
        heights.insert(int(rng.integers(ranks)), 0)
    return {"heights": tuple(int(h) for h in heights)}


#: Rows cycled through their vocabulary on the seed instead of drawn: the
#: point's ``scheme`` and ``fft_backend``, and side A's engine rows (its
#: ``fuzz_profile`` on even seeds only).  Row ``r`` of stride ``k`` takes
#: value ``seed // k % len(vocabulary)``, so any ``k * len(vocabulary)``
#: consecutive seeds draw every value; distinct strides keep the rows from
#: moving in step.
_STRATA = {"fuzz_profile": 2, "comm": 3, "pipeline": 5, "dlb": 7,
           "copy_strategy": 9, "scheme": 11, "fft_backend": 13}


def _stratum(row: str, seed: int):
    values = _vocab(row)
    return values[seed // _STRATA[row] % len(values)]


def _side(rng, point: JobSpec, partition: dict, **held) -> JobSpec:
    """One engine configuration of ``point``, redrawn until it validates;
    ``held`` rows keep their given values (a held ``fuzz_profile`` makes
    the side fuzz)."""
    while True:
        fuzz = "fuzz_profile" in held or rng.random() < 0.35
        spec = point.with_(**{
            "comm": _pick(rng, "comm"),
            # Unset half the time: the default, and over procs its own path.
            "npencils": None if rng.random() < 0.5 else _pick(
                rng, [d for d in (1, 2, 3, 4) if point.n % d == 0]),
            "pipeline": _pick(rng, "pipeline"),
            "inflight": int(rng.integers(1, 4)),
            "copy_strategy": _pick(rng, "copy_strategy"),
            "dlb": _pick(rng, "dlb") if rng.random() < 0.5 else "off",
            "fuzz_seed": int(rng.integers(1000)) if fuzz else None,
            "fuzz_profile": _pick(rng, "fuzz_profile") if fuzz else "calm",
            **partition, **held,
        })
        try:
            return spec.validate()
        except ValueError:
            continue


def draw_pair(seed: int) -> EnginePair:
    """The seed's physics point and two engine configurations of it.

    The point's scheme and FFT backend and side A's comm, pipeline, copy
    strategy and DLB cycle on the seed (:data:`_STRATA`), and side A of an
    even seed is fuzzed, cycling through the profiles, so every window of
    40 seeds draws each of their values.  Side B redraws the engine on the
    same or another partition; about one pair in three gets a ``roundoff``
    partner instead, the serial solver or the other FFT backend.
    """
    rng = np.random.default_rng(seed)
    n, ranks = _pick(rng, _GRIDS), int(rng.integers(1, 5))
    point = JobSpec(n=n, steps=2, dt=2e-3, scheme=_stratum("scheme", seed),
                    ic="random", ic_seed=seed, ranks=ranks,
                    fft_backend=_stratum("fft_backend", seed))
    phase_shift, scalars = bool(rng.integers(2)), int(rng.integers(2))
    partition = _partition(rng, n, ranks)
    held = {row: _stratum(row, seed)
            for row in ("comm", "pipeline", "copy_strategy", "dlb")}
    if seed % 2 == 0:
        held["fuzz_profile"] = _stratum("fuzz_profile", seed)
    a = _side(rng, point, partition, **held)
    roll = rng.random()
    if roll < 0.15:
        b = point.with_(ranks=None)
    else:
        if rng.random() < 0.5:
            partition = _partition(rng, n, ranks)
        b = _side(rng, point, partition)
        if roll < 0.35:
            b = b.with_(fft_backend=_pick(rng, [
                x for x in _vocab("fft_backend") if x != a.fft_backend]))
    return EnginePair(seed, phase_shift, scalars, a, b)


@dataclass
class PairOutcome:
    """One pair's verdict and what its runs engaged."""

    pair: EnginePair
    ok: bool = False
    error: Optional[str] = None
    comm_faults: int = 0
    invariant_checks: int = 0
    pencils_lent: int = 0
    pencils_reclaimed: int = 0
    imbalance_seconds: float = 0.0
    wall_seconds: float = 0.0
    flight_dump: Optional[str] = None

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.error})"
        engaged = (f" comm-faults={self.comm_faults} "
                   f"checks={self.invariant_checks} "
                   f"lent={self.pencils_lent} "
                   f"reclaimed={self.pencils_reclaimed}")
        if self.imbalance_seconds > 0.0:
            engaged += f" imb={self.imbalance_seconds:.3f}s"
        return (f"pair {self.pair.describe()} {status}{engaged} "
                f"{self.wall_seconds:.2f}s")


def run_pair(pair: EnginePair, obs=None, reference=None) -> PairOutcome:
    """Run both sides and compare them; a failure is reported, not raised.

    ``obs`` instruments side A's run.  ``reference`` is side B's result
    from an earlier :func:`_run`, for callers that compare many A sides
    with one B (``repro verify``'s fuzz matrix); B is then not rerun.
    """
    outcome = PairOutcome(pair)
    start = time.perf_counter()
    try:
        a = _run(pair, pair.a, outcome, obs)
        b = reference if reference is not None else _run(pair, pair.b,
                                                         outcome)
        _compare(pair, a, b)
        outcome.ok = True
    except Exception as exc:  # noqa: BLE001 - reported with the seed
        outcome.error = f"{type(exc).__name__}: {exc}"
    outcome.wall_seconds = time.perf_counter() - start
    return outcome


def _run(pair: EnginePair, spec: JobSpec, outcome: PairOutcome, obs=None):
    """One side's fields (state, scalars) and ``allreduce``d sums."""
    grid = SpectralGrid(spec.n)
    u0, theta0 = (random_isotropic_field(
        grid, np.random.default_rng(spec.ic_seed + k), energy=1.0)
        for k in (0, 1))
    config = SolverConfig(nu=spec.nu, scheme=spec.scheme,
                          fft_backend=spec.fft_backend,
                          diagnostics_every=spec.diagnostics_every,
                          phase_shift=pair.phase_shift)
    with _open(spec, grid, u0, config, obs) as opened:
        solver, scalars = opened.solver, range(pair.scalars)
        for _ in scalars:
            solver.add_scalar(theta0[0], schmidt=0.7, mean_gradient=0.5)
        try:
            result = opened.run()
        finally:  # a failed run still reports what it engaged
            _tally(opened, outcome)
        fft = getattr(solver, "fft", None)
        arena = getattr(fft, "arena", None)
        if arena is not None and arena.in_use != fft.rings.nbytes:
            raise AssertionError(f"arena holds {arena.in_use} B beside "
                                 f"its {fft.rings.nbytes} B ring")
        fields_ = {"state": solver.u_hat if spec.ranks is None
                   else solver.gather_state()}
        fields_.update({f"scalar {s}": solver.gather_scalar(s)
                        for s in scalars})
        sums = {"energies": result.energies,
                "dissipations": result.dissipations,
                "variances": [solver.scalar_variance(s) for s in scalars]}
    if arena is not None and arena.in_use:
        raise AssertionError(f"arena holds {arena.in_use} B after close")
    return fields_, sums


def _tally(opened, outcome: PairOutcome) -> None:
    fft = getattr(opened.solver, "fft", None)
    stats = getattr(getattr(fft, "_backend", None), "stats", {})
    outcome.imbalance_seconds += stats.get("imbalance_seconds", 0.0)
    if opened.fault_plan is not None:
        outcome.comm_faults += opened.fault_plan.injected
    if opened.monitor is not None:
        outcome.invariant_checks += opened.monitor.checks
    policy = getattr(fft, "_dlb_policy", None)
    outcome.pencils_lent += getattr(policy, "pencils_lent", 0)
    outcome.pencils_reclaimed += getattr(policy, "pencils_reclaimed", 0)


def _compare(pair: EnginePair, a, b) -> None:
    classes = set(pair.differs().values())
    if "physics" in classes:
        raise ValueError(f"a pair may not differ in a physics row: "
                         f"{pair.differs()}")
    exact = "roundoff" not in classes
    same_sums = exact and all(getattr(pair.a, row) == getattr(pair.b, row)
                              for row in ("ranks", "heights", "skew"))
    for name, x in a[0].items():
        y = b[0][name]
        if not (np.array_equal(x, y) if exact
                else np.allclose(x, y, rtol=0.0, atol=STATE_ATOL)):
            raise AssertionError(
                f"{name} {'not bit-identical' if exact else 'beyond atol'} "
                f"(max |diff| = {float(np.max(np.abs(x - y))):.3e})")
    for name, x in a[1].items():
        y = b[1][name]
        if not (x == y if same_sums
                else np.allclose(x, y, rtol=DIAG_RTOL, atol=0.0)):
            raise AssertionError(f"{name} differ: {x} vs {y}")
