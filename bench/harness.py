"""What every workload shares: environment rules, scratch space, the run
protocol (set-up several times, measure, tear down, then verify) and the
small statistics the metrics are built from.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def load_spec() -> dict:
    """``BENCHMARK.json``: the declaration the driver reads (command,
    workloads, metrics, bounds); the one place metric names and units live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind: str) -> dict[str, dict]:
    """``kind`` is ``"end_to_end"`` or ``"per_layer"``: name -> declaration."""
    return {m["name"]: m for m in load_spec()[kind]}


@functools.lru_cache(maxsize=None)
def bounds() -> dict[str, dict[str, float]]:
    """metric -> workload -> the share of the parent's median by which that
    metric may worsen on that workload before :mod:`bench.compare` calls it
    a regression (``bounds.json``).  ``BENCHMARK.json`` has room for one
    bound per metric, and the driver holds every workload's run-to-run
    spread to it, so that one is as wide as the noisiest workload needs."""
    path = ROOT / "bench" / "bounds.json"
    return json.loads(path.read_text(encoding="utf-8"))


#: Everything a run writes lands here, inside the checkout (the driver lets a
#: run read and write nowhere else): scratch directories, removed when their
#: run ends, and the result documents of set and self-check mode.
OUT_DIR = ROOT / ".bench_out"

#: Set-ups at each end of a run (before the window, and again after the
#: output checks, so that a slow spell covering one end does not decide
#: ``setup_s``): at least this many, and more (up to the cap) while they are
#: cheap, so there are repetitions to choose the fastest from.
SETUP_REPEATS_MIN = 2
SETUP_REPEATS_MAX = 8
SETUP_BUDGET_S = 1.25


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_REFUSED_VARS = ("REPRO_FFT_BACKEND", "REPRO_FFT_WORKERS")


class BenchRefused(SystemExit):
    """The environment cannot give a meaningful measurement."""

    def __init__(self, reason: str, code: int = 2):
        print(f"bench: refused: {reason}", file=sys.stderr)
        super().__init__(code)


def prepare_environment() -> None:
    """Pin native thread pools and make ``repro`` importable.

    Must run before NumPy is imported: BLAS/OpenMP pools read these
    variables once, at load time.
    """
    for var in _REFUSED_VARS:
        if os.environ.get(var):
            raise BenchRefused(
                f"{var} is set; the benchmark passes fft_backend='numpy' "
                "explicitly and must not be overridden from outside"
            )
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise BenchRefused(f"no program to measure: {src / 'repro'} is missing",
                           code=1)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def fastest(values) -> float:
    """The cost of a single-threaded operation that was repeated: its
    fastest repetition.

    The boxes this runs on switch between speed states tens of percent
    apart for seconds to minutes at a time; interference only ever adds
    time, so the minimum is the one statistic a slow phase cannot move as
    long as one repetition escaped it.  Medians are printed beside it.
    """
    values = list(values)
    return float(min(values)) if values else 0.0


def steady(values, concurrent: bool) -> float:
    """The cost of a repeated operation: :func:`fastest`, unless the
    operation itself spans threads or processes.  Then its fastest
    repetition is a scheduling accident (every part happened to run at
    once), the low tail is as noisy as the high one, and the median is the
    steady statistic."""
    return median(values) if concurrent else fastest(values)


def p90(values) -> float:
    """Nearest-rank 90th percentile (0.0 for no samples)."""
    values = sorted(values)
    if not values:
        return 0.0
    return float(values[max(0, math.ceil(0.9 * len(values)) - 1)])


def per(total: float, units: int) -> float:
    return total / units if units else 0.0


def spread(values) -> float:
    """Run-to-run spread as a share of the median: the distance between the
    quartiles for four or more values, the full range for fewer."""
    values = [float(v) for v in values]
    mid = statistics.median(values)
    if mid == 0:
        return 0.0 if max(values) == min(values) else math.inf
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(mid)
    return (max(values) - min(values)) / abs(mid)


# -- run protocol -------------------------------------------------------------


@dataclass
class Outcome:
    """What one measured window produced."""

    attempted: int = 0
    failed: int = 0
    #: Correctness violations; any entry makes the run incorrect.
    problems: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Sample counts, tails and sizes printed beside the metrics.
    notes: dict = field(default_factory=dict)


class Workload:
    """One named workload.  ``size`` holds its frozen problem sizes."""

    name: str = ""
    #: Layers of :data:`bench.trace.LAYERS` rebound for the traced part.
    layers: tuple[str, ...] = ()

    def __init__(self, size: dict):
        self.size = dict(size)

    def setup(self, seed: int, scratch: Path):
        """Build inputs and the program under test, warmed up (``setup_s``)."""
        raise NotImplementedError

    def run(self, state, seconds: float, trace: bool) -> Outcome:
        """Measure for ``seconds``, one unit of work per :func:`window` turn."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Stop everything ``setup`` started; called exactly once per state."""

    def verify(self, state, outcome: Outcome) -> None:
        """Check outputs against references (after timing and RSS are read);
        append violations to ``outcome.problems``."""


def window(seconds: float, trace: bool, cap: int | None = None,
           at_least: int = 1):
    """Yield once per unit of work (step, round, ladder pass) until
    ``seconds`` have passed and ``at_least`` units are done, saying whether
    that unit is to be traced.

    An untraced run traces nothing.  A traced run repeats untraced, traced,
    traced, so both kinds sample the same stretch of time (their ratio is
    ``obs.trace_overhead_frac``) and a period of three never locks onto the
    solver's every-tenth-step diagnostics.  ``cap`` (toy runs) ends the
    window after that many untraced units.
    """
    deadline = perf_counter() + seconds
    period = 3 if trace else 1
    done = 0
    while True:
        yield done % period != 0
        done += 1
        if done >= max(at_least, min(period, 2)) and (
            perf_counter() >= deadline or (cap and done >= period * cap)
        ):
            return


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest reaped
    child, in MiB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _reap_resource_tracker() -> None:
    """Stop and wait for multiprocessing's resource tracker, if the program
    started one (``ProcsComm`` does): left alone it exits only after this
    process has, which would leave a child nobody waited for."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def _set_up(workload: Workload, seed: int, scratch: Path, setups: list[float]):
    """Set up repeatedly (see ``SETUP_REPEATS_MIN``), tearing down all but
    the last, whose state is returned; appends each wall time to ``setups``."""
    state = None
    spent, done = 0.0, 0
    while done < SETUP_REPEATS_MIN or (
        spent < SETUP_BUDGET_S and done < SETUP_REPEATS_MAX
    ):
        if state is not None:
            workload.teardown(state)
            state = None
        start = perf_counter()
        state = workload.setup(seed, scratch / f"setup{len(setups)}")
        setups.append(perf_counter() - start)
        spent += setups[-1]
        done += 1
    return state


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> dict:
    """One run of one workload; returns the result document."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"tmp-{workload.name}-", dir=OUT_DIR))
    # Nothing the program writes by default may land outside the scratch dir.
    os.environ["REPRO_RUNS_DIR"] = str(scratch / "runs")
    os.environ["REPRO_SERVE_DIR"] = str(scratch / "serve")
    setups: list[float] = []
    try:
        state = _set_up(workload, seed, scratch, setups)
        try:
            outcome = workload.run(state, seconds, trace)
        finally:
            workload.teardown(state)
        rss = peak_rss_mb()
        workload.verify(state, outcome)
        workload.teardown(_set_up(workload, seed, scratch, setups))
    finally:
        _reap_resource_tracker()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass  # it holds result documents, or another run's scratch
    outcome.end_to_end["setup_s"] = fastest(setups)
    outcome.end_to_end["peak_rss_mb"] = rss
    outcome.notes.update(setup_samples=len(setups), setup_median_s=median(setups))
    if trace:
        # A layer this workload never enters did no work: report 0.
        names = declared("per_layer")
        values = {name: 0.0 for name in names} | outcome.per_layer
    else:
        names = declared("end_to_end")
        values = outcome.end_to_end
    if set(values) != set(names):
        raise RuntimeError(
            f"{workload.name}: metrics out of step with BENCHMARK.json: "
            f"{sorted(set(values) ^ set(names))}"
        )
    if outcome.failed:
        outcome.problems.append(
            f"{outcome.failed} of {outcome.attempted} operations failed"
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {
            name: {"value": float(values[name]), "unit": names[name]["unit"]}
            for name in names
        },
        "notes": outcome.notes,
    }


# -- provenance ---------------------------------------------------------------


def _cache_sizes() -> dict[str, str]:
    sizes: dict[str, str] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": os.environ.get("REPRO_GIT_SHA") or _git_sha(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }

