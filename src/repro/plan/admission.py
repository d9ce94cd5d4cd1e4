"""Admission pricing: what one service job costs before it runs.

The multi-tenant service (:mod:`repro.serve`) decides *whether* and *when*
to run a job from priced models, never from trying it — the asynchrony
lesson applied to control: no synchronous global probe, just the
ROADMAP-item-4 cost plane.  This module maps a job-shaped configuration
onto two currencies:

* **device bytes** — the share of the shared
  :class:`~repro.cuda.arena.DeviceArena` budget the job will be capped to.
  For out-of-core jobs this is the engine's own sizing rule
  (:func:`repro.cuda.arena.ring_window` and
  :func:`~repro.cuda.arena.ring_bytes`, which ``OutOfCoreSlabFFT`` sizes
  its default arena with), so the admitted sum is also the enforced sum:
  the runner passes the quoted bytes back as ``device_bytes=`` and the
  arena raises if the model lied.  Whole-slab and serial jobs are
  priced at their resident spectral state (three complex components).

* **virtual seconds** — the machine-model cost of the whole job
  (:meth:`CapacityPlanner.quote`'s seconds-per-step times steps, scaled
  by the RK substage count), the fair-share scheduler's clock currency.
  Virtual seconds are deterministic model outputs, which is what makes
  placement traces bit-identical across runs.

An infeasible configuration (grid that cannot fit the machine model, a
partition that does not divide, an invalid heights vector) comes back as
a *reasoned* :class:`AdmissionQuote` with ``feasible=False`` — admission
control rejects with the quote, it never tracebacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.machine.spec import GiB
from repro.plan.capacity import COPY_STRATEGIES, CapacityPlanner, CostQuote

__all__ = [
    "AdmissionPricer",
    "AdmissionQuote",
    "job_device_bytes",
]

_COMPLEX_BYTES = 16  # complex128, the grids' cdtype


def job_device_bytes(
    n: int,
    ranks: Optional[int] = None,
    npencils: Optional[int] = None,
    pipeline: str = "sync",
    inflight: int = 3,
    heights: Optional[Sequence[int]] = None,
    skew: Optional[float] = None,
) -> float:
    """Device-byte demand of one job on the shared arena.

    For distributed jobs this is ``OutOfCoreSlabFFT``'s default arena
    capacity (:func:`repro.cuda.arena.ring_window` and
    :func:`~repro.cuda.arena.ring_bytes`, the functions the engine itself
    sizes its rings with), so quoting and enforcement cannot drift.  A job
    without ``npencils`` is the whole slab, the engine's one-pencil case
    (over ``comm="procs"`` its fused twin is priced the same).  Serial jobs don't construct an arena; they are
    charged their resident three-component spectral state as a
    host-memory stand-in.
    """
    if ranks is None:
        return 3.0 * n * n * (n // 2 + 1) * _COMPLEX_BYTES
    # A distributed job must have a feasible decomposition — an invalid
    # heights vector is an admission-time rejection, never a mid-run
    # traceback.
    from repro.cuda.arena import ring_bytes, ring_window
    from repro.dist.decomp import SlabDecomposition

    hmax = SlabDecomposition.partition(n, ranks, heights, skew).max_height
    npencils = npencils or 1
    window = ring_window(pipeline == "sync", inflight, npencils, ranks)
    return ring_bytes(n, hmax, npencils, window)[-1]


@dataclass(frozen=True)
class AdmissionQuote:
    """The admission-control view of one job: feasibility + two prices."""

    feasible: bool
    reason: str
    device_bytes: float
    virtual_seconds: float
    planner: Optional[CostQuote] = None

    def to_record(self) -> dict:
        rec = {
            "feasible": self.feasible,
            "reason": self.reason,
            "device_bytes": float(self.device_bytes),
            "virtual_seconds": float(self.virtual_seconds),
        }
        if self.planner is not None:
            rec["planner"] = self.planner.to_record()
        return rec

    def report(self) -> str:
        """Human-readable admission block (the CLI rejection message)."""
        if not self.feasible:
            head = "admission quote: INFEASIBLE"
            lines = [head, f"  reason: {self.reason}"]
        else:
            lines = [
                "admission quote: feasible",
                f"  device demand : {self.device_bytes / GiB:.4f} GiB "
                f"({self.device_bytes:.0f} B)",
                f"  virtual cost  : {self.virtual_seconds:.6f} model seconds",
            ]
        if self.planner is not None:
            lines.append("  planner quote :")
            lines.extend("    " + ln for ln in self.planner.report().splitlines())
        return "\n".join(lines)


class AdmissionPricer:
    """Prices :class:`~repro.serve.spec.JobSpec`-shaped jobs for admission.

    One :class:`CapacityPlanner` per pricer; quotes are memoized by the
    pricing-relevant spec fields so repeated planning passes (the
    scheduler plans, replans after reconcile, and the conformance tests
    replay) cost one ``simulate_step`` per distinct shape.
    """

    def __init__(self, machine: str = "summit", tasks_per_node: int = 2):
        self.machine = machine
        self.tasks_per_node = int(tasks_per_node)
        self.planner = CapacityPlanner(machine)
        self._cache: dict[tuple, AdmissionQuote] = {}

    def close(self) -> None:
        self.planner.close()

    def __enter__(self) -> "AdmissionPricer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def quote(self, spec) -> AdmissionQuote:
        """Price one job spec; never raises for an infeasible configuration."""
        key = (
            spec.n, spec.steps, spec.scheme, spec.ranks, spec.npencils,
            spec.pipeline, spec.inflight, spec.copy_strategy,
            spec.heights, spec.skew,
        )
        cached = self._cache.get(key)
        if cached is None:
            cached = self._quote_uncached(spec)
            self._cache[key] = cached
        return cached

    def _quote_uncached(self, spec) -> AdmissionQuote:
        copy_strategy = (
            spec.copy_strategy if spec.copy_strategy in COPY_STRATEGIES
            else "memcpy2d"
        )
        try:
            planner_quote = self.planner.quote(
                spec.n, nodes=1, tasks_per_node=self.tasks_per_node,
                copy_strategy=copy_strategy, scheme=spec.scheme,
            )
        except ValueError as exc:
            return AdmissionQuote(False, str(exc), 0.0, 0.0)
        if not planner_quote.feasible:
            return AdmissionQuote(
                False, planner_quote.reason, 0.0, 0.0, planner_quote
            )
        try:
            device = job_device_bytes(
                spec.n, ranks=spec.ranks, npencils=spec.npencils,
                pipeline=spec.pipeline, inflight=spec.inflight,
                heights=spec.heights, skew=spec.skew,
            )
        except ValueError as exc:
            return AdmissionQuote(False, str(exc), 0.0, 0.0, planner_quote)
        # simulate_step prices one RK2 step (2 substages); scale to the
        # job's scheme and length for the fair-share clock.
        vseconds = (
            planner_quote.seconds_per_step * (spec.substeps / 2.0) * spec.steps
        )
        return AdmissionQuote(True, "", device, vseconds, planner_quote)
