"""Skew sweep: how much imbalance the DLB lend/reclaim schedule recovers.

ROADMAP item 3 targets the regime the paper hit on Summit: one rank runs
slower than its peers and the static Fig. 4 schedule stalls the whole
in-flight window on it.  This sweep prices that regime two ways per skew
factor in 1.0-2.0x:

* **model-priced** — the :class:`~repro.exec.dlb.DlbPolicy` virtual clocks
  replayed over the out-of-core item order (``item i`` owned by lane
  ``i % ranks``, unit pencil cost, lane weights = the per-rank slowdown
  factors).  ``makespan`` under ``pinned`` vs ``lend`` vs a balanced
  baseline gives the recovered fraction of the efficiency lost to the
  slow rank, deterministically and on any machine;
* **wall-clock** — real ``threads``-pipeline solver steps with the
  :class:`~repro.verify.imbalance.ImbalancePlan` stretching rank 0's FFTs
  by the same factor, timed with DLB off and on, with the final energies
  cross-checked bit-for-bit against an unfuzzed static run.

Interpretation needs ``cores_available``: on a single-core runner the
lend path cannot win wall-clock (helper lanes share one core, so moving a
pencil moves no capacity) and the payload says so; the recovery acceptance
(>= 15% of the efficiency lost to a 2x slow rank) is asserted on the
model-priced numbers there and on wall-clock only with >= 4 cores.
``repro obs diff`` gates CI against the committed ``BENCH_imbalance.json``.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "ImbalanceModelPoint",
    "ImbalanceWallPoint",
    "model_priced_point",
    "benchmark_wall_point",
    "run_imbalance_suite",
]

#: Skew factors swept by default (1.0 is the balanced control row).
DEFAULT_SKEWS = (1.0, 1.25, 1.5, 2.0)


@dataclass(frozen=True)
class ImbalanceModelPoint:
    """DlbPolicy-priced makespans for one (ranks, items, skew) cell."""

    ranks: int
    items: int
    skew: float
    #: Makespan with every lane at unit cost (the no-slow-rank control).
    t_balanced: float
    #: Makespan with the slow lane pinned to its own pencils (static Fig. 4).
    t_static: float
    #: Makespan with lend/reclaim migrating pencils off the slow lane.
    t_lend: float
    pencils_lent: int
    pencils_reclaimed: int
    #: (t_static - t_lend) / (t_static - t_balanced); None when skew == 1.
    recovered_fraction: Optional[float]
    #: t_balanced / t_static and t_balanced / t_lend (1.0 = no loss).
    efficiency_static: float
    efficiency_lend: float


@dataclass(frozen=True)
class ImbalanceWallPoint:
    """One timed solver run under injected imbalance (or the clean ref)."""

    n: int
    ranks: int
    npencils: int
    skew: float
    dlb: str
    steps: int
    warmup: int
    seconds_per_step: float
    final_energy: float
    #: Wall seconds the ImbalancePlan added to the victim rank's ops.
    imbalance_seconds: float
    pencils_lent: int
    pencils_reclaimed: int


def _lane_costs(ranks: int, skew: float) -> list:
    """Per-lane relative cost weights: rank 0 is the slow one."""
    return [float(skew)] + [1.0] * (ranks - 1)


def model_priced_point(
    ranks: int, npencils: int, skew: float, steps: int = 1
) -> ImbalanceModelPoint:
    """Replay the out-of-core item order through DlbPolicy virtual clocks.

    Items follow the engine's layout (``i = ip * ranks + r`` owned by rank
    ``r``) at unit pencil cost; ``steps`` repeats the transform phase the
    way repeated solver steps would, letting reclaim events show up once
    clocks have history.
    """
    from repro.exec.dlb import DlbPolicy

    items = npencils * ranks * steps

    def makespan(mode: str, costs: Sequence[float]) -> tuple:
        policy = DlbPolicy(ranks, mode=mode, costs=costs)
        for i in range(items):
            policy.assign(i, i % ranks, 1.0)
        return policy.makespan, policy.pencils_lent, policy.pencils_reclaimed

    t_balanced, _, _ = makespan("pinned", [1.0] * ranks)
    t_static, _, _ = makespan("pinned", _lane_costs(ranks, skew))
    t_lend, lent, reclaimed = makespan("lend", _lane_costs(ranks, skew))
    lost = t_static - t_balanced
    return ImbalanceModelPoint(
        ranks=ranks,
        items=items,
        skew=skew,
        t_balanced=t_balanced,
        t_static=t_static,
        t_lend=t_lend,
        pencils_lent=lent,
        pencils_reclaimed=reclaimed,
        recovered_fraction=(t_static - t_lend) / lost if lost > 0 else None,
        efficiency_static=t_balanced / t_static,
        efficiency_lend=t_balanced / t_lend,
    )


def benchmark_wall_point(
    n: int,
    ranks: int,
    npencils: int,
    skew: float,
    dlb: str,
    steps: int = 2,
    warmup: int = 1,
    nu: float = 0.02,
    seed: int = 0,
) -> ImbalanceWallPoint:
    """Time solver steps with rank 0 slowed ``skew``x on its FFT stages.

    ``skew == 1.0`` runs clean (no fuzz shim at all) — that row is both the
    wall-clock baseline and the bit-equality reference for the fuzzed rows.
    """
    from repro.dist import DistributedNavierStokesSolver
    from repro.dist.virtual_mpi import VirtualComm
    from repro.spectral import SolverConfig, SpectralGrid, random_isotropic_field
    from repro.verify.fuzz import fuzz_profile

    fuzz = None
    if skew > 1.0:
        fuzz = replace(
            fuzz_profile("imbalance_compute", seed),
            imbalance_skew=float(skew),
            imbalance_ranks=(0,),
        )
    grid = SpectralGrid(n)
    rng = np.random.default_rng(seed)
    comm = VirtualComm(ranks)
    solver = DistributedNavierStokesSolver(
        grid,
        comm,
        random_isotropic_field(grid, rng, energy=1.0),
        SolverConfig(nu=nu),
        npencils=npencils,
        pipeline="threads",
        fuzz=fuzz,
        dlb=dlb,
    )
    try:
        dt = 0.25 * grid.dx
        result = None
        for _ in range(warmup):
            result = solver.step(dt)
        t0 = time.perf_counter()
        for _ in range(steps):
            result = solver.step(dt)
        elapsed = time.perf_counter() - t0
        stats = getattr(solver.fft._backend, "stats", None)
        policy = getattr(solver.fft, "_dlb_policy", None)
        return ImbalanceWallPoint(
            n=n,
            ranks=ranks,
            npencils=npencils,
            skew=float(skew),
            dlb=dlb,
            steps=steps,
            warmup=warmup,
            seconds_per_step=elapsed / steps,
            final_energy=float(result.energy),
            imbalance_seconds=(
                float(stats.get("imbalance_seconds", 0.0)) if stats else 0.0
            ),
            pencils_lent=policy.pencils_lent if policy is not None else 0,
            pencils_reclaimed=(
                policy.pencils_reclaimed if policy is not None else 0
            ),
        )
    finally:
        solver.close()


def run_imbalance_suite(
    skews: Sequence[float] = DEFAULT_SKEWS,
    ranks: int = 3,
    npencils: int = 4,
    n: int = 24,
    steps: int = 2,
    warmup: int = 1,
    model_steps: int = 4,
    seed: int = 0,
) -> dict:
    """The skew sweep behind ``BENCH_imbalance.json``.

    Every skew gets a model-priced row (any machine) and wall-clock rows
    for ``dlb`` off and lend; all wall-clock rows must land on the same
    final energy bit-for-bit — lending moves where pencils run, never what
    they compute.
    """
    model = [
        model_priced_point(ranks, npencils, skew, steps=model_steps)
        for skew in skews
    ]
    wall: list[ImbalanceWallPoint] = []
    for skew in skews:
        for dlb in ("off", "lend"):
            wall.append(
                benchmark_wall_point(
                    n, ranks, npencils, skew, dlb,
                    steps=steps, warmup=warmup, seed=seed,
                )
            )

    energies = {p.final_energy for p in wall}
    worst = max(model, key=lambda p: p.skew)
    speedups: dict = {}
    by_cell = {(p.skew, p.dlb): p for p in wall}
    for skew in skews:
        off = by_cell[(float(skew), "off")]
        lend = by_cell[(float(skew), "lend")]
        speedups[f"wall_lend_over_off_skew{skew:g}"] = (
            off.seconds_per_step / lend.seconds_per_step
        )
    for p in model:
        if p.recovered_fraction is not None:
            # Deterministic, so the CI diff gates it exactly: lend must
            # keep recovering this fraction of the priced efficiency loss.
            speedups[f"model_recovered_skew{p.skew:g}"] = p.recovered_fraction

    # ``repro obs diff`` pairs records by their string/int identity fields,
    # so each row carries a unique ``label`` (skew is a float and would
    # otherwise not distinguish cells).
    results = [
        {"record": "model", "label": f"model-skew{p.skew:g}", **asdict(p)}
        for p in model
    ] + [
        {
            "record": "wall",
            "label": f"wall-skew{p.skew:g}-{p.dlb}",
            **asdict(p),
        }
        for p in wall
    ]

    return {
        "suite": "imbalance",
        "skews": [float(s) for s in skews],
        "ranks": ranks,
        "npencils": npencils,
        "n": n,
        "steps": steps,
        "warmup": warmup,
        "cores_available": os.cpu_count(),
        "note": (
            "model rows are DlbPolicy virtual-clock makespans and hold on "
            "any machine; wall rows need cores_available >= ranks+1 before "
            "lend can beat off (helper lanes share cores otherwise) — the "
            "recovery acceptance is asserted model-priced on small runners"
        ),
        "model": [asdict(p) for p in model],
        "wall": [asdict(p) for p in wall],
        "results": results,
        "speedups": speedups,
        "bit_identical": len(energies) == 1,
        "recovered_fraction_at_max_skew": worst.recovered_fraction,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.benchkit.imbalance [out.json]``"""
    import sys

    from repro.obs.runs import write_bench_json

    out = "BENCH_imbalance.json"
    args = list(argv if argv is not None else sys.argv[1:])
    if args:
        out = args[0]
    payload = run_imbalance_suite()
    path = write_bench_json(payload, out)
    print(f"imbalance sweep written to {path}")
    for row in payload["model"]:
        rec = row["recovered_fraction"]
        print(
            f"  model skew={row['skew']:g}: static {row['t_static']:.1f} "
            f"-> lend {row['t_lend']:.1f} priced-seconds"
            + (f", recovered {rec:.0%}" if rec is not None else "")
        )
    print(f"  bit_identical={payload['bit_identical']}")
    rec = payload["recovered_fraction_at_max_skew"]
    if rec is not None and rec < 0.15:
        print(f"  FAIL: recovered {rec:.0%} < 15% at max skew")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
