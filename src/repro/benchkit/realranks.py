"""Wall-clock strong scaling of the distributed solver on real processes.

Every other benchmark in :mod:`repro.benchkit` measures the *virtual-time*
model or single-process hot paths; this sweep times the same
:class:`~repro.dist.dist_solver.DistributedNavierStokesSolver` steps twice
per rank count — once on the in-process :class:`VirtualComm` reference and
once on the process-pool :class:`~repro.mpi.procs.ProcsComm` — and records
honest wall-clock numbers plus the evidence that both runs computed the
same answer (final energies must match bit-for-bit).

Interpretation needs ``cores_available``: on a single-core runner the
process backend *cannot* beat the virtual one (it pays dispatch overhead
for no parallel capacity), and the payload says so rather than pretending.
``worker_cpu_seconds`` (per-rank CPU time measured inside the workers)
shows how much compute actually landed off the driver regardless of core
count.  The acceptance speedup (>1.3x at 64^3, 4 ranks) is expected on a
4-core runner; CI uploads ``BENCH_real_ranks.json`` so the claim is
checkable per machine.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from repro.benchkit.hotpath import write_json

__all__ = [
    "RealRanksResult",
    "benchmark_comm_backend",
    "run_realranks_suite",
    "write_json",
]


@dataclass(frozen=True)
class RealRanksResult:
    """One timed (n, ranks, comm backend) run of the distributed solver."""

    n: int
    ranks: int
    comm: str
    scheme: str
    steps: int
    warmup: int
    seconds_per_step: float
    steps_per_sec: float
    final_energy: float
    #: Sum of per-rank CPU seconds measured inside worker processes
    #: (0.0 for the in-process backend: all compute is driver-side).
    worker_cpu_seconds: float = 0.0


def benchmark_comm_backend(
    n: int,
    ranks: int,
    comm_kind: str,
    scheme: str = "rk2",
    steps: int = 3,
    warmup: int = 1,
    nu: float = 0.02,
    seed: int = 0,
    fft_backend: str = "numpy",
) -> RealRanksResult:
    """Time ``steps`` distributed solver steps on one comm backend.

    Diagnostics stay on their default cadence so the energy comes out for
    the bit-equality cross-check; the timed region covers whole steps
    (9 all-to-alls each in conservative form), which is what a user of
    ``dns --ranks P --comm procs`` experiences.
    """
    from repro.serve.runner import open_solver
    from repro.serve.spec import JobSpec

    spec = JobSpec(n=n, nu=nu, scheme=scheme, ic="random", ic_seed=seed,
                   ranks=ranks, comm=comm_kind,
                   fft_backend=fft_backend).validate()
    with open_solver(spec) as opened:
        solver, dt, comm = opened.solver, opened.dt, opened.comm
        result = None
        for _ in range(warmup):
            result = solver.step(dt)
        t0 = time.perf_counter()
        for _ in range(steps):
            result = solver.step(dt)
        elapsed = time.perf_counter() - t0
    # worker CPU totals land on the comm when open_solver closes it
    return RealRanksResult(
        n=n,
        ranks=ranks,
        comm=comm_kind,
        scheme=scheme,
        steps=steps,
        warmup=warmup,
        seconds_per_step=elapsed / steps,
        steps_per_sec=steps / elapsed,
        final_energy=float(result.energy),
        worker_cpu_seconds=float(sum(getattr(comm, "worker_cpu_seconds", ()))),
    )


def run_realranks_suite(
    grid_sizes: Sequence[int] = (32, 64),
    rank_counts: Sequence[int] = (2, 4),
    comms: Sequence[str] = ("virtual", "procs"),
    scheme: str = "rk2",
    steps: int = 3,
    warmup: int = 1,
    fft_backend: str = "numpy",
) -> dict:
    """The strong-scaling sweep behind ``BENCH_real_ranks.json``.

    For every (n, ranks) cell each backend in ``comms`` is timed on the
    identical problem; ``speedups`` holds procs-over-virtual wall-clock
    ratios and ``bit_identical`` records whether the final energies agreed
    exactly (they must — both backends run the same kernel sequence).
    """
    results: list[RealRanksResult] = []
    for n in grid_sizes:
        for ranks in rank_counts:
            if n % ranks != 0 or (n // 2 + 1) < ranks:
                continue
            for comm_kind in comms:
                results.append(
                    benchmark_comm_backend(
                        n, ranks, comm_kind, scheme=scheme, steps=steps,
                        warmup=warmup, fft_backend=fft_backend,
                    )
                )

    by_cell: dict[tuple[int, int, str], RealRanksResult] = {
        (r.n, r.ranks, r.comm): r for r in results
    }
    speedups: dict[str, float] = {}
    bit_identical: dict[str, bool] = {}
    for (n, ranks, comm_kind), r in by_cell.items():
        if comm_kind == "virtual":
            continue
        ref = by_cell.get((n, ranks, "virtual"))
        if ref is None:
            continue
        key = f"n{n}-P{ranks}-{comm_kind}"
        speedups[key] = ref.seconds_per_step / r.seconds_per_step
        bit_identical[key] = r.final_energy == ref.final_energy

    return {
        "suite": "real_ranks",
        "grid_sizes": list(grid_sizes),
        "rank_counts": list(rank_counts),
        "comms": list(comms),
        "scheme": scheme,
        "steps": steps,
        "warmup": warmup,
        "fft_backend": fft_backend,
        "cores_available": os.cpu_count(),
        "note": (
            "speedups are procs wall-clock over virtual; expect >1 only "
            "when cores_available exceeds 1 — worker_cpu_seconds shows the "
            "compute that ran in rank processes either way"
        ),
        "results": [asdict(r) for r in results],
        "speedups": speedups,
        "bit_identical": bit_identical,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.benchkit.realranks [out.json]``"""
    import sys

    out = "BENCH_real_ranks.json"
    args = list(argv if argv is not None else sys.argv[1:])
    if args:
        out = args[0]
    payload = run_realranks_suite()
    path = write_json(payload, out)
    print(f"real-ranks sweep written to {path}")
    for key, s in sorted(payload["speedups"].items()):
        ok = payload["bit_identical"][key]
        print(f"  {key}: {s:.2f}x vs virtual, bit_identical={ok}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
