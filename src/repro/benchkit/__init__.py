"""Standalone measurement kernels, mirroring the paper's Sec. 4 methodology.

The paper isolates two subsystems with dedicated micro-benchmarks before
analyzing the full DNS:

* a standalone MPI kernel "which carries out communication operations
  mimicking those in the DNS code but does not compute nor move data
  between CPU and GPU" (Table 2) — :mod:`repro.benchkit.a2a_kernel`;
* a strided-copy study comparing per-chunk ``cudaMemcpyAsync``, zero-copy
  kernels and ``cudaMemcpy2DAsync`` (Figs. 7 and 8) —
  :mod:`repro.benchkit.stride_kernel`;
* a hot-path harness timing the real solver's step and probing its
  steady-state allocations — :mod:`repro.benchkit.hotpath`;
* an overlap-efficiency study of the async pencil pipeline (threaded
  streams vs. the sync reference, Fig. 4) — :mod:`repro.benchkit.overlap`;
* a measured-vs-model sweep of the *executable* copy engines over the
  Fig. 7 chunk sizes — :mod:`repro.benchkit.copybench`;
* a wall-clock strong-scaling sweep of the distributed solver on the
  process-pool comm backend vs the in-process reference —
  :mod:`repro.benchkit.realranks` (emits ``BENCH_real_ranks.json``);
* a skew sweep pricing how much of the efficiency lost to a slow rank
  the DLB lend/reclaim schedule recovers — :mod:`repro.benchkit.imbalance`
  (emits ``BENCH_imbalance.json``).
"""

from repro.benchkit.a2a_kernel import StandaloneA2AKernel
from repro.benchkit.copybench import CopyBenchPoint, run_copybench
from repro.benchkit.hotpath import HotpathResult, benchmark_solver, run_suite
from repro.benchkit.imbalance import (
    ImbalanceModelPoint,
    ImbalanceWallPoint,
    model_priced_point,
    run_imbalance_suite,
)
from repro.benchkit.realranks import (
    RealRanksResult,
    benchmark_comm_backend,
    run_realranks_suite,
)
from repro.benchkit.overlap import (
    OverlapResult,
    benchmark_overlap,
    run_overlap_suite,
)
from repro.benchkit.stride_kernel import StridedCopyStudy, ZeroCopyBlockStudy

__all__ = [
    "CopyBenchPoint",
    "HotpathResult",
    "ImbalanceModelPoint",
    "ImbalanceWallPoint",
    "OverlapResult",
    "RealRanksResult",
    "StandaloneA2AKernel",
    "StridedCopyStudy",
    "ZeroCopyBlockStudy",
    "benchmark_comm_backend",
    "benchmark_overlap",
    "benchmark_solver",
    "model_priced_point",
    "run_copybench",
    "run_imbalance_suite",
    "run_overlap_suite",
    "run_realranks_suite",
    "run_suite",
]
