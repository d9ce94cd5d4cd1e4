"""Standalone measurement kernels, mirroring the paper's Sec. 4 methodology.

The paper isolates two subsystems with dedicated micro-benchmarks before
analyzing the full DNS, and both live here as cost-plane instruments the
experiment drivers consume:

* a standalone MPI kernel "which carries out communication operations
  mimicking those in the DNS code but does not compute nor move data
  between CPU and GPU" (Table 2) — :mod:`repro.benchkit.a2a_kernel`,
  driven by :mod:`repro.experiments.table2`;
* a strided-copy study comparing per-chunk ``cudaMemcpyAsync``, zero-copy
  kernels and ``cudaMemcpy2DAsync`` (Figs. 7 and 8) —
  :mod:`repro.benchkit.stride_kernel`, driven by
  :mod:`repro.experiments.fig7` and :mod:`repro.experiments.fig8`.

One sweep stays beside them: :mod:`repro.benchkit.imbalance` prices how
much of the efficiency lost to a slow rank the DLB lend/reclaim schedule
recovers, and is run as ``python -m repro.benchkit.imbalance`` by CI's
``imbalance`` job, which regenerates ``BENCH_imbalance.json`` and gates it
with ``repro obs diff``.  It is deliberately not imported here, so running
it as a module does not find itself already in ``sys.modules``.

Whole-code seconds per step (the paper's third instrument, Table 3 and
Fig. 10) are measured by the repo benchmark, ``python3 -m bench.run``.
"""

from repro.benchkit.a2a_kernel import StandaloneA2AKernel
from repro.benchkit.stride_kernel import StridedCopyStudy, ZeroCopyBlockStudy

__all__ = ["StandaloneA2AKernel", "StridedCopyStudy", "ZeroCopyBlockStudy"]
