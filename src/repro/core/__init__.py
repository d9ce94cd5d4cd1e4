"""The paper's core contribution: planning and asynchronous GPU scheduling.

* :mod:`repro.core.planner` — the memory model of paper Sec. 3.5 / Table 1:
  how many nodes a problem needs, and into how many pencils each slab must be
  divided to batch through 16 GB GPUs;
* :mod:`repro.core.config` — a validated run configuration (problem size,
  tasks/node, pencils per all-to-all, scheme, algorithm variant);
* :mod:`repro.core.costs` — prices pencil-granularity operations (strided
  copies, batched FFTs, pack/unpack, pointwise kernels) for a configuration;
* :mod:`repro.core.executor` — runs one DNS time step of the chosen variant
  on the simulated machine (paper Figs. 2, 4, 5) and reports the per-step
  wall time with a full activity trace;
* :mod:`repro.core.timeline` — renders traces as normalized Gantt timelines
  (paper Fig. 10).
"""

from repro.core.autotuner import AutotuneResult, autotune
from repro.core.config import Algorithm, RunConfig
from repro.core.planner import MemoryPlanner, PlanRow, PlannerAssumptions
from repro.core.executor import StepSimulation, StepTiming, simulate_step
from repro.core.timeline import render_timeline, timeline_rows
from repro.core.trace_export import to_chrome_trace, write_chrome_trace

__all__ = [
    "Algorithm",
    "AutotuneResult",
    "MemoryPlanner",
    "PlanRow",
    "PlannerAssumptions",
    "RunConfig",
    "StepSimulation",
    "StepTiming",
    "autotune",
    "render_timeline",
    "simulate_step",
    "timeline_rows",
    "to_chrome_trace",
    "write_chrome_trace",
]
