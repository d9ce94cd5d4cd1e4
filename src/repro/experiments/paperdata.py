"""The paper's published numbers, transcribed for comparison.

Source: Ravikumar, Appelhans & Yeung, "GPU acceleration of extreme scale
pseudo-spectral simulations of turbulence using asynchronism", SC '19.
All values are copied from the tables and section text; figure-derived
values (Figs. 7-9) are approximate readings of the plotted curves and are
marked as such.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FIG9_MPI_ONLY",
    "STRONG_SCALING_18432",
    "TABLE1",
    "TABLE2",
    "TABLE3",
    "TABLE4",
    "Table1Row",
    "Table2Cell",
    "Table3Row",
    "Table4Row",
]

MiB = 1024**2


@dataclass(frozen=True)
class Table1Row:
    nodes: int
    n: int
    memory_per_node_gib: float
    npencils: int
    pencil_gib: float


#: Table 1: node counts, problem sizes, memory and pencil counts.
TABLE1 = (
    Table1Row(16, 3072, 202.5, 3, 2.25),
    Table1Row(128, 6144, 202.5, 3, 2.25),
    Table1Row(1024, 12288, 202.5, 3, 2.25),
    Table1Row(3072, 18432, 227.8, 4, 1.90),
)

#: Sec. 3.5: minimum node count for 18432^3 at D=25 within 448 GB/node.
MIN_NODES_18432 = 1302
#: Sec. 3.5: the only two valid node counts for 18432^3 on Summit.
VALID_NODES_18432 = (1536, 3072)


@dataclass(frozen=True)
class Table2Cell:
    case: str  # "A" (6 t/n, 1 pencil), "B" (2 t/n, 1 pencil), "C" (2 t/n, 1 slab)
    nodes: int
    tasks_per_node: int
    p2p_mib: float
    bw_gb_s: float
    #: The paper itself flags this cell as anomalous/surprising.
    anomalous: bool = False


#: Table 2: effective all-to-all bandwidth per node (standalone kernel, nv=3).
TABLE2 = (
    Table2Cell("A", 16, 6, 12.0, 36.5),
    Table2Cell("A", 128, 6, 1.5, 24.0),
    Table2Cell("A", 1024, 6, 0.19, 11.1, anomalous=True),
    Table2Cell("A", 3072, 6, 0.053, 13.2, anomalous=True),
    Table2Cell("B", 16, 2, 108.0, 43.1),
    Table2Cell("B", 128, 2, 13.5, 39.0),
    Table2Cell("B", 1024, 2, 1.69, 23.5),
    Table2Cell("B", 3072, 2, 0.47, 12.4),
    Table2Cell("C", 16, 2, 324.0, 43.6),
    Table2Cell("C", 128, 2, 40.5, 39.0),
    Table2Cell("C", 1024, 2, 5.06, 25.0),
    Table2Cell("C", 3072, 2, 1.90, 17.6),
)


@dataclass(frozen=True)
class Table3Row:
    nodes: int
    n: int
    cpu_s: float
    gpu_a_s: float  # async GPU, 6 tasks/node, 1 pencil/A2A
    gpu_b_s: float  # async GPU, 2 tasks/node, 1 pencil/A2A
    gpu_c_s: float  # async GPU, 2 tasks/node, 1 slab/A2A

    @property
    def best_gpu_s(self) -> float:
        return min(self.gpu_a_s, self.gpu_b_s, self.gpu_c_s)


#: Table 3: seconds per RK2 step.
TABLE3 = (
    Table3Row(16, 3072, 34.38, 8.09, 6.70, 7.50),
    Table3Row(128, 6144, 40.18, 12.17, 8.66, 8.07),
    Table3Row(1024, 12288, 47.57, 13.63, 12.62, 10.14),
    Table3Row(3072, 18432, 41.96, 25.44, 22.30, 14.24),
)


@dataclass(frozen=True)
class Table4Row:
    nodes: int
    ntasks: int
    n: int
    pencils_per_a2a: int
    time_s: float
    weak_scaling_pct: float | None


#: Table 4: weak scaling relative to 3072^3 (best configuration per size).
TABLE4 = (
    Table4Row(16, 32, 3072, 1, 6.70, None),
    Table4Row(128, 256, 6144, 3, 8.07, 83.0),
    Table4Row(1024, 2048, 12288, 3, 10.14, 66.1),
    Table4Row(3072, 6144, 18432, 4, 14.24, 52.9),
)

#: Sec. 5.3: 18432^3 with 6 tasks/node: 3072 nodes at 25.4 s vs 1536 nodes
#: at 48.7 s -> 95.7% strong-scaling efficiency.
STRONG_SCALING_18432 = {
    "tasks_per_node": 6,
    "nodes_small": 1536,
    "time_small_s": 48.7,
    "nodes_large": 3072,
    "time_large_s": 25.4,
    "efficiency_pct": 95.7,
}

#: Fig. 9 dotted green line (approximate read): standalone MPI-only
#: transpose time per step at the Table-3 operating points.
FIG9_MPI_ONLY = {16: 5.5, 128: 6.5, 1024: 8.5, 3072: 12.0}

#: Fig. 7 (approximate read): time to move 216 MB with strided access, by
#: contiguous chunk size, per strategy, in milliseconds.  Only the ordering
#: and order-of-magnitude gaps are treated as reproduction targets.
FIG7_TOTAL_BYTES = 216 * MiB
FIG7_CHUNK_SIZES = tuple(int(2.2 * 1024 * 2**i) for i in range(8))  # 2.2KB..281KB

#: Fig. 8: zero-copy kernel saturates near the memcpy2d line at ~16 blocks
#: of 1024 threads.
FIG8_SATURATION_BLOCKS = 16

#: Sec. 1 / Sec. 5 headline numbers.
HEADLINE = {
    "n": 18432,
    "nodes": 3072,
    "time_per_step_s": 14.24,
    "speedup_12288": 4.7,
    "gpu_fraction_bound": 1.0 / 7.0,  # FFT+transfer < 1/7 of runtime
}
