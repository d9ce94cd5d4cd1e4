"""Memory planner: node counts and pencils per slab (paper Sec. 3.5, Table 1).

The paper's accounting:

* An N^3 problem with D variables at single precision needs ``4 D N^3 / M``
  bytes per node on M nodes.  Counting velocity components, nonlinear terms
  and pinned send/receive buffers gives D ~= 25; Summit's OS holds ~64 GB of
  each node's 512 GB, leaving 448 GB for the application.
* Valid node counts must divide N so every rank's slab has an integer number
  of planes, for *both* candidate rank layouts (2 and 6 tasks per node).
* On the GPU side, 9 pencil-sized buffers are needed for compute, tripled to
  27 for the asynchronous triple-buffering of Sec. 3.4; with ``np`` pencils
  per slab each pencil holds ``N^3 / (M np)`` words per variable, and the
  27 buffers (plus smaller auxiliary arrays, an empirical ~45% overhead that
  the paper reports pushes 18432^3 from the nominal np=2.13 to "np needs to
  exceed 3") must fit in the node's 96 GB of HBM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.machine.spec import GiB, MachineSpec

__all__ = ["MemoryPlanner", "PlanRow", "PlannerAssumptions"]


@dataclass(frozen=True)
class PlannerAssumptions:
    """The constants of the paper's memory model."""

    #: Variables-equivalent used for the minimum-node estimate (paper: D ~= 25).
    d_variables: int = 25
    #: Variables-equivalent of the *actual* resident footprint reported in
    #: Table 1's "Mem. occ. per node" column (202.5 GB at 6.75 GB/variable
    #: per node implies 30; the extra 5 over D=25 are diagnostic and
    #: staging arrays not counted in the minimum estimate).
    d_table: int = 30
    #: Pencil-sized GPU buffers: 9 for compute, tripled for async execution.
    gpu_buffers: int = 27
    #: Multiplier for "further needs ... from other smaller arrays" on the
    #: GPU (paper: nominal np = 2.13 but np must exceed 3 in practice).
    gpu_overhead: float = 1.45
    wordsize: int = 4

    def __post_init__(self) -> None:
        if self.d_variables < 1 or self.d_table < self.d_variables:
            raise ValueError("implausible variable counts")
        if self.gpu_buffers < 1 or self.gpu_overhead < 1.0:
            raise ValueError("implausible GPU buffer model")


@dataclass(frozen=True)
class PlanRow:
    """One row of Table 1."""

    nodes: int
    n: int
    memory_per_node_bytes: float
    npencils: int
    pencil_bytes: float

    @property
    def memory_per_node_gib(self) -> float:
        return self.memory_per_node_bytes / GiB

    @property
    def pencil_gib(self) -> float:
        return self.pencil_bytes / GiB


class MemoryPlanner:
    """Answers the paper's sizing questions for a machine spec."""

    def __init__(
        self,
        machine: MachineSpec,
        assumptions: PlannerAssumptions | None = None,
    ):
        machine.validate()
        self.machine = machine
        self.assume = assumptions or PlannerAssumptions()

    # -- host memory ---------------------------------------------------------

    def bytes_per_node(self, n: int, nodes: int, nvars: int | None = None) -> float:
        """Resident bytes per node: ``wordsize * D * N^3 / M``."""
        self._check(n, nodes)
        d = self.assume.d_table if nvars is None else nvars
        return self.assume.wordsize * d * n**3 / nodes

    def min_nodes(self, n: int) -> int:
        """Smallest M with ``4 D N^3 / M`` within the usable node memory."""
        if n < 1:
            raise ValueError("problem size must be positive")
        usable = self.machine.node.usable_dram_bytes
        need = self.assume.wordsize * self.assume.d_variables * n**3
        return max(1, math.ceil(need / usable))

    def valid_node_counts(
        self, n: int, tasks_per_node_options: Sequence[int] = (2, 6)
    ) -> list[int]:
        """Node counts that fit in memory, the machine, and load-balance.

        Load balancing requires an integer number of grid planes per rank
        for every candidate rank layout, i.e. ``N % (M * tpn) == 0`` for
        each tasks-per-node option (paper: for N=18432 on <=4608 nodes this
        leaves exactly M in {1536, 3072}).  ``M * tpn`` divides N for every
        option exactly when ``M`` divides ``N / lcm(options)``, so only
        those divisors are enumerated.
        """
        lo, hi = self.min_nodes(n), self.machine.total_nodes
        if not tasks_per_node_options:
            return list(range(lo, hi + 1))
        lcm = math.lcm(*tasks_per_node_options)
        if n % lcm:
            return []
        k = n // lcm
        divisors = {d for q in range(1, math.isqrt(k) + 1) if k % q == 0
                    for d in (q, k // q)}
        return sorted(m for m in divisors if lo <= m <= hi)

    # -- GPU memory ------------------------------------------------------------

    def pencil_bytes(self, n: int, nodes: int, npencils: int, nvars: int = 1) -> float:
        """Bytes of one pencil (``nvars`` variables): ``4 nv N^3/(M np)``."""
        self._check(n, nodes)
        if npencils < 1:
            raise ValueError("npencils must be >= 1")
        return self.assume.wordsize * nvars * n**3 / (nodes * npencils)

    def gpu_bytes_required(self, n: int, nodes: int, npencils: int) -> float:
        """HBM demand per node: 27 pencil buffers plus the overhead factor."""
        return (
            self.assume.gpu_buffers
            * self.pencil_bytes(n, nodes, npencils)
            * self.assume.gpu_overhead
        )

    def min_pencils(self, n: int, nodes: int) -> int:
        """Smallest integer ``np`` whose buffers fit in the node's HBM."""
        self._check(n, nodes)
        hbm = self.machine.node.gpu_memory_bytes
        nominal = (
            self.assume.gpu_buffers
            * self.assume.wordsize
            * n**3
            * self.assume.gpu_overhead
            / (nodes * hbm)
        )
        return max(1, math.ceil(nominal - 1e-9))

    # -- the table ---------------------------------------------------------------

    def plan(self, n: int, nodes: int) -> PlanRow:
        """The Table-1 row for a (problem size, node count) pair."""
        npencils = self.min_pencils(n, nodes)
        return PlanRow(
            nodes=nodes,
            n=n,
            memory_per_node_bytes=self.bytes_per_node(n, nodes),
            npencils=npencils,
            pencil_bytes=self.pencil_bytes(n, nodes, npencils),
        )

    def _check(self, n: int, nodes: int) -> None:
        if n < 1:
            raise ValueError("problem size must be positive")
        if nodes < 1:
            raise ValueError("node count must be positive")
        need = self.assume.wordsize * self.assume.d_variables * n**3 / nodes
        usable = self.machine.node.usable_dram_bytes
        if need > usable:
            raise ValueError(
                f"N={n} on M={nodes} nodes does not fit in node memory "
                f"(need {need / GiB:.0f} GiB of {usable / GiB:.0f} GiB)"
            )
