"""Validated run configuration for the simulated DNS step.

Encodes the axes the paper sweeps:

* ``tasks_per_node`` — 6 (one rank per GPU) vs 2 (one rank per socket
  driving 3 GPUs through OpenMP threads; paper Sec. 4.1 / Fig. 5);
* ``q_pencils_per_a2a`` — how many pencils are aggregated per all-to-all
  (1 = maximal overlap, ``npencils`` = one slab per call, the paper's
  cases A/B/C);
* ``algorithm`` — the batched asynchronous GPU algorithm (Fig. 4), the
  basic synchronous GPU algorithm (Fig. 2), the synchronous pencil-
  decomposed CPU baseline (Table 3's reference), or an MPI-only skeleton
  (the dotted line of Fig. 9 / top band of Fig. 10);
* ``scheme`` — RK2 (reported) or RK4 (doubled substage count).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Literal

from repro.machine.spec import MachineSpec

__all__ = ["Algorithm", "RunConfig"]


class Algorithm(enum.Enum):
    ASYNC_GPU = "async_gpu"
    SYNC_GPU = "sync_gpu"
    CPU_BASELINE = "cpu_baseline"
    MPI_ONLY = "mpi_only"


@dataclass(frozen=True)
class RunConfig:
    """One simulated DNS run configuration.

    Attributes
    ----------
    n, nodes:
        Problem size and node count.
    tasks_per_node:
        MPI ranks per node (2 or 6 on Summit; validated against GPU count).
    npencils:
        Pencils per slab (``np``); from :class:`~repro.core.planner.MemoryPlanner`.
    q_pencils_per_a2a:
        Pencils aggregated per all-to-all (``Q``; ``npencils`` = one slab).
    scheme:
        "rk2" or "rk4" (doubles the substage count).
    nv_velocity, nv_products:
        Variables moved in the inverse (velocities) and forward (nonlinear
        products) sweeps; 3 and 6 for the conservative-form DNS.
    gpu_direct:
        Model CUDA-aware MPI/GPU-direct: skip the staging D2H/H2D around the
        all-to-all (paper Sec. 3.3 found no noticeable benefit —
        ``tests/core/test_executor.py::test_gpu_direct_no_significant_benefit``
        reproduces that).
    zero_copy_unpack:
        Use the zero-copy kernel for post-exchange unpacks (the production
        choice) instead of cudaMemcpy2DAsync chains.
    """

    n: int
    nodes: int
    tasks_per_node: int
    npencils: int
    q_pencils_per_a2a: int = 1
    algorithm: Algorithm = Algorithm.ASYNC_GPU
    scheme: Literal["rk2", "rk4"] = "rk2"
    nv_velocity: int = 3
    nv_products: int = 6
    gpu_direct: bool = False
    zero_copy_unpack: bool = True

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("problem size too small")
        if self.nodes < 1:
            raise ValueError("need at least one node")
        if self.tasks_per_node < 1:
            raise ValueError("need at least one task per node")
        if self.n % self.ranks != 0:
            raise ValueError(
                f"N={self.n} must be divisible by ranks={self.ranks} "
                "(integer slab thickness)"
            )
        if self.npencils < 1 or self.n % self.npencils != 0:
            raise ValueError(f"npencils={self.npencils} must divide N={self.n}")
        if not 1 <= self.q_pencils_per_a2a <= self.npencils:
            raise ValueError(
                f"Q={self.q_pencils_per_a2a} must be in [1, np={self.npencils}]"
            )
        if self.npencils % self.q_pencils_per_a2a != 0:
            raise ValueError("Q must divide npencils (equal-size groups)")
        if self.scheme not in ("rk2", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.nv_velocity < 1 or self.nv_products < 1:
            raise ValueError("variable counts must be positive")

    # -- derived quantities ----------------------------------------------------

    @property
    def ranks(self) -> int:
        return self.nodes * self.tasks_per_node

    @property
    def slab_thickness(self) -> int:
        """Planes per rank, N/P."""
        return self.n // self.ranks

    @property
    def substages(self) -> int:
        """Runge-Kutta substages per time step."""
        return 2 if self.scheme == "rk2" else 4

    @property
    def a2a_groups(self) -> int:
        """All-to-all calls per transpose (np / Q)."""
        return self.npencils // self.q_pencils_per_a2a

    @property
    def whole_slab_per_a2a(self) -> bool:
        """True for the paper's case C (no MPI/GPU overlap possible)."""
        return self.q_pencils_per_a2a == self.npencils

    def gpus_per_rank(self, machine: MachineSpec) -> int:
        gpn = machine.gpus_per_node
        if self.tasks_per_node > gpn:
            return 1  # oversubscribed ranks share GPUs; treat as CPU-style
        if gpn % self.tasks_per_node != 0:
            raise ValueError(
                f"{gpn} GPUs cannot be split evenly over "
                f"{self.tasks_per_node} tasks"
            )
        return gpn // self.tasks_per_node

    def ranks_per_socket(self, machine: MachineSpec) -> int:
        spn = machine.sockets_per_node
        if self.tasks_per_node % spn != 0:
            raise ValueError(
                f"{self.tasks_per_node} tasks/node cannot be split over "
                f"{spn} sockets"
            )
        return self.tasks_per_node // spn

    def usable_cores_per_node(self, machine: MachineSpec) -> int:
        """Largest core count that is a factor of N (load balance, Sec. 5).

        The paper: "even though there are 42 cores per Summit node, only 32
        cores can be used for most problem sizes except 18432^3 ... which
        allows 36".
        """
        total = machine.node.num_cores
        for cores in range(total, 0, -1):
            if self.n % cores == 0:
                return cores
        return 1  # pragma: no cover - N >= 4 guarantees a factor

    # -- volumes (bytes; single-precision words) ----------------------------------

    @property
    def slab_bytes_per_variable(self) -> float:
        """Bytes of one variable's slab on one rank."""
        return 4.0 * self.n**3 / self.ranks

    def pencil_bytes_per_variable(self) -> float:
        return self.slab_bytes_per_variable / self.npencils

    # -- convenience ---------------------------------------------------------------

    def with_(self, **changes) -> "RunConfig":
        """A modified copy (dataclasses.replace wrapper)."""
        return replace(self, **changes)

    def label(self) -> str:
        """Short human-readable label, e.g. '2 t/n, 1 slab/A2A'."""
        if self.algorithm is Algorithm.CPU_BASELINE:
            return "sync CPU"
        if self.algorithm is Algorithm.MPI_ONLY:
            return "MPI only"
        kind = "sync GPU" if self.algorithm is Algorithm.SYNC_GPU else "async GPU"
        if self.whole_slab_per_a2a:
            granularity = "1 slab/A2A"
        elif self.q_pencils_per_a2a == 1:
            granularity = "1 pencil/A2A"
        else:
            granularity = f"{self.q_pencils_per_a2a} pencils/A2A"
        return f"{kind}, {self.tasks_per_node} t/n, {granularity}"
