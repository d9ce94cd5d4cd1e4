"""Capacity planner: Summit-scale cost quotes without moving a byte.

The *data plane* (the out-of-core engine moving real NumPy payloads) runs
at laptop scale; the *cost plane* prices the same schedule at any scale.
This module is the cost plane's front end: it combines

* the memory planner (paper Sec. 3.5 / Table 1) — does the problem fit, and
  into how many pencils must each slab be cut;
* the discrete-event step simulator (paper Figs. 2/4/5) — seconds per RK
  substep for a configuration on a machine model;
* the Fig. 7 strided-copy cost models — what each host<->device pencil copy
  costs under a given copy strategy;
* the all-to-all message-size bookkeeping (:mod:`repro.mpi.costmodel`);

into :class:`CostQuote` records for arbitrary (grid, node count, copy
strategy) points on any registered machine model.  An 18432^3 / 3072-node
Summit quote — the paper's production configuration — prices in milliseconds
because nothing is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.config import Algorithm, RunConfig
from repro.core.executor import simulate_step
from repro.core.planner import MemoryPlanner, PlannerAssumptions
from repro.cuda.copyengine import ChunkLayout, make_engine
from repro.machine.exascale import exascale
from repro.machine.sierra import sierra
from repro.machine.spec import GiB, MachineSpec
from repro.machine.summit import summit
from repro.machine.titan import titan
from repro.mpi.costmodel import alltoall_p2p_bytes

__all__ = [
    "COPY_STRATEGIES",
    "MACHINES",
    "CapacityPlanner",
    "CostQuote",
    "bench_payload",
    "machine_by_name",
]

#: Copy strategies the planner can price (the Fig. 7 engines; ``auto``
#: prices as the per-layout minimum, which is what the autotuner converges
#: to on the simulated backend).
COPY_STRATEGIES = ("per_chunk", "memcpy2d", "zero_copy", "auto")

#: Machine-model factories the planner can sweep.
MACHINES: Mapping[str, Callable[[], MachineSpec]] = {
    "summit": summit,
    "titan": titan,
    "sierra": sierra,
    "exascale": exascale,
}

#: Default grid sizes of a sweep: the paper's Table 1 problem ladder.
DEFAULT_GRIDS = (3072, 6144, 12288, 18432)


def machine_by_name(name: str) -> MachineSpec:
    """Build a registered machine model (``summit``/``titan``/...)."""
    try:
        factory = MACHINES[name]
    except KeyError:
        raise ValueError(
            f"unknown machine {name!r} (choose from {sorted(MACHINES)})"
        ) from None
    return factory()


@dataclass(frozen=True)
class CostQuote:
    """One priced (machine, grid, nodes, copy strategy) configuration.

    All figures are model outputs — deterministic functions of the machine
    spec and the configuration, never measurements — so quotes diff exactly
    across runs (the property the CI capacity gate relies on).
    """

    machine: str
    n: int
    nodes: int
    tasks_per_node: int
    ranks: int
    npencils: int
    q: int
    copy_strategy: str
    feasible: bool
    reason: str = ""
    #: Simulated wall time of one RK2 step (0.0 when infeasible).
    seconds_per_step: float = 0.0
    #: Busy seconds by category ("mpi", "fft", "h2d", ...) from the trace.
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Per-peer all-to-all message for the velocity sweep (nv=3, Q pencils).
    a2a_p2p_bytes: float = 0.0
    #: Total transpose payload of one step (9 variable transposes/substage).
    a2a_bytes_per_step: float = 0.0
    #: One pencil of one variable (the planner's Table 1 column).
    pencil_bytes: float = 0.0
    #: Host memory resident per node (D=30 accounting, Table 1).
    mem_per_node_bytes: float = 0.0
    #: HBM demand per node (27 buffers x overhead, Sec. 3.5).
    gpu_bytes_per_node: float = 0.0
    #: Fig. 7 price of one single-variable pencil H2D under the strategy.
    copy_seconds_per_pencil: float = 0.0

    @property
    def node_hours_per_step(self) -> float:
        return self.seconds_per_step * self.nodes / 3600.0

    @property
    def mem_per_node_gib(self) -> float:
        return self.mem_per_node_bytes / GiB

    def to_record(self) -> dict:
        """Flat record for bench JSON (identity strs/ints + float measures)."""
        rec = {
            "machine": self.machine,
            "n": self.n,
            "nodes": self.nodes,
            "tasks_per_node": self.tasks_per_node,
            "ranks": self.ranks,
            "npencils": self.npencils,
            "q": self.q,
            "copy_strategy": self.copy_strategy,
            "feasible": self.feasible,
            "reason": self.reason,
            "seconds_per_step": float(self.seconds_per_step),
            "a2a_p2p_bytes": float(self.a2a_p2p_bytes),
            "a2a_step_bytes": float(self.a2a_bytes_per_step),
            "pencil_bytes": float(self.pencil_bytes),
            "mem_per_node_bytes": float(self.mem_per_node_bytes),
            "gpu_bytes_per_node": float(self.gpu_bytes_per_node),
            "copy_pencil_seconds": float(self.copy_seconds_per_pencil),
            "node_hours_per_step": float(self.node_hours_per_step),
        }
        for cat in sorted(self.breakdown):
            rec[f"busy_{cat}_seconds"] = float(self.breakdown[cat])
        return rec

    def report(self) -> str:
        """Human-readable quote block for the CLI."""
        head = (
            f"{self.machine}: N={self.n} on {self.nodes} nodes "
            f"({self.tasks_per_node} t/n, np={self.npencils}, Q={self.q}, "
            f"{self.copy_strategy})"
        )
        if not self.feasible:
            return f"{head}\n  INFEASIBLE: {self.reason}"
        lines = [
            head,
            f"  {self.seconds_per_step:10.2f} s/step "
            f"({self.node_hours_per_step:.1f} node-hours per step)",
            f"  {self.mem_per_node_gib:10.1f} GiB/node host, "
            f"{self.gpu_bytes_per_node / GiB:.1f} GiB/node HBM "
            f"({self.pencil_bytes / GiB:.2f} GiB/pencil)",
            f"  {self.a2a_p2p_bytes / 1e6:10.3f} MB per-peer A2A message, "
            f"{self.a2a_bytes_per_step / 1e12:.2f} TB transposed per step",
            f"  {self.copy_seconds_per_pencil * 1e3:10.3f} ms per pencil copy "
            f"({self.copy_strategy})",
        ]
        for cat in sorted(self.breakdown):
            lines.append(f"    busy {cat:>6}: {self.breakdown[cat]:8.2f} s")
        return "\n".join(lines)


class CapacityPlanner:
    """Prices configurations on a machine model via the cost plane's models.

    Parameters
    ----------
    machine:
        A registered machine name (see :data:`MACHINES`) or a built
        :class:`~repro.machine.spec.MachineSpec`.
    assumptions:
        Optional :class:`~repro.core.planner.PlannerAssumptions` override.
    """

    def __init__(
        self,
        machine: "str | MachineSpec" = "summit",
        assumptions: PlannerAssumptions | None = None,
    ):
        if isinstance(machine, str):
            self.machine_name = machine
            self.machine = machine_by_name(machine)
        else:
            self.machine_name = machine.name
            self.machine = machine
        self.planner = MemoryPlanner(self.machine, assumptions)
        self._engines = {
            name: make_engine(name, gpu=self.machine.gpu(), kind="sim")
            for name in COPY_STRATEGIES
        }

    # -- geometry helpers ------------------------------------------------------

    def npencils_for(self, n: int, nodes: int) -> int:
        """Smallest pencil count that fits HBM *and* divides N."""
        np_ = self.planner.plan(n, nodes).npencils
        while n % np_ != 0:
            np_ += 1
        return np_

    def default_nodes(self, n: int, tasks_per_node: int = 6) -> int:
        """Smallest load-balanced node count that fits the problem."""
        valid = self.planner.valid_node_counts(n)
        if not valid:
            raise ValueError(
                f"N={n} has no load-balanced node count on "
                f"{self.machine_name} (<= {self.machine.total_nodes} nodes)"
            )
        return valid[0]

    def pencil_layout(self, cfg: RunConfig) -> ChunkLayout:
        """The strided-copy geometry of one single-variable pencil H2D.

        The contiguous run is an x-line fragment of ``N / np`` words
        (18 KB for the paper's 18432^3 / np=4 example, Sec. 4.2); the
        chunk count covers one GPU's share of the pencil.
        """
        chunk_elems = max(1, cfg.n // cfg.npencils)
        pencil_elems = cfg.n**3 / (
            cfg.ranks * cfg.npencils * cfg.gpus_per_rank(self.machine)
        )
        nchunks = max(1, math.ceil(pencil_elems / chunk_elems))
        return ChunkLayout(
            shape=(nchunks, chunk_elems),
            lead_ndim=1,
            chunk_elems=chunk_elems,
            itemsize=4,
        )

    def copy_price(self, cfg: RunConfig, copy_strategy: str) -> float:
        """Fig. 7 virtual seconds for one pencil H2D under the strategy."""
        if copy_strategy not in self._engines:
            raise ValueError(
                f"unknown copy strategy {copy_strategy!r} "
                f"(choose from {COPY_STRATEGIES})"
            )
        return self._engines[copy_strategy].price(self.pencil_layout(cfg))

    # -- quoting ---------------------------------------------------------------

    def quote(
        self,
        n: int,
        nodes: int | None = None,
        tasks_per_node: int = 6,
        q: "int | str" = 1,
        copy_strategy: str = "memcpy2d",
        algorithm: Algorithm = Algorithm.ASYNC_GPU,
        scheme: str = "rk2",
    ) -> CostQuote:
        """Price one configuration; infeasible ones come back with a reason.

        ``q`` may be ``"slab"`` for one whole slab per all-to-all (the
        paper's case C); integer ``q`` is clamped down to the nearest
        divisor of the pencil count.
        """
        if copy_strategy not in COPY_STRATEGIES:
            raise ValueError(
                f"unknown copy strategy {copy_strategy!r} "
                f"(choose from {COPY_STRATEGIES})"
            )

        def infeasible(reason, nodes=0, ranks=0, np_=0, qq=0):
            return CostQuote(
                machine=self.machine_name, n=n, nodes=nodes,
                tasks_per_node=tasks_per_node, ranks=ranks, npencils=np_,
                q=qq, copy_strategy=copy_strategy, feasible=False,
                reason=str(reason),
            )

        try:
            if nodes is None:
                nodes = self.default_nodes(n, tasks_per_node)
            if nodes > self.machine.total_nodes:
                return infeasible(
                    f"{nodes} nodes exceed the machine's "
                    f"{self.machine.total_nodes}", nodes=nodes,
                )
            np_ = self.npencils_for(n, nodes)
            qq = np_ if q == "slab" else int(q)
            qq = max(1, min(qq, np_))
            while np_ % qq != 0:
                qq -= 1
            # The copy strategy feeds the executor's unpack model: the
            # zero-copy kernel (the production choice, and what "auto"
            # converges to) versus cudaMemcpy2DAsync chains (Sec. 4.2).
            cfg = RunConfig(
                n=n, nodes=nodes, tasks_per_node=tasks_per_node,
                npencils=np_, q_pencils_per_a2a=qq,
                algorithm=algorithm, scheme=scheme,
                zero_copy_unpack=copy_strategy in ("zero_copy", "auto"),
            )
        except ValueError as exc:
            return infeasible(exc, nodes=nodes or 0)

        # trace=True costs milliseconds even at 18432^3 (the discrete-event
        # schedule is per-representative-rank) and fills the busy breakdown.
        timing = simulate_step(cfg, self.machine, trace=True)
        p2p = alltoall_p2p_bytes(
            n, cfg.ranks, np_, nv=cfg.nv_velocity, q=qq
        )
        # Each substage transposes the velocities in (nv_velocity) and the
        # nonlinear products out (nv_products): 9 full-grid variables.
        step_bytes = (
            cfg.substages * 4.0 * n**3 * (cfg.nv_velocity + cfg.nv_products)
        )
        return CostQuote(
            machine=self.machine_name,
            n=n,
            nodes=nodes,
            tasks_per_node=tasks_per_node,
            ranks=cfg.ranks,
            npencils=np_,
            q=qq,
            copy_strategy=copy_strategy,
            feasible=True,
            seconds_per_step=timing.step_time,
            breakdown=dict(timing.breakdown),
            a2a_p2p_bytes=p2p,
            a2a_bytes_per_step=step_bytes,
            pencil_bytes=self.planner.pencil_bytes(n, nodes, np_),
            mem_per_node_bytes=self.planner.bytes_per_node(n, nodes),
            gpu_bytes_per_node=self.planner.gpu_bytes_required(n, nodes, np_),
            copy_seconds_per_pencil=self.copy_price(cfg, copy_strategy),
        )

    def sweep(
        self,
        grids: Sequence[int] = DEFAULT_GRIDS,
        node_counts: "Sequence[int] | None" = None,
        copy_strategies: Sequence[str] = ("memcpy2d",),
        tasks_per_node: int = 6,
        q: "int | str" = 1,
        include_infeasible: bool = False,
    ) -> list[CostQuote]:
        """Quote every (grid, node count, copy strategy) combination.

        ``node_counts=None`` uses each grid's smallest load-balanced node
        count (the Table 1 policy); explicit node counts that don't fit a
        grid yield infeasible quotes, kept only with ``include_infeasible``.
        A non-positive grid is no problem to quote: a ``ValueError``.
        """
        if any(n <= 0 for n in grids):
            raise ValueError(f"problem size must be positive, got grids {list(grids)}")
        quotes: list[CostQuote] = []
        for n in grids:
            counts: Iterable[int]
            if node_counts is None:
                try:
                    counts = (self.default_nodes(n, tasks_per_node),)
                except ValueError:
                    counts = ()
            else:
                counts = node_counts
            for nodes in counts:
                for strategy in copy_strategies:
                    qt = self.quote(
                        n, nodes, tasks_per_node=tasks_per_node, q=q,
                        copy_strategy=strategy,
                    )
                    if qt.feasible or include_infeasible:
                        quotes.append(qt)
        return quotes

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()


def bench_payload(quotes: Sequence[CostQuote], machine: str = "") -> dict:
    """The ``BENCH_capacity.json`` document for a sweep.

    A ``results`` record list, the shape ``repro obs diff`` gates;
    :func:`repro.obs.runs.write_bench_json` stamps provenance on the way out.
    """
    return {
        "suite": "capacity",
        "machine": machine or (quotes[0].machine if quotes else ""),
        "results": [q.to_record() for q in quotes],
    }
