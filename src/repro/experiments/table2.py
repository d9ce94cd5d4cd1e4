"""Table 2 reproduction: effective all-to-all bandwidth of the standalone
blocking kernel under configurations A, B and C (paper Sec. 4.1).

This driver exercises two independent implementations and checks they agree:

* the *analytic* path — :class:`repro.machine.network.AllToAllModel` applied
  directly to the published message sizes;
* the *simulated* path — :class:`repro.benchkit.a2a_kernel.StandaloneA2AKernel`
  running the exchange through the discrete-event simulation, exactly as the
  paper ran a standalone MPI kernel separate from the DNS code.

The cell list is not hard-coded: ``run`` takes any sequence of cells, and
:func:`planner_cells` derives fresh ones for arbitrary (grid, node count)
points from the memory planner and the all-to-all message-size model —
this is how the table regenerates at scales (or on machines) the paper
never measured.  Cells without a published bandwidth
fill the analytic/simulated series but emit no model-vs-paper comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.benchkit.a2a_kernel import StandaloneA2AKernel
from repro.core.planner import MemoryPlanner
from repro.experiments import paperdata
from repro.experiments.report import ComparisonRow, format_table
from repro.machine.network import AllToAllModel
from repro.machine.spec import MachineSpec, MiB
from repro.machine.summit import summit
from repro.mpi.costmodel import alltoall_p2p_bytes

__all__ = ["Table2Case", "Table2Result", "planner_cells", "run"]


@dataclass(frozen=True)
class Table2Case:
    """One bandwidth cell; ``bw_gb_s=None`` means no paper reference."""

    case: str  # "A" (6 t/n, 1 pencil), "B" (2 t/n, 1 pencil), "C" (2 t/n, 1 slab)
    nodes: int
    tasks_per_node: int
    p2p_mib: float
    bw_gb_s: Optional[float] = None
    anomalous: bool = False


#: The paper's case -> (tasks/node, pencils per all-to-all) configurations.
_CASES = (("A", 6, "pencil"), ("B", 2, "pencil"), ("C", 2, "slab"))


def planner_cells(
    machine: MachineSpec | None = None,
    n: int = 18432,
    node_counts: Sequence[int] | None = None,
) -> tuple[Table2Case, ...]:
    """Derive A/B/C cells for arbitrary (grid, node count) points.

    Message sizes come from the memory planner's pencil count and
    :func:`~repro.mpi.costmodel.alltoall_p2p_bytes` — the cost plane, no
    exchange is run to size them.
    """
    machine = machine or summit()
    planner = MemoryPlanner(machine)
    counts = tuple(node_counts) if node_counts else tuple(
        planner.valid_node_counts(n)
    )
    if not counts:
        raise ValueError(f"N={n} has no valid node count on {machine.name}")
    cells = []
    for nodes in counts:
        np_ = planner.plan(n, nodes).npencils
        while n % np_ != 0:
            np_ += 1
        for case, tpn, granularity in _CASES:
            q = np_ if granularity == "slab" else 1
            p2p = alltoall_p2p_bytes(n, nodes * tpn, np_, nv=3, q=q)
            cells.append(Table2Case(case, nodes, tpn, p2p / MiB))
    return tuple(cells)


@dataclass(frozen=True)
class Table2Result:
    comparisons: list[ComparisonRow]
    analytic_bw: dict[tuple[str, int], float]
    simulated_bw: dict[tuple[str, int], float]

    def report(self) -> str:
        return format_table(
            "Table 2 — effective all-to-all bandwidth per node (GB/s)",
            self.comparisons,
        )

    def max_analytic_vs_simulated_gap(self) -> float:
        gaps = [
            abs(self.analytic_bw[k] - self.simulated_bw[k]) / self.analytic_bw[k]
            for k in self.analytic_bw
        ]
        return max(gaps)


def run(
    machine: MachineSpec | None = None,
    cells: Sequence[Table2Case] | None = None,
) -> Table2Result:
    machine = machine or summit()
    model = AllToAllModel(machine)
    comparisons = []
    analytic: dict[tuple[str, int], float] = {}
    simulated: dict[tuple[str, int], float] = {}
    for cell in cells if cells is not None else paperdata.TABLE2:
        p2p = cell.p2p_mib * MiB
        timing = model.timing(p2p, cell.nodes, cell.tasks_per_node, blocking=True)
        bw = timing.effective_bw_per_node / 1e9
        analytic[(cell.case, cell.nodes)] = bw

        kernel = StandaloneA2AKernel(machine, cell.nodes, cell.tasks_per_node)
        sim_bw = kernel.effective_bandwidth(p2p) / 1e9
        simulated[(cell.case, cell.nodes)] = sim_bw

        if cell.bw_gb_s is None:
            continue
        comparisons.append(
            ComparisonRow(
                f"case {cell.case} @ {cell.nodes:5d} nodes "
                f"(P2P {cell.p2p_mib:7.3f} MB)",
                bw,
                cell.bw_gb_s,
                "GB/s",
                note="paper flags anomalous" if cell.anomalous else "",
            )
        )
    return Table2Result(
        comparisons=comparisons, analytic_bw=analytic, simulated_bw=simulated
    )


if __name__ == "__main__":  # pragma: no cover - manual tool
    print(run().report())
