"""Table 1 reproduction: node counts, memory per node, pencils per slab.

The case list is *not* hard-coded to the paper's four rows: ``run`` takes
any sequence of (n, nodes) cases — sweeps at arbitrary machine scale, on
any :class:`~repro.machine.spec.MachineSpec` — and defaults to the paper
ladder.  Model-vs-paper
comparison rows are emitted only for cases the paper actually published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.planner import MemoryPlanner, PlanRow
from repro.experiments import paperdata
from repro.experiments.report import ComparisonRow, format_table
from repro.machine.spec import MachineSpec
from repro.machine.summit import summit

__all__ = ["Table1Result", "paper_cases", "run"]


def paper_cases() -> tuple[tuple[int, int], ...]:
    """The paper's (n, nodes) ladder from Table 1."""
    return tuple((ref.n, ref.nodes) for ref in paperdata.TABLE1)


@dataclass(frozen=True)
class Table1Result:
    rows: list[PlanRow]
    comparisons: list[ComparisonRow]
    min_nodes_18432: int
    valid_nodes_18432: list[int]

    def report(self) -> str:
        extra = [
            ComparisonRow(
                "min nodes for 18432^3 (Sec 3.5)",
                self.min_nodes_18432,
                paperdata.MIN_NODES_18432,
                "nodes",
            ),
        ]
        return format_table("Table 1 — memory planning", self.comparisons + extra)


def run(
    machine: MachineSpec | None = None,
    cases: Sequence[tuple[int, int]] | None = None,
) -> Table1Result:
    machine = machine or summit()
    planner = MemoryPlanner(machine)
    references = {(ref.n, ref.nodes): ref for ref in paperdata.TABLE1}
    rows: list[PlanRow] = []
    comparisons: list[ComparisonRow] = []
    for n, nodes in cases if cases is not None else paper_cases():
        row = planner.plan(n, nodes)
        rows.append(row)
        ref = references.get((n, nodes))
        if ref is None:
            continue
        comparisons.append(
            ComparisonRow(
                f"{ref.n}^3 @ {ref.nodes}: mem/node",
                row.memory_per_node_gib,
                ref.memory_per_node_gib,
                "GiB",
            )
        )
        comparisons.append(
            ComparisonRow(
                f"{ref.n}^3 @ {ref.nodes}: pencils",
                row.npencils,
                ref.npencils,
            )
        )
        comparisons.append(
            ComparisonRow(
                f"{ref.n}^3 @ {ref.nodes}: pencil size",
                row.pencil_gib,
                ref.pencil_gib,
                "GiB",
            )
        )
    return Table1Result(
        rows=rows,
        comparisons=comparisons,
        min_nodes_18432=planner.min_nodes(18432),
        valid_nodes_18432=planner.valid_node_counts(18432),
    )


if __name__ == "__main__":  # pragma: no cover - manual tool
    result = run()
    print(result.report())
    print("valid node counts for 18432^3:", result.valid_nodes_18432)
