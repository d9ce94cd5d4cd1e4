"""Fig. 9 reproduction: time-per-step vs node count, plus the MPI-only bound.

The figure plots the DNS under the three MPI configurations against a
standalone code performing only the required all-to-alls (the dotted green
lower bound): "Faster GPUs or optimization to the GPU kernels alone can at
best approach the performance of the dotted green line."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import Algorithm, RunConfig
from repro.core.executor import simulate_step
from repro.core.planner import MemoryPlanner
from repro.experiments import paperdata
from repro.machine.spec import MachineSpec
from repro.machine.summit import summit

__all__ = ["Fig9Result", "paper_cases", "run"]


def paper_cases() -> tuple[tuple[int, int], ...]:
    """The paper's (n, nodes) strong-scaling points from Table 3."""
    return tuple((row.n, row.nodes) for row in paperdata.TABLE3)

_SERIES = ("gpu_a", "gpu_b", "gpu_c", "mpi_only")


@dataclass(frozen=True)
class Fig9Result:
    node_counts: tuple[int, ...]
    times: dict[str, dict[int, float]]  # series -> nodes -> s/step

    def series(self, name: str) -> dict[int, float]:
        return self.times[name]

    def report(self) -> str:
        lines = [
            "Fig 9 — time per step vs node count",
            f"{'nodes':>6} " + " ".join(f"{s:>10}" for s in _SERIES),
        ]
        for m in self.node_counts:
            lines.append(
                f"{m:6d} " + " ".join(f"{self.times[s][m]:10.2f}" for s in _SERIES)
            )
        return "\n".join(lines)


def run(
    machine: MachineSpec | None = None,
    cases: Sequence[tuple[int, int]] | None = None,
) -> Fig9Result:
    """Time-per-step curves over any (n, nodes) cases (default: Table 3).

    Planner-derived cases regenerate the figure at scales or on machine
    models the paper never ran.
    """
    machine = machine or summit()
    planner = MemoryPlanner(machine)
    cases = tuple(cases) if cases is not None else paper_cases()
    node_counts = tuple(nodes for _, nodes in cases)
    sizes = {nodes: n for n, nodes in cases}

    times: dict[str, dict[int, float]] = {s: {} for s in _SERIES}
    for nodes in node_counts:
        n = sizes[nodes]
        np_ = planner.plan(n, nodes).npencils
        while n % np_ != 0:
            np_ += 1
        configs = {
            "gpu_a": RunConfig(n=n, nodes=nodes, tasks_per_node=6, npencils=np_,
                               q_pencils_per_a2a=1),
            "gpu_b": RunConfig(n=n, nodes=nodes, tasks_per_node=2, npencils=np_,
                               q_pencils_per_a2a=1),
            "gpu_c": RunConfig(n=n, nodes=nodes, tasks_per_node=2, npencils=np_,
                               q_pencils_per_a2a=np_),
            "mpi_only": RunConfig(n=n, nodes=nodes, tasks_per_node=2, npencils=np_,
                                  q_pencils_per_a2a=np_,
                                  algorithm=Algorithm.MPI_ONLY),
        }
        for name, cfg in configs.items():
            times[name][nodes] = simulate_step(cfg, machine, trace=False).step_time
    return Fig9Result(node_counts=node_counts, times=times)


if __name__ == "__main__":  # pragma: no cover - manual tool
    print(run().report())
