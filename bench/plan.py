"""``plan_ladder``: the cost plane only — capacity quotes over a fixed ladder
of Summit-scale configurations, then the Table 3 model cells.  No array
data moves; every second reported by the model is *modelled*, not measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from bench.harness import Outcome, Workload, fastest, median, p90, per, window
from bench.trace import Tracer

GRIDS = (3072, 6144, 12288, 18432)
#: Table 3's production cell: 18432^3 on 3072 nodes, one slab per all-to-all.
PRODUCTION_CELL = (3072, "gpu_c")
#: ``model_step_s`` may drift this much (relative) and ``model_rel_err`` this
#: much (absolute) from ``golden.json`` before the run counts as wrong.
MODEL_STEP_TOL = 0.02
MODEL_ERR_TOL = 0.005


def ladder_key(machine: str, kwargs: dict) -> str:
    return (f"{machine}:{kwargs['n']}:{kwargs['copy_strategy']}:"
            f"{kwargs['q']}:{kwargs['tasks_per_node']}")


@dataclass
class PlanState:
    planners: dict
    ladder: list[tuple[str, dict]]
    feasible: dict[str, bool] = field(default_factory=dict)
    table3: object = None


class PlanWorkload(Workload):
    """``size``: ``golden`` (expected feasibility + Table 3 seconds); toy
    runs add ``pass_cap`` (untraced passes) and ``ladder_cap`` (entries)."""

    name = "plan_ladder"
    layers = ("plan",)

    def _ladder(self, seed: int) -> list[tuple[str, dict]]:
        """grids x copy strategies x q x tasks/node on Summit, plus the
        18432^3 row on the other machines; the seed sets the order."""
        from repro.plan.capacity import COPY_STRATEGIES, MACHINES

        ladder = [
            ("summit", dict(n=n, copy_strategy=strategy, q=q, tasks_per_node=tpn))
            for n in GRIDS
            for strategy in COPY_STRATEGIES
            for q in (1, "slab")
            for tpn in (2, 6)
        ]
        ladder += [
            (machine, dict(n=GRIDS[-1], copy_strategy="memcpy2d", q=1,
                           tasks_per_node=6))
            for machine in MACHINES if machine != "summit"
        ]
        random.Random(seed).shuffle(ladder)
        return ladder[:self.size.get("ladder_cap")]

    def setup(self, seed: int, scratch: Path) -> PlanState:
        """Planners for every machine model, the ladder, and one warm-up
        quote per machine (imports and first-call set-up)."""
        from repro.plan import CapacityPlanner
        from repro.plan.capacity import MACHINES

        planners = {machine: CapacityPlanner(machine) for machine in MACHINES}
        for planner in planners.values():
            planner.quote(GRIDS[0])
        return PlanState(planners, self._ladder(seed))

    def teardown(self, state: PlanState) -> None:
        for planner in state.planners.values():
            planner.close()

    def _pass(self, state: PlanState, outcome: Outcome) -> list[float]:
        """Quote the whole ladder once; returns the wall of every quote."""
        quotes: list[float] = []
        for machine, kwargs in state.ladder:
            outcome.attempted += 1
            start = perf_counter()
            try:
                quote = state.planners[machine].quote(**kwargs)
            except Exception as exc:
                outcome.failed += 1
                outcome.problems.append(
                    f"quote {ladder_key(machine, kwargs)} raised "
                    f"{type(exc).__name__}: {exc}")
                continue
            quotes.append(perf_counter() - start)
            state.feasible[ladder_key(machine, kwargs)] = quote.feasible
        return quotes

    def run(self, state: PlanState, seconds: float, trace: bool) -> Outcome:
        from repro.experiments import table3

        outcome = Outcome()
        tracer = Tracer()
        plain: list[list[float]] = []
        traced: list[list[float]] = []
        for traced_pass in window(seconds, trace, self.size.get("pass_cap")):
            if traced_pass:
                with tracer.install(self.layers):
                    traced.append(self._pass(state, outcome))
            else:
                plain.append(self._pass(state, outcome))
        # Each ladder entry at its fastest pass: their median is the typical
        # quote.  The run is one whole pass as it ran, the fastest of them.
        quotes = [fastest(by_entry) for by_entry in zip(*plain)]
        every = [q for sweep in plain for q in sweep]
        passes = [sum(sweep) for sweep in plain]
        outcome.end_to_end["op_s"] = median(quotes)
        outcome.end_to_end["run_s"] = fastest(passes)
        outcome.notes.update(
            passes=len(plain), op_samples=len(every), op_median_s=median(every),
            op_p90_s=p90(every), run_median_s=median(passes),
            ladder=len(state.ladder),
        )
        # Table 3 once per run, traced when anything is, for the model cells.
        with tracer.install(self.layers if trace else ()):
            start = perf_counter()
            state.table3 = table3.run(trace=True)
            table3_wall = perf_counter() - start
        outcome.attempted += len(state.table3.timings)
        if traced:
            self._per_layer(tracer, outcome, quotes, traced, table3_wall)
        return outcome

    def _per_layer(self, tracer, outcome, quotes, traced, table3_wall) -> None:
        m = outcome.per_layer
        traced_quotes = [q for sweep in traced for q in sweep]
        m["plan.quote_p90_s"] = p90(traced_quotes)
        m["plan.sweep_s"] = median(sum(sweep) for sweep in traced)
        for algorithm in ("async_gpu", "cpu_baseline"):
            m[f"core.simulate_step_s.{algorithm}"] = median(
                s.duration
                for s in tracer.named(f"core.simulate_step.{algorithm}"))
        m["trace.coverage_frac"] = per(
            tracer.covered(), sum(traced_quotes) + table3_wall)
        m["obs.trace_overhead_frac"] = per(
            median(fastest(by_entry) for by_entry in zip(*traced)),
            median(quotes)) - 1.0
        outcome.notes.update(traced_passes=len(traced), spans=len(tracer.spans))

    def verify(self, state: PlanState, outcome: Outcome) -> None:
        """Feasibility of every quote and the Table 3 modelled seconds
        against ``golden.json``; the model numbers themselves are reported
        (they are deterministic, so two runs must agree exactly)."""
        result = state.table3
        production = result.timings[PRODUCTION_CELL]
        model_rel_err = sum(abs(c.error) for c in result.comparisons) / len(
            result.comparisons)
        golden = self.size.get("golden")
        if golden is not None:
            for key, feasible in sorted(state.feasible.items()):
                if golden["feasible"].get(key) != feasible:
                    outcome.failed += 1
                    outcome.problems.append(
                        f"quote {key}: feasible={feasible}, golden "
                        f"{golden['feasible'].get(key)}")
            for row in result.comparisons:
                want = golden["table3_model_s"][row.label]
                if abs(row.model - want) > MODEL_STEP_TOL * want:
                    outcome.failed += 1
                    outcome.problems.append(
                        f"table3 {row.label}: model {row.model:.4f} s, "
                        f"golden {want:.4f} s")
            if model_rel_err > golden["model_rel_err"] + MODEL_ERR_TOL:
                outcome.problems.append(
                    f"model_rel_err {model_rel_err:.4f} > golden "
                    f"{golden['model_rel_err']:.4f} + {MODEL_ERR_TOL}")
        outcome.notes.update(
            model_step_s=production.step_time, model_rel_err=model_rel_err)
        if outcome.per_layer:
            m = outcome.per_layer
            m["core.model.step_s"] = production.step_time
            m["core.model.rel_err"] = model_rel_err
            m["core.model.gpu_busy_s"] = production.gpu_busy_time
            m["core.model.mpi_s"] = production.mpi_time
            for category in ("h2d", "d2h", "fft"):
                m[f"core.model.breakdown.{category}"] = production.breakdown.get(
                    category, 0.0)
