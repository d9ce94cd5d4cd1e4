"""The six workloads and their frozen sizes.

Sizes were read off a 2-core box so a ten-second window holds a dozen or
more steps of the slowest workload; to fit a tighter time cap, cut
``--seconds`` or step counts, never grids, ranks, pencils or the job mix.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench.dns import DnsWorkload
from bench.harness import OUT_DIR, Workload
from bench.plan import PlanWorkload, ladder_key
from bench.serve import ServeWorkload

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: The checked step is the tenth of the solver's life (two warm-up steps come
#: first): the first on which the serial solver computes its diagnostics.
_OOC = dict(engine="ooc", n=96, ranks=2, npencils=4, inflight=3, run_steps=3,
            check_steps=8)

#: name -> size.  ``run_steps`` is the fixed-T run that ``run_s`` times: a
#: whole diagnostics period where the serial solver's every-tenth-step
#: diagnostics must be in it, three steps where a step takes over half a
#: second (the distributed solver diagnoses every step), so that a dozen
#: stretches fit the window and one of them can dodge a slow spell.  The serve
#: step counts keep the templates' 4:4:2:1 ratio.
NOMINAL: dict[str, dict] = {
    "serial_n96": dict(engine="serial", n=96, run_steps=10, check_steps=8),
    "slab_procs_p2_n64": dict(engine="slab_procs", n=64, ranks=2, run_steps=10,
                              check_steps=8),
    "ooc_sync_p2_n96": dict(_OOC, pipeline="sync"),
    "ooc_threads_p2_n96": dict(_OOC, pipeline="threads"),
    "serve_mix24": dict(jobs=24, templates={
        "A": dict(n=32, scheme="rk2", steps=20),
        "B": dict(n=24, scheme="rk4", steps=20),
        "C": dict(n=32, scheme="rk2", steps=10, ranks=2),
        "D": dict(n=32, scheme="rk2", steps=5, ranks=2, npencils=2,
                  pipeline="sync"),
    }),
    "plan_ladder": dict(),
}

#: The same code paths at sizes a test can afford: 16^3, two steps per part
#: of the window, four jobs, one pass over twelve ladder entries.  Not comparable to anything.
_TOY_STEPS = dict(run_steps=2, check_steps=2, step_cap=2)
TOY: dict[str, dict] = {
    "serial_n96": dict(engine="serial", n=16, **_TOY_STEPS),
    "slab_procs_p2_n64": dict(engine="slab_procs", n=16, ranks=2, **_TOY_STEPS),
    "ooc_sync_p2_n96": dict(_OOC, n=16, pipeline="sync", **_TOY_STEPS),
    "ooc_threads_p2_n96": dict(_OOC, n=16, pipeline="threads", **_TOY_STEPS),
    "serve_mix24": dict(jobs=4, round_cap=1, templates={
        "A": dict(n=16, scheme="rk2", steps=2),
        "B": dict(n=16, scheme="rk4", steps=2),
        "C": dict(n=16, scheme="rk2", steps=2, ranks=2),
        "D": dict(n=16, scheme="rk2", steps=2, ranks=2, npencils=2,
                  pipeline="sync"),
    }),
    "plan_ladder": dict(pass_cap=1, ladder_cap=12),
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def make(name: str, toy: bool = False) -> Workload:
    """Build the named workload at nominal (golden-checked) or toy size."""
    size = dict((TOY if toy else NOMINAL)[name])
    golden = load_golden()
    if name == "plan_ladder":
        size["golden"] = golden["plan_ladder"]
        return PlanWorkload(size)
    if name == "serve_mix24":
        return ServeWorkload(size)
    if not toy:
        size["golden_energy"] = golden["checked_energy_seed0"].get(name)
    return DnsWorkload(name, size)


def write_golden() -> None:
    """Recompute ``golden.json`` from the code as it is: the seed-0 energy
    at the checked step of each DNS workload, the feasibility of every
    ladder quote, and the Table 3 modelled seconds."""
    from repro.experiments import table3
    from repro.spectral.diagnostics import kinetic_energy

    scratch = OUT_DIR / "tmp-golden"  # handed to set-ups that write nothing
    checked = {}
    for name, size in NOMINAL.items():
        if "engine" not in size:
            continue
        workload = DnsWorkload(name, size)
        state = workload.setup(0, scratch)
        try:
            workload.run(state, 0.0, False)  # no longer than the checked step
        finally:
            workload.teardown(state)
        checked[name] = float(kinetic_energy(state.checked, state.grid))
    plan = PlanWorkload({})
    state = plan.setup(0, scratch)
    try:
        feasible = {
            ladder_key(machine, kwargs):
                state.planners[machine].quote(**kwargs).feasible
            for machine, kwargs in state.ladder
        }
    finally:
        plan.teardown(state)
    result = table3.run()
    GOLDEN_PATH.write_text(json.dumps({
        "checked_energy_seed0": checked,
        "plan_ladder": {
            "feasible": dict(sorted(feasible.items())),
            "table3_model_s": {c.label: c.model for c in result.comparisons},
            "model_rel_err": sum(abs(c.error) for c in result.comparisons)
            / len(result.comparisons),
        },
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
