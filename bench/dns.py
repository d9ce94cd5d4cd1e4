"""The four DNS workloads: one solver stepped for a fixed wall-clock window.

All share the inputs (``random_isotropic_field(energy=1.0)`` from the seed,
``nu=0.01``, RK2, ``dt=1e-3``, ``diagnostics_every=10``, two warm-up steps
inside set-up) and differ only in which engine advances them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from bench.harness import Outcome, Workload, median, p90, per, steady, window
from bench.trace import Tracer

DT = 1e-3
NU = 0.01
WARMUP_STEPS = 2
#: Reference agreement and solenoidality gates (absolute).
REF_REL_ERR_MAX = 1e-10
DIVERGENCE_MAX = 1e-10
ENERGY_REL_TOL = 1e-10


@dataclass
class DnsState:
    grid: object
    u0: np.ndarray
    config: object
    solver: object
    scratch: Path
    comm: object = None
    spawn_s: float = 0.0
    #: Copy of the state after ``check_steps`` steps of the window, and the
    #: energy the solver reported for that step (NaN if it computed none).
    checked: Optional[np.ndarray] = None
    checked_energy: float = math.nan
    final: Optional[np.ndarray] = None
    closed: bool = False


def _gather(solver) -> np.ndarray:
    gather = getattr(solver, "gather_state", None)
    return gather() if gather is not None else solver.u_hat.copy()


def _energy(solver) -> float:
    from repro.spectral.diagnostics import kinetic_energy

    if hasattr(solver, "kinetic_energy"):
        return float(solver.kinetic_energy())
    return float(kinetic_energy(solver.u_hat, solver.grid))


class DnsWorkload(Workload):
    """``size``: ``engine`` ("serial" | "slab_procs" | "ooc"), ``n`` (grid),
    ``run_steps`` (the fixed-T run that ``run_s`` times), ``check_steps``
    (the step of the window whose state is checked), the engine's keys read
    by :meth:`_build`, and for toy runs ``step_cap``."""

    def __init__(self, name: str, size: dict):
        super().__init__(size)
        self.name = name
        self.engine = size["engine"]
        self.layers = {
            "serial": ("spectral",),
            "slab_procs": ("dist", "mpi"),
            "ooc": ("dist", "ooc", "exec"),
        }[self.engine]
        #: Whether one step spans processes or threads (see ``harness.steady``).
        self.concurrent = (
            self.engine == "slab_procs" or size.get("pipeline") == "threads")

    # -- set-up ---------------------------------------------------------------

    def _build(self, state: DnsState) -> None:
        size = self.size
        if self.engine == "serial":
            from repro.spectral import NavierStokesSolver

            state.solver = NavierStokesSolver(state.grid, state.u0, state.config)
            return
        from repro.dist import DistributedNavierStokesSolver
        from repro.mpi.procs import make_comm

        if self.engine == "slab_procs":
            start = perf_counter()
            state.comm = make_comm("procs", size["ranks"], fft_backend="numpy")
            state.spawn_s = perf_counter() - start
            state.solver = DistributedNavierStokesSolver(
                state.grid, state.comm, state.u0, state.config
            )
        else:
            state.comm = make_comm("virtual", size["ranks"])
            state.solver = DistributedNavierStokesSolver(
                state.grid, state.comm, state.u0, state.config,
                npencils=size["npencils"], pipeline=size["pipeline"],
                inflight=size["inflight"], copy_strategy="memcpy2d",
            )

    def setup(self, seed: int, scratch: Path) -> DnsState:
        from repro.spectral import SolverConfig, SpectralGrid, random_isotropic_field

        grid = SpectralGrid(self.size["n"])
        state = DnsState(
            grid=grid,
            u0=random_isotropic_field(grid, np.random.default_rng(seed), energy=1.0),
            config=SolverConfig(nu=NU, scheme="rk2", seed=seed,
                                fft_backend="numpy", diagnostics_every=10),
            solver=None, scratch=scratch,
        )
        try:
            self._build(state)
            for _ in range(WARMUP_STEPS):
                state.solver.step(DT)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state: DnsState) -> None:
        if state.closed:
            return
        state.closed = True
        close = getattr(state.solver, "close", None)
        if close is not None:
            close()
        close = getattr(state.comm, "close", None)
        if close is not None:
            close()

    # -- the measured window --------------------------------------------------

    def run(self, state: DnsState, seconds: float, trace: bool) -> Outcome:
        outcome = Outcome()
        solver, comm = state.solver, state.comm
        check_steps, run_steps = self.size["check_steps"], self.size["run_steps"]
        energies: list[float] = [_energy(solver)]
        live_cpu = getattr(comm, "live_worker_cpu_seconds", None)
        cpu_before = sum(live_cpu()) if live_cpu else 0.0
        records_before = len(comm.stats.records) if comm is not None else 0
        tracer = Tracer()
        #: (start, end) of every untraced step, in runs of consecutive steps
        #: with nothing but the loop between them.
        stretches: list[list[tuple[float, float]]] = [[]]
        traced: list[float] = []

        for traced_step in window(seconds, trace, self.size.get("step_cap"),
                                  at_least=max(check_steps, run_steps)):
            outcome.attempted += 1
            if traced_step:
                tracer.install(self.layers)
            start = perf_counter()
            try:
                result = solver.step(DT)
            except Exception as exc:  # the solver is unusable after this
                outcome.failed += 1
                outcome.problems.append(f"step raised {type(exc).__name__}: {exc}")
                break
            finally:
                end = perf_counter()
                tracer.restore()
            if traced_step:
                traced.append(end - start)
            else:
                stretches[-1].append((start, end))
            if not math.isnan(result.energy):
                energies.append(float(result.energy))
            if outcome.attempted == check_steps:
                # The step every run reaches: its state is what ``verify``
                # holds against the reference engine.
                state.checked = _gather(solver)
                state.checked_energy = float(result.energy)
                stretches.append([])
        start = perf_counter()
        energies.append(_energy(solver))
        closing_s = perf_counter() - start
        state.final = _gather(solver)
        self._check_series(energies, outcome)

        walls = [end - start for stretch in stretches for start, end in stretch]
        if not trace:
            # Time to solution at fixed T: ``run_steps`` consecutive steps as
            # they ran, first step begun to last step done (so whatever
            # happens every few steps is in it), plus the closing energy.
            runs = [stretch[i + run_steps - 1][1] - stretch[i][0]
                    for stretch in stretches
                    for i in range(len(stretch) - run_steps + 1)]
            outcome.end_to_end["op_s"] = steady(walls, self.concurrent)
            outcome.end_to_end["run_s"] = steady(runs, self.concurrent) + closing_s
            outcome.notes.update(
                run_steps=run_steps, run_samples=len(runs),
                run_median_s=median(runs) + closing_s)
        outcome.notes.update(
            steps=len(walls) + len(traced), op_samples=len(walls),
            op_median_s=median(walls), op_p90_s=p90(walls), n=self.size["n"],
        )
        if traced:
            self.teardown(state)  # final worker CPU readings arrive at close
            cpu = sum(getattr(comm, "worker_cpu_seconds", ())) - cpu_before
            self._per_layer(state, tracer, outcome, walls, traced,
                            records_before, per(cpu, len(walls) + len(traced)))
        return outcome

    @staticmethod
    def _check_series(energies: list[float], outcome: Outcome) -> None:
        if not all(math.isfinite(e) for e in energies):
            outcome.problems.append(f"non-finite energy in {energies}")
        elif any(b > a for a, b in zip(energies, energies[1:])):
            outcome.problems.append(f"energy increased: {energies}")

    # -- per-layer metrics (per RK step unless noted) -------------------------

    def _per_layer(self, state, tracer, outcome, walls, traced,
                   records_before, worker_cpu_s) -> None:
        steps = len(traced)
        n = self.size["n"]
        m = outcome.per_layer
        m.update(tracer.layer_metrics(steps))
        # One r2c or c2r transform reads N^3 reals and writes N^2(N/2+1)
        # complex (or the reverse): computed from shapes, cache misses ignored.
        transform_bytes = n**3 * 8 + n * n * (n // 2 + 1) * 16
        m["spectral.fft_bytes_computed"] = m["spectral.fft_calls"] * transform_bytes
        if self.engine == "serial":
            m["spectral.step_p90_s"] = p90(traced)
        if state.comm is not None:
            # Exact counts from the communicator's own log, over every step
            # of the window (the log does not say which steps were traced).
            exchanges = [
                r for r in state.comm.stats.records[records_before:]
                if r.kind in ("alltoall", "ialltoall")
            ]
            every = len(walls) + steps
            m["dist.a2a_bytes"] = per(sum(r.total_bytes for r in exchanges), every)
            m["dist.a2a_messages"] = per(sum(r.messages for r in exchanges), every)
        if self.engine == "slab_procs":
            step_s = steady(walls + traced, self.concurrent)
            m["mpi.procs.worker_cpu_s"] = worker_cpu_s
            m["mpi.procs.parallel_frac"] = per(
                worker_cpu_s, self.size["ranks"] * step_s)
            m["mpi.procs.spawn_s"] = state.spawn_s
        if self.engine == "ooc":
            # Stream busy time over the wall of the transforms that own the
            # streams; above 1 only when streams really overlap.
            m["exec.overlap_ratio"] = per(
                tracer.total("exec.op"), tracer.total("dist.fft"))
        m["trace.coverage_frac"] = per(tracer.covered(), sum(traced))
        m["obs.trace_overhead_frac"] = per(
            steady(traced, self.concurrent), steady(walls, self.concurrent)) - 1.0
        outcome.notes.update(traced_steps=steps, spans=len(tracer.spans))
        if self.engine == "serial":
            self._checkpoint(state, m)

    def _checkpoint(self, state: DnsState, m: dict) -> None:
        """Cost of one checkpoint round trip of the final state (not part of
        any end-to-end metric today)."""
        from repro.io import load_checkpoint, save_checkpoint

        state.scratch.mkdir(parents=True, exist_ok=True)
        path = state.scratch / "state.npz"
        start = perf_counter()
        save_checkpoint(path, state.solver)
        m["io.checkpoint_save_s"] = perf_counter() - start
        m["io.checkpoint_bytes"] = float(path.stat().st_size)
        start = perf_counter()
        load_checkpoint(path, grid=state.grid)
        m["io.checkpoint_load_s"] = perf_counter() - start

    # -- verification ---------------------------------------------------------

    def verify(self, state: DnsState, outcome: Outcome) -> None:
        """The state after ``check_steps`` measured steps against an
        independent engine advanced as far on the same inputs, the energy the
        solver reported for that step, the seed-0 golden energy, and
        solenoidality at the end."""
        from repro.spectral.diagnostics import kinetic_energy, max_divergence

        if state.checked is None:
            outcome.problems.append("the run ended before its checked step")
            return
        reference = self._reference(state)
        scale = float(np.max(np.abs(reference)))
        ref_rel_err = float(np.max(np.abs(state.checked - reference))) / scale
        if not ref_rel_err <= REF_REL_ERR_MAX:
            outcome.problems.append(
                f"ref_rel_err {ref_rel_err:.3e} > {REF_REL_ERR_MAX:g}")
        divergence = float(max_divergence(state.final, state.grid))
        if not divergence < DIVERGENCE_MAX:
            outcome.problems.append(
                f"max|k.u| {divergence:.3e} >= {DIVERGENCE_MAX:g}")
        energy = float(kinetic_energy(state.checked, state.grid))
        wanted = {"reference": float(kinetic_energy(reference, state.grid))}
        golden = self.size.get("golden_energy")
        if golden is not None and state.config.seed == 0:
            wanted["golden"] = golden
        for label, want in wanted.items():
            for got in (energy, state.checked_energy):
                # NaN: the solver computed no diagnostics on that step.
                if abs(got - want) > ENERGY_REL_TOL * abs(want):
                    outcome.problems.append(
                        f"energy at the checked step {got!r} != {label} {want!r}")
        outcome.notes.update(
            ref_rel_err=ref_rel_err, max_divergence=divergence,
            checked_energy=energy,
        )
        if outcome.per_layer:
            outcome.per_layer["check.ref_rel_err"] = ref_rel_err
            outcome.per_layer["check.max_divergence"] = divergence

    def _reference(self, state: DnsState) -> np.ndarray:
        """The same inputs through a different engine: the serial solver for
        the distributed workloads, the in-process whole-slab distributed
        solver for the serial one, advanced to the checked step."""
        steps = WARMUP_STEPS + self.size["check_steps"]
        if self.engine != "serial":
            from repro.spectral import NavierStokesSolver

            ref = NavierStokesSolver(state.grid, state.u0, state.config)
            for _ in range(steps):
                ref.step(DT)
            return ref.u_hat
        from repro.dist import DistributedNavierStokesSolver
        from repro.mpi.procs import make_comm

        with DistributedNavierStokesSolver(
            state.grid, make_comm("virtual", 2), state.u0, state.config
        ) as ref:
            for _ in range(steps):
                ref.step(DT)
            return ref.gather_state()

