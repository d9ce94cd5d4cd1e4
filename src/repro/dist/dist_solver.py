"""The pseudo-spectral Navier-Stokes step distributed over virtual ranks.

This mirrors :class:`repro.spectral.solver.NavierStokesSolver` but with the
state slab-decomposed exactly as the paper's production code: spectral
coefficients live in kz-slabs, each RK substage transforms the three
velocity components to physical space (y, transpose, z, x), forms the six
nonlinear products on y-slabs, and transforms them back (x, z, transpose,
y) — so each substage costs 3 inverse + 6 forward distributed 3-D FFTs and
therefore 9 all-to-alls in conservative form.

Given identical seeds the distributed solver reproduces the single-process
solver bit-for-bit up to floating-point reassociation (tests assert
agreement to ~1e-12), which is the correctness pillar under the performance
model of :mod:`repro.core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dist.decomp import SlabDecomposition, SlabGridView
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import NULL_OBS, NULL_SPAN
from repro.spectral.dealias import DealiasRule, sharp_truncation_mask
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig, StepResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["DistributedNavierStokesSolver"]


class DistributedNavierStokesSolver:
    """Slab-decomposed RK2/RK4 pseudo-spectral integrator.

    Parameters
    ----------
    grid, comm:
        Global grid and the virtual communicator (P = comm.size ranks).
    u_hat_global:
        Global initial spectral field ``(3, N, N, N//2+1)``; scattered into
        kz-slabs internally.  (Production codes generate locally; taking the
        global field keeps tests crisp.)
    config:
        Shares :class:`~repro.spectral.solver.SolverConfig` with the serial
        solver, including the phase-shift RNG seed, so both produce the same
        trajectory.
    obs:
        An :class:`~repro.obs.Observability` bundle.  Collective stages
        record spans on the main lane; rank-local work records into one
        child tracer per rank, merged back after every step under a
        ``rank<r>.`` lane prefix — so exported timelines group per rank,
        exactly like the per-process rows of the paper's Fig. 10.  With the
        out-of-core engine each pipeline stream additionally records on a
        ``stream.<name>`` lane (h2d / compute / d2h / comm).
    npencils:
        When set, the distributed transforms run through the out-of-core
        pencil engine (:class:`~repro.dist.outofcore.OutOfCoreSlabFFT`)
        with this many pencils per slab, under a byte-budgeted device
        arena; ``pipeline``/``inflight``/``device_bytes`` are forwarded.
        ``None`` (default) keeps the whole-slab
        :class:`~repro.dist.slab_fft.SlabDistributedFFT`.
    pipeline:
        Out-of-core execution backend: ``"sync"`` (inline, bit-exact
        reference) or ``"threads"`` (Fig. 4 overlap on worker threads).
    inflight:
        Bounded in-flight pencil window for ``pipeline="threads"``.
    copy_strategy:
        How the out-of-core engine moves pencils between strided host
        views and device ring slots (``per_chunk``, ``memcpy2d``,
        ``zero_copy``, or ``auto`` for the runtime autotuner); forwarded
        to :class:`~repro.dist.outofcore.OutOfCoreSlabFFT`.  All
        strategies are bit-identical.
    heights, skew:
        Uneven slab decomposition: ``heights`` pins each rank's slab
        extent explicitly; ``skew`` derives one via
        :func:`~repro.dist.decomp.skewed_heights` (rank 0 gets ~skew x the
        fair share).  Mutually exclusive; both default to the balanced
        partition.
    dlb:
        Out-of-core compute-lane policy: ``"off"`` (single compute
        stream), ``"pinned"`` (one lane per rank) or ``"lend"``
        (deterministic lend/reclaim of pencils between lanes); forwarded
        to :class:`~repro.dist.outofcore.OutOfCoreSlabFFT`.
    rank_weights:
        Per-rank compute slowdown factors pricing the DLB lane clocks.
        Defaults to the ``fuzz`` profile's imbalance plan factors when an
        imbalance is injected, else all-1.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        comm: VirtualComm,
        u_hat_global: np.ndarray,
        config: Optional[SolverConfig] = None,
        obs: "Observability | None" = None,
        npencils: Optional[int] = None,
        pipeline: str = "sync",
        inflight: int = 3,
        device_bytes: Optional[float] = None,
        fuzz=None,
        monitor=None,
        copy_strategy: str = "memcpy2d",
        heights: Optional[Sequence[int]] = None,
        skew: Optional[float] = None,
        dlb: str = "off",
        rank_weights: Optional[Sequence[float]] = None,
    ):
        self.grid = grid
        self.comm = comm
        self.config = config or SolverConfig()
        self.obs = obs if obs is not None else NULL_OBS
        if heights is not None and skew is not None:
            raise ValueError("pass either heights or skew, not both")
        if skew is not None:
            from repro.dist.decomp import skewed_heights

            heights = skewed_heights(grid.n, comm.size, skew)
        if rank_weights is None and fuzz is not None:
            from repro.verify.imbalance import ImbalancePlan

            plan = ImbalancePlan.from_profile(fuzz, comm.size)
            if plan is not None:
                rank_weights = [plan.factor(r) for r in range(comm.size)]
        if npencils is None:
            if fuzz is not None or monitor is not None:
                raise ValueError(
                    "fuzz/monitor verification hooks require the "
                    "out-of-core engine (set npencils)"
                )
            if dlb != "off":
                raise ValueError(
                    "dlb lanes require the out-of-core engine (set npencils)"
                )
            self.fft = SlabDistributedFFT(
                grid, comm, obs=self.obs, fft_backend=self.config.fft_backend,
                heights=heights,
            )
        else:
            from repro.dist.outofcore import OutOfCoreSlabFFT

            self.fft = OutOfCoreSlabFFT(
                grid,
                comm,
                npencils,
                device_bytes=device_bytes,
                obs=self.obs,
                pipeline=pipeline,
                inflight=inflight,
                fuzz=fuzz,
                monitor=monitor,
                copy_strategy=copy_strategy,
                heights=heights,
                dlb=dlb,
                rank_weights=rank_weights,
                fft_backend=self.config.fft_backend,
            )
        self.decomp: SlabDecomposition = self.fft.decomp
        self.views = [SlabGridView(grid, self.decomp, r) for r in range(comm.size)]
        self._rank_spans = [
            self.obs.spans.child("local") for _ in range(comm.size)
        ]
        self._rng = np.random.default_rng(self.config.seed)

        if u_hat_global.shape != (3, *grid.spectral_shape):
            raise ValueError(
                f"initial condition must have shape {(3, *grid.spectral_shape)}"
            )
        mask = sharp_truncation_mask(grid, self.config.dealias)
        self._mask_locals = [v.slice_spectral(mask) for v in self.views]

        # State: per rank, (3, mz, N, nxh) complex.
        self.u_hat: list[np.ndarray] = []
        for r in range(comm.size):
            sl = self.decomp.spectral_slice(r)
            local = np.array(u_hat_global[:, sl], dtype=grid.cdtype, copy=True)
            local *= self._mask_locals[r]
            self.u_hat.append(local)
        self._project_state()
        self.time = 0.0
        self.step_count = 0
        # Per-rank integrating factors, memoized by dt (the serial solver
        # memoizes through its SpectralWorkspace; ranks cache locally here
        # because each holds a different kz-slab of exp(-nu k^2 dt)).
        self._factor_cache: dict[float, list[np.ndarray]] = {}

    def close(self) -> None:
        """Release engine resources (stops out-of-core stream workers)."""
        closer = getattr(self.fft, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "DistributedNavierStokesSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- local spectral operations ------------------------------------------

    def _project_local(self, v: np.ndarray, view: SlabGridView) -> np.ndarray:
        kx, ky, kz = view.kx, view.ky, view.kz
        k_dot_v = kx * v[0] + ky * v[1] + kz * v[2]
        k_dot_v /= view.k_squared_nonzero
        out = np.empty_like(v)
        out[0] = v[0] - kx * k_dot_v
        out[1] = v[1] - ky * k_dot_v
        out[2] = v[2] - kz * k_dot_v
        if view.owns_mean_mode:
            out[:, 0, 0, 0] = v[:, 0, 0, 0]
        return out

    def _project_state(self) -> None:
        self.u_hat = [
            self._project_local(u, v) for u, v in zip(self.u_hat, self.views)
        ]

    def _shift_factor_local(self, view: SlabGridView, shift: np.ndarray) -> np.ndarray:
        phase = view.kx * shift[0] + view.ky * shift[1] + view.kz * shift[2]
        return np.exp(1j * phase).astype(self.grid.cdtype)

    # -- the distributed nonlinear term -----------------------------------------

    def _nonlinear(self, u_hat: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Projected, dealiased conservative convective term, per rank."""
        cfg = self.config
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("solver.rhs.calls").inc()
        shift = None
        if cfg.phase_shift:
            shift = self._rng.uniform(0.0, self.grid.dx, size=3)
        shift_locals = (
            [self._shift_factor_local(v, shift) for v in self.views]
            if shift is not None
            else None
        )

        # Velocity components to physical space (3 inverse distributed FFTs).
        u_phys: list[list[np.ndarray]] = []  # [component][rank]
        for c in range(3):
            comp = [u_hat[r][c] for r in range(self.comm.size)]
            if shift_locals is not None:
                comp = [comp[r] * shift_locals[r] for r in range(self.comm.size)]
            u_phys.append(self.fft.inverse(comp))

        # Six products, transformed back (6 forward distributed FFTs).
        pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        prod_hat: dict[tuple[int, int], list[np.ndarray]] = {}
        for i, j in pairs:
            with obs.spans.span("nl.products", category="nonlinear"):
                prod_phys = [
                    u_phys[i][r] * u_phys[j][r] for r in range(self.comm.size)
                ]
            ph = self.fft.forward(prod_phys)
            if shift_locals is not None:
                ph = [ph[r] * np.conj(shift_locals[r]) for r in range(self.comm.size)]
            prod_hat[(i, j)] = ph
            prod_hat[(j, i)] = ph

        out: list[np.ndarray] = []
        for r, view in enumerate(self.views):
            rank_spans = self._rank_spans[r]
            with rank_spans.span("nl.assemble", category="nonlinear"):
                k = (view.kx, view.ky, view.kz)
                nl = np.empty_like(u_hat[r])
                for i in range(3):
                    acc = k[0] * prod_hat[(i, 0)][r]
                    acc += k[1] * prod_hat[(i, 1)][r]
                    acc += k[2] * prod_hat[(i, 2)][r]
                    nl[i] = -1j * acc
                nl *= self._mask_locals[r]
            with rank_spans.span("nl.project", category="projection"):
                out.append(self._project_local(nl, view))
        return out

    # -- time stepping ------------------------------------------------------------

    def _integrating_factor_local(self, view: SlabGridView, dt: float) -> np.ndarray:
        return np.exp(-self.config.nu * view.k_squared * dt).astype(self.grid.dtype)

    def _integrating_factors(self, dt: float) -> list[np.ndarray]:
        """Per-rank exp(-nu k^2 dt), memoized by dt (read-only)."""
        factors = self._factor_cache.get(dt)
        if factors is None:
            if len(self._factor_cache) >= 32:
                self._factor_cache.pop(next(iter(self._factor_cache)))
            factors = [
                self._integrating_factor_local(v, dt) for v in self.views
            ]
            self._factor_cache[dt] = factors
        return factors

    def step(self, dt: float) -> StepResult:
        """Advance one RK2 or RK4 step (same schemes as the serial solver)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        obs = self.obs
        with (obs.spans.span("solver.step", category="step", n=self.grid.n,
                             ranks=self.comm.size, scheme=self.config.scheme)
              if obs.enabled else NULL_SPAN) as step_span:
            if self.config.scheme == "rk2":
                self._step_rk2(dt)
                evals = 2
            else:
                self._step_rk4(dt)
                evals = 4
            self.time += dt
            self.step_count += 1
            with obs.spans.span("diagnostics.energy", category="diagnostics"):
                energy = self.kinetic_energy()
                dissipation = self.dissipation_rate()
        if obs.enabled:
            obs.metrics.counter("solver.steps").inc()
            obs.metrics.histogram("solver.step.seconds").observe(
                step_span.duration
            )
            # Fold each rank's local spans into the shared timeline, one
            # lane prefix per rank (Tracer.merge keeps them distinct).
            for r, rank_spans in enumerate(self._rank_spans):
                obs.spans.merge(rank_spans, lane_prefix=f"rank{r}.")
                rank_spans.clear()
        return StepResult(
            time=self.time,
            dt=dt,
            energy=energy,
            dissipation=dissipation,
            nonlinear_evals=evals,
        )

    def _step_rk2(self, dt: float) -> None:
        spans = self.obs.spans
        e_full = self._integrating_factors(dt)
        with spans.span("rk2.stage1", category="stage"):
            r1 = self._nonlinear(self.u_hat)
            u_star = [
                e_full[r] * (self.u_hat[r] + dt * r1[r])
                for r in range(self.comm.size)
            ]
        with spans.span("rk2.stage2", category="stage"):
            r2 = self._nonlinear(u_star)
            self.u_hat = [
                e_full[r] * (self.u_hat[r] + (0.5 * dt) * r1[r]) + (0.5 * dt) * r2[r]
                for r in range(self.comm.size)
            ]

    def _step_rk4(self, dt: float) -> None:
        size = self.comm.size
        e_half = self._integrating_factors(0.5 * dt)
        e_full = self._integrating_factors(dt)
        u0 = self.u_hat
        k1 = self._nonlinear(u0)
        k2 = self._nonlinear(
            [e_half[r] * (u0[r] + (0.5 * dt) * k1[r]) for r in range(size)]
        )
        k3 = self._nonlinear(
            [e_half[r] * u0[r] + (0.5 * dt) * k2[r] for r in range(size)]
        )
        k4 = self._nonlinear(
            [e_full[r] * u0[r] + dt * (e_half[r] * k3[r]) for r in range(size)]
        )
        self.u_hat = [
            e_full[r] * u0[r]
            + (dt / 6.0)
            * (e_full[r] * k1[r] + 2.0 * e_half[r] * (k2[r] + k3[r]) + k4[r])
            for r in range(size)
        ]

    # -- global diagnostics (allreduce over ranks) -----------------------------

    def kinetic_energy(self) -> float:
        locals_ = [
            float(0.5 * np.sum(v.hermitian_weights * np.abs(u) ** 2))
            for u, v in zip(self.u_hat, self.views)
        ]
        return self.comm.allreduce(locals_)[0]

    def dissipation_rate(self) -> float:
        nu = self.config.nu
        locals_ = [
            float(nu * np.sum(v.hermitian_weights * v.k_squared * np.abs(u) ** 2))
            for u, v in zip(self.u_hat, self.views)
        ]
        return self.comm.allreduce(locals_)[0]

    def gather_state(self) -> np.ndarray:
        """Reassemble the global (3, N, N, N//2+1) spectral field."""
        return np.concatenate(self.u_hat, axis=1)
