"""The pseudo-spectral Navier-Stokes step distributed over virtual ranks.

This mirrors :class:`repro.spectral.solver.NavierStokesSolver` but with the
state slab-decomposed exactly as the paper's production code: spectral
coefficients live in kz-slabs, each RK substage transforms the three
velocity components to physical space (y, transpose, z, x), forms the six
nonlinear products on y-slabs, and transforms them back (x, z, transpose,
y) — 3 inverse + 6 forward distributed 3-D FFTs in conservative form.  Each
passive scalar (:meth:`DistributedNavierStokesSolver.add_scalar`) is one
more component of the per-rank state and adds 1 inverse + 3 forward
transforms per substage.  The solver asks its engine for all of them in one
``product_spectra`` call, which batches every field into two all-to-alls
per substage: in process the out-of-core engine's three pencil pipelines
(the whole slab is its one-pencil case), over ``comm="procs"`` without
pencils two exchanges fused into the workers' packs and unpacks.

Everything between the transforms — shift, assembly, projection, the RK
combination — is the serial solver's
:class:`~repro.spectral.pointwise.PointwiseKernel`, one bound to each rank's
kz-slab, writing into buffers the solver claims once from the engine
(``resident``).  Each rank's share is a module-level function run through
the engine's ``each_rank``: out of core on the rank's own compute lane, so
under ``pipeline="threads"`` the ranks' pointwise work runs side by side as
on the paper's one-GPU-per-rank nodes (Fig. 5); over ``comm="procs"`` in
the rank's worker process, on state that lives in its shared memory.

Given identical seeds the distributed solver reproduces the single-process
solver bit-for-bit up to floating-point reassociation (tests assert
agreement to ~1e-12), which is the correctness pillar under the performance
model of :mod:`repro.core`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dist.decomp import SlabDecomposition
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import NULL_OBS, NULL_SPAN
from repro.spectral.dealias import random_shift
from repro.spectral.grid import SpectralGrid
from repro.spectral.pointwise import PRODUCT_PAIRS, PointwiseKernel
from repro.spectral.scalar import PassiveScalar
from repro.spectral.solver import (IntegratingFactorRK, SolverConfig,
                                   StepResult, combine_components, energy_sums,
                                   variance_sum)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["DistributedNavierStokesSolver"]


# -- per-rank work --------------------------------------------------------------
#
# Module-level, so that every engine runs the one body wherever the rank
# lives: inline, on the rank's compute lane, or in its worker process.


def _dealias(kernel: PointwiseKernel, local: np.ndarray) -> None:
    kernel.truncate(local)
    kernel.project(local, out=local)


def _shift(kernel: PointwiseKernel, shift, state: np.ndarray,
           out: np.ndarray) -> None:
    """The state's coefficients on the grid displaced by ``shift``."""
    kernel.shifted(state, kernel.shift_bases(shift), out)


def _assemble(kernel: PointwiseKernel, spectra: np.ndarray, shift,
              state: np.ndarray, rhs: np.ndarray, gradients) -> None:
    """The rank's right-hand side from its product spectra: each scalar's
    ``-div(u theta) - G u_y``, then the momentum term.  Scalars first:
    ``rhs`` may be ``state`` (the last RK stage), and ``u_y`` is read."""
    bases = None if shift is None else kernel.shift_bases(shift)
    for s, gradient in enumerate(gradients, start=3):
        kernel.accumulate(rhs, [(c, s) for c in range(3)],
                          spectra[3 * s - 3:3 * s])
        kernel.scalar_rhs(rhs[s], bases, rhs[s], gradient, state[1])
    kernel.accumulate(rhs, PRODUCT_PAIRS, spectra[:6])
    kernel.rhs(rhs[:3], bases, rhs[:3])


class DistributedNavierStokesSolver(IntegratingFactorRK):
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
        Pencils per slab of the out-of-core pencil engine
        (:class:`~repro.dist.outofcore.OutOfCoreSlabFFT`), which runs
        under a byte-budgeted device arena; ``pipeline``/``inflight``/
        ``device_bytes`` are forwarded.  ``None`` (default) is the whole
        slab: one pencil in process, and over a comm that offers
        ``rank_transpose`` (``comm="procs"``) the worker-fused
        :class:`~repro.dist.slab_fft.SlabDistributedFFT`, which takes no
        ``fuzz``, ``monitor`` or ``dlb``.
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
        Out-of-core compute-lane policy.  Every rank computes on its own
        lane; ``"off"`` keeps each pencil there, ``"lend"`` lends and
        reclaims unstarted pencils between lanes deterministically;
        forwarded to
        :class:`~repro.dist.outofcore.OutOfCoreSlabFFT`, which prices the
        ``"lend"`` lane clocks with the ``fuzz`` profile's imbalance.
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
    ):
        self.grid = grid
        self.comm = comm
        self.config = config or SolverConfig()
        self.obs = obs if obs is not None else NULL_OBS
        heights = SlabDecomposition.partition(
            grid.n, comm.size, heights, skew).heights
        if npencils is None and getattr(comm, "rank_transpose", None) is not None:
            if fuzz is not None or monitor is not None or dlb != "off":
                raise ValueError(
                    "fuzz, monitor and dlb need pencils over worker "
                    "processes (set npencils with comm='procs')"
                )
            self.fft = SlabDistributedFFT(
                grid, comm, obs=self.obs, fft_backend=self.config.fft_backend,
                heights=heights,
            )
        else:
            self.fft = OutOfCoreSlabFFT(
                grid, comm, npencils or 1, device_bytes=device_bytes,
                obs=self.obs, pipeline=pipeline, inflight=inflight, fuzz=fuzz,
                monitor=monitor, copy_strategy=copy_strategy, heights=heights,
                dlb=dlb, fft_backend=self.config.fft_backend,
            )
        self.decomp: SlabDecomposition = self.fft.decomp
        self._rank_spans = [
            self.obs.spans.child("local") for _ in range(comm.size)
        ]
        self._rng = np.random.default_rng(self.config.seed)

        if u_hat_global.shape != (3, *grid.spectral_shape):
            raise ValueError(
                f"initial condition must have shape {(3, *grid.spectral_shape)}"
            )
        self._kernels = [
            PointwiseKernel(grid, self.config.dealias,
                            self.decomp.spectral_slice(r))
            for r in range(comm.size)
        ]
        self._buffers: dict[str, list[np.ndarray]] = {}

        # State: per rank, (3 + S, mz, N, nxh) complex, where the rank lives.
        self._state = self._claim(3)
        for r, local in enumerate(self._state):
            local[...] = u_hat_global[:, self.decomp.spectral_slice(r)]
        self.fft.each_rank(_dealias, self._kernels, self._state)
        self.scalars: list[PassiveScalar] = []
        self.time = 0.0
        self.step_count = 0

    @property
    def u_hat(self) -> list[np.ndarray]:
        """Per rank, the velocity slab ``(3, mz, N, nxh)``: views of the state."""
        return [s[:3] for s in self._state]

    def add_scalar(
        self,
        theta_hat_global: np.ndarray,
        schmidt: float = 1.0,
        mean_gradient: float = 0.0,
    ) -> int:
        """Append a dealiased copy of the global ``theta_hat`` to every rank's
        state; returns its index in :attr:`scalars`."""
        if theta_hat_global.shape != self.grid.spectral_shape:
            raise ValueError(
                f"scalar must have spectral shape {self.grid.spectral_shape}"
            )
        self.scalars.append(PassiveScalar(theta_hat_global, schmidt, mean_gradient))
        state = self._claim(self._state[0].shape[0] + 1)
        for r, kernel in enumerate(self._kernels):
            state[r][:-1] = self._state[r]
            state[r][-1] = theta_hat_global[self.decomp.spectral_slice(r)]
            kernel.truncate(state[r][-1])
        self._state = state
        for s, scalar in enumerate(self.scalars, start=3):
            scalar.theta_hat = [state[s] for state in self._state]
        self._buffers.clear()  # stage buffers are state-shaped
        return len(self.scalars) - 1

    def close(self) -> None:
        """Release engine resources (stops out-of-core stream workers)."""
        closer = getattr(self.fft, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "DistributedNavierStokesSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- per-rank scratch ----------------------------------------------------

    def _claim(self, fields: int) -> list[np.ndarray]:
        """Per rank, ``fields`` spectral slabs where the rank's work runs."""
        return self.fft.resident(
            [(fields, *self.decomp.local_spectral_shape(r))
             for r in range(self.comm.size)], self.grid.cdtype)

    def _stage(self, key: str) -> list[np.ndarray]:
        """Named per-rank state-shaped slabs, created on first use and reused."""
        bufs = self._buffers.get(key)
        if bufs is None:
            bufs = self._buffers[key] = self._claim(self._state[0].shape[0])
        return bufs

    # -- the distributed nonlinear term -----------------------------------------

    def _nonlinear(
        self, state: Sequence[np.ndarray], out: Sequence[np.ndarray]
    ) -> Sequence[np.ndarray]:
        """Right-hand side of the whole state, per rank, into ``out``: the
        projected, dealiased conservative convective term in ``[:3]``, then
        ``-div(u theta) - G u_y`` per scalar from the same physical-space
        velocity (on the same shifted grid).

        One engine call turns the state into every product spectrum it
        needs: the six ``u_i u_j``, then ``u_c theta`` for each scalar.
        """
        cfg = self.config
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("solver.rhs.calls").inc()
        nfields = state[0].shape[0]
        pairs = PRODUCT_PAIRS + tuple(
            (c, s) for s in range(3, nfields) for c in range(3))
        # The product spectra, claimed once; the shifted coefficients are
        # dead once transformed, so they share the slabs.
        P = self.comm.size
        spectra = self._buffers.get("spectra")
        if spectra is None:
            spectra = self._buffers["spectra"] = self._claim(len(pairs))
        shifts = [None] * P
        coeffs = state  # what gets transformed: the state, shifted if asked
        if cfg.phase_shift:
            shifts = [tuple(map(float, random_shift(self.grid, self._rng)))] * P
            coeffs = [w[:nfields] for w in spectra]
            self.fft.each_rank(_shift, self._kernels, shifts, state, coeffs,
                               spans=self._rank_spans, wait=False)
        # The transposed slab lands in ``out``, dead until the assembly —
        # unless it is the state (on any rank: one may hold no planes)
        # and that is still read: unshifted, or u_y for a mean gradient.
        read = not cfg.phase_shift or any(s.mean_gradient for s in self.scalars)
        shared = any(map(np.may_share_memory, out, state))
        land = None if read and shared else out
        # Every caller combines the right-hand side next: a process pool
        # sends the shift, both exchanges, the assembly and the combination
        # as one message per worker.
        self.fft.product_spectra(coeffs, pairs, out=spectra, wait=False, land=land)
        gradients = [tuple(s.mean_gradient for s in self.scalars)] * P
        self.fft.each_rank(_assemble, self._kernels, spectra, shifts, state,
                           out, gradients, spans=self._rank_spans, wait=False)
        return out

    # -- time stepping ------------------------------------------------------------

    def _combine(self, jobs) -> None:
        """``kernel.combine`` on every rank; each output and term names a
        per-rank list."""
        P = self.comm.size
        per_rank = [[(out[r], [(tau, [(coef, a[r]) for coef, a in terms])
                               for tau, terms in groups])
                     for out, groups in jobs] for r in range(P)]
        self.fft.each_rank(combine_components, self._kernels,
                           [self._components()] * P, per_rank,
                           spans=self._rank_spans)

    def step(self, dt: float) -> StepResult:
        """Advance one RK2 or RK4 step (the serial solver's schemes)."""
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
            every = self.config.diagnostics_every
            if every > 0 and self.step_count % every == 0:
                with obs.spans.span("diagnostics.energy", category="diagnostics"):
                    energy, dissipation = self._energy_and_dissipation()
            else:
                energy = dissipation = math.nan
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

    # -- global diagnostics (allreduce over ranks) -----------------------------

    def _energy_and_dissipation(self) -> tuple[float, float]:
        """Both diagnostics from one sweep per rank."""
        locals_ = self.fft.each_rank(
            energy_sums, self._kernels, self._state,
            [self.config.nu] * self.comm.size, spans=self._rank_spans)
        energy, dissipation = self.comm.allreduce(locals_)[0]
        return float(energy), float(dissipation)

    def kinetic_energy(self) -> float:
        return self._energy_and_dissipation()[0]

    def dissipation_rate(self) -> float:
        return self._energy_and_dissipation()[1]

    def gather_state(self) -> np.ndarray:
        """Reassemble the global (3, N, N, N//2+1) spectral field."""
        return np.concatenate(self.u_hat, axis=1)

    def gather_scalar(self, index: int) -> np.ndarray:
        """Reassemble scalar ``index``'s global (N, N, N//2+1) coefficients."""
        return np.concatenate(self.scalars[index].theta_hat, axis=0)

    def scalar_variance(self, index: int) -> float:
        """<theta^2>/2 of scalar ``index`` (allreduce over ranks)."""
        locals_ = self.fft.each_rank(
            variance_sum, self._kernels, self.scalars[index].theta_hat,
            spans=self._rank_spans)
        return self.comm.allreduce(locals_)[0]
