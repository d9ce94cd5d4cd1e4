"""Time integration of the spectral Navier-Stokes equations (paper Sec. 2).

Each Fourier mode obeys the ODE (paper Eq. 2)::

    d u_hat / dt = P_k[ -(div(u u))_hat ] - nu k^2 u_hat + f_hat

The stiff viscous term is removed exactly with the integrating factor
``exp(nu k^2 t)``; the remaining nonlinearity is advanced with explicit
second- or fourth-order Runge-Kutta (RK2/RK4 — the paper reports RK2
timings; RK4 "approximately doubles" the per-step cost, which the
performance layer's
``tests/core/test_executor.py::test_rk4_roughly_doubles_rk2`` verifies).

Passive scalars (:meth:`NavierStokesSolver.add_scalar`) are further
components of the one marched state ``(3 + S, N, N, N//2+1)``: the same stage
table advances them, each with its own diffusivity ``nu / Sc`` in the
integrating factor, and their flux is formed from the physical-space velocity
the momentum term has just computed.

Every stage writes into pre-allocated
:class:`~repro.spectral.workspace.SpectralWorkspace` buffers: transforms go
through the configured backend, everything between them through one
:class:`~repro.spectral.pointwise.PointwiseKernel` (shared with the
distributed solver) — zero full-grid allocations at steady state.  The
textbook forms in :mod:`repro.spectral.operators` are what the tests compare
the trajectories against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Optional

import numpy as np

from repro.obs import NULL_OBS, NULL_SPAN
from repro.spectral.dealias import DealiasRule, random_shift
from repro.spectral.diagnostics import cfl_number
# The reference forms, still bound here because the benchmark's tracer
# (bench/trace.py, "spectral.diag") rebinds these two names in this module;
# the step itself sums with ``energy_sums``.
from repro.spectral.diagnostics import dissipation_rate, kinetic_energy  # noqa: F401
from repro.spectral.forcing import Forcing, NoForcing
from repro.spectral.grid import SpectralGrid
from repro.spectral.pointwise import PRODUCT_PAIRS, PointwiseKernel
from repro.spectral.scalar import PassiveScalar
from repro.spectral.workspace import SpectralWorkspace

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["IntegratingFactorRK", "NavierStokesSolver", "SolverConfig", "StepResult"]


def combine_components(kernel: PointwiseKernel, components, jobs) -> None:
    """``kernel.combine`` per ``(index, diffusivity)`` of ``components``;
    each job's output and terms name state-shaped arrays.  Module-level: a
    rank's worker runs it."""
    for c, kappa in components:
        kernel.combine(kappa, [
            (out[c], [(tau, [(coef, a[c]) for coef, a in terms])
                      for tau, terms in groups])
            for out, groups in jobs
        ])


def energy_sums(kernel: PointwiseKernel, state: np.ndarray,
                nu: float) -> np.ndarray:
    """Energy and dissipation of the velocity ``state[:3]`` on the kernel's
    slab, from one sweep.  Module-level: a rank's worker runs it."""
    squares, gradients = kernel.mode_sums(state[:3])
    return np.array([0.5 * squares, nu * gradients])


def variance_sum(kernel: PointwiseKernel, theta: np.ndarray) -> float:
    """A scalar's ``<theta^2>/2`` on the kernel's slab."""
    return 0.5 * kernel.mode_sums(theta)[0]


@dataclass
class SolverConfig:
    """Numerical options for :class:`NavierStokesSolver`.

    Attributes
    ----------
    nu:
        Kinematic viscosity.
    scheme:
        ``"rk2"`` (the paper's reported configuration) or ``"rk4"``.
    dealias:
        Truncation rule; combined with phase shifting when
        ``phase_shift=True`` (the paper's Sec. 2: "a combination of
        phase-shifting and truncation").
    phase_shift:
        Evaluate the nonlinear term on a randomly shifted grid each stage
        pair, turning residual aliases into zero-mean noise (Rogallo 1981).
    seed:
        Seed for the random shifts.
    fft_backend:
        Transform provider name (``"auto"``, ``"numpy"``, ``"scipy"``);
        ``"auto"`` consults ``REPRO_FFT_BACKEND``.
    diagnostics_every:
        Compute the energy/dissipation diagnostics (one blockwise sweep of
        the state, two sums) every this many steps; other steps report NaN.  The
        default 1 preserves the historical per-step behavior; benchmark
        runs set it large (or 0 to disable entirely).
    """

    nu: float = 0.01
    scheme: Literal["rk2", "rk4"] = "rk2"
    dealias: DealiasRule = DealiasRule.SQRT2_THIRDS
    phase_shift: bool = True
    seed: int = 2019
    fft_backend: str = "auto"
    diagnostics_every: int = 1

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if self.scheme not in ("rk2", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.diagnostics_every < 0:
            raise ValueError("diagnostics_every must be >= 0 (0 disables)")


@dataclass(frozen=True)
class StepResult:
    """Cheap per-step record returned by :meth:`NavierStokesSolver.step`.

    ``energy`` and ``dissipation`` are NaN on steps where diagnostics were
    skipped (see :attr:`SolverConfig.diagnostics_every`).
    """

    time: float
    dt: float
    energy: float
    dissipation: float
    nonlinear_evals: int


class IntegratingFactorRK:
    """The RK2/RK4 stage sequences, written once for both solvers.

    A host supplies ``_state`` (velocity in ``[:3]``, scalar ``s`` in
    ``[3 + s]``, updated in place), ``scalars``, ``obs``, ``_nonlinear(state,
    out)`` (the right-hand side), ``_combine(jobs)``
    (:meth:`PointwiseKernel.combine` on its storage) and ``_stage(key)`` (a
    reusable state-shaped buffer).  The serial solver hands arrays around,
    the distributed one per-rank lists of them; the schemes never look inside.

    Each stage writes every value the scheme still needs and nothing else
    (DESIGN.md §8): a right-hand side may overwrite the stage state it is
    evaluated at, so ``_nonlinear`` must read each part of ``state`` before
    writing ``out``; a combination forms all its outputs before writing
    any, so they may overwrite its inputs.  RK2 keeps one stage buffer
    beside the state, RK4 three.  Mid-step the state holds a stage value,
    so a step that raises leaves the solver unusable.
    """

    def _components(self) -> list[tuple[slice | int, float]]:
        """``(index into the state's leading axis, diffusivity)`` of the
        velocity and of each scalar: what one ``combine`` call advances."""
        nu = self.config.nu
        return [(slice(0, 3), nu)] + [
            (3 + s, scalar.diffusivity(nu)) for s, scalar in enumerate(self.scalars)
        ]

    def _step_rk2(self, dt: float) -> None:
        """Heun's method on the integrating-factor-transformed variable.

        With ``E = exp(-nu k^2 dt)``, ``h = dt/2``::

            u*      = E (u^n + dt R(u^n))
            u^{n+1} = E (u^n + h R(u^n)) + h R(u*)

        ``R(u^n)`` lands in ``rk_r1``; one combination writes ``u*`` over the
        state and ``E (u^n + h R(u^n))`` over ``rk_r1``; ``R(u*)`` overwrites
        ``u*``.  Each step starts and ends in Fourier space, exactly as the
        paper describes its RK substages.
        """
        spans = self.obs.spans
        u = self._state
        h = 0.5 * dt
        with spans.span("rk2.stage1", category="stage"):
            r1 = self._nonlinear(u, out=self._stage("rk_r1"))
            self._combine([(u, [(dt, [(dt, r1), (1.0, u)])]),
                           (r1, [(dt, [(h, r1), (1.0, u)])])])
        with spans.span("rk2.stage2", category="stage"):
            r2 = self._nonlinear(u, out=u)  # u* is dead once read
            self._combine([(u, [(0.0, [(1.0, r1)]), (0.0, [(h, r2)])])])

    def _step_rk4(self, dt: float) -> None:
        """Classic RK4 with the exact viscous integrating factor.

        With ``Eh = exp(-nu k^2 dt/2)``, ``E = exp(-nu k^2 dt)``::

            u2 = Eh (u0 + dt/2 k1)      u3 = Eh u0 + dt/2 k2
            u4 = E u0 + dt Eh k3
            u^{n+1} = E (u0 + dt/6 k1) + dt/3 Eh (k2 + k3) + dt/6 k4

        The sums are kept as they form: ``rk_k1`` turns into
        ``E (u0 + dt/6 k1)`` and ``rk_k2`` into ``dt/3 (k2 + k3)`` once
        their stages are read, and ``k3``, ``k4`` overwrite their stage
        states in ``rk_stage``.  ``u0`` is untouched until the last
        combination.
        """
        spans = self.obs.spans
        u0 = self._state
        u_s = self._stage("rk_stage")
        h = 0.5 * dt
        with spans.span("rk4.stage1", category="stage"):
            k1 = self._nonlinear(u0, out=self._stage("rk_k1"))
            self._combine([(u_s, [(h, [(h, k1), (1.0, u0)])]),
                           (k1, [(dt, [(dt / 6.0, k1), (1.0, u0)])])])
        with spans.span("rk4.stage2", category="stage"):
            k2 = self._nonlinear(u_s, out=self._stage("rk_k2"))
            self._combine([(u_s, [(h, [(1.0, u0)]), (0.0, [(h, k2)])]),
                           (k2, [(0.0, [(dt / 3.0, k2)])])])
        with spans.span("rk4.stage3", category="stage"):
            k3 = self._nonlinear(u_s, out=u_s)
            self._combine([(u_s, [(dt, [(1.0, u0)]), (h, [(dt, k3)])]),
                           (k2, [(0.0, [(1.0, k2), (dt / 3.0, k3)])])])
        with spans.span("rk4.stage4", category="stage"):
            k4 = self._nonlinear(u_s, out=u_s)
            self._combine([(u0, [(0.0, [(1.0, k1)]), (h, [(1.0, k2)]),
                                 (0.0, [(dt / 6.0, k4)])])])


class NavierStokesSolver(IntegratingFactorRK):
    """Pseudo-spectral Navier-Stokes integrator on a periodic cube.

    Parameters
    ----------
    grid:
        The spectral grid.
    u_hat:
        Initial velocity coefficients, shape ``(3, N, N, N//2+1)``; a copy
        is taken and kept solenoidal.
    config:
        Numerical options.
    forcing:
        Energy injection scheme (default: none, i.e. decaying turbulence).
    obs:
        An :class:`~repro.obs.Observability` bundle.  When given, every
        step records per-RK-stage and per-phase wall-clock spans (fft,
        nonlinear, projection, integrating factor, forcing, diagnostics)
        plus counters/histograms (``solver.step.seconds``, ``fft.calls``,
        ...).  Default: the shared disabled bundle — near-zero overhead.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.spectral import SpectralGrid, taylor_green_field
    >>> g = SpectralGrid(32)
    >>> solver = NavierStokesSolver(g, taylor_green_field(g),
    ...                             SolverConfig(nu=0.05, scheme="rk2"))
    >>> result = solver.step(dt=0.01)
    >>> result.energy < 0.125  # viscous decay from E(0)=1/8
    True
    >>> solver.add_scalar(g.zeros_spectral(), schmidt=4.0, mean_gradient=1.0)
    0
    >>> _ = solver.step(dt=0.01)
    >>> solver.scalar_variance(0) > 0  # produced by -u_y G
    True
    """

    def __init__(
        self,
        grid: SpectralGrid,
        u_hat: np.ndarray,
        config: Optional[SolverConfig] = None,
        forcing: Optional[Forcing] = None,
        obs: "Observability | None" = None,
    ):
        self.grid = grid
        self.config = config or SolverConfig()
        self.forcing = forcing if forcing is not None else NoForcing()
        self.obs = obs if obs is not None else NULL_OBS
        if u_hat.shape != (3, *grid.spectral_shape):
            raise ValueError(
                f"initial condition must have shape {(3, *grid.spectral_shape)}"
            )
        self._state = np.array(u_hat, dtype=grid.cdtype, copy=True)
        self.scalars: list[PassiveScalar] = []
        self.time = 0.0
        self.step_count = 0
        self._rng = np.random.default_rng(self.config.seed)
        self._nl_evals = 0
        self.workspace = SpectralWorkspace(
            grid, backend=self.config.fft_backend, obs=self.obs
        )
        self._pointwise = PointwiseKernel(grid, self.config.dealias)
        # Dealias the initial condition so invariants hold from step 0.
        self._pointwise.truncate(self._state)
        self._pointwise.project(self._state, out=self._state)

    @property
    def u_hat(self) -> np.ndarray:
        """The velocity coefficients ``(3, N, N, N//2+1)``: a view of the
        marched state, so in-place edits and assignment both reach it."""
        return self._state[:3]

    @u_hat.setter
    def u_hat(self, value: np.ndarray) -> None:
        self._state[:3] = value

    # -- passive scalars -------------------------------------------------------

    def add_scalar(
        self,
        theta_hat: np.ndarray,
        schmidt: float = 1.0,
        mean_gradient: float = 0.0,
    ) -> int:
        """Append a dealiased copy of ``theta_hat`` to the marched state;
        returns its index in :attr:`scalars`."""
        if theta_hat.shape != self.grid.spectral_shape:
            raise ValueError(
                f"scalar must have spectral shape {self.grid.spectral_shape}"
            )
        self.scalars.append(PassiveScalar(theta_hat, schmidt, mean_gradient))
        self.workspace.release("rk_", len(self._state))  # state-shaped
        self._state = np.concatenate([self._state, theta_hat[None]],
                                     dtype=self.grid.cdtype)
        self._pointwise.truncate(self._state[-1])
        for s, scalar in enumerate(self.scalars, start=3):
            scalar.theta_hat = self._state[s]
        return len(self.scalars) - 1

    def gather_scalar(self, index: int) -> np.ndarray:
        """A copy of scalar ``index``'s coefficients."""
        return self.scalars[index].theta_hat.copy()

    def scalar_variance(self, index: int) -> float:
        """<theta^2>/2 of scalar ``index``."""
        return variance_sum(self._pointwise, self.scalars[index].theta_hat)

    # -- right-hand side -----------------------------------------------------

    def _to_physical(self, u_hat: np.ndarray, bases, out: np.ndarray) -> None:
        """One component to physical space, on the shifted grid if any."""
        ws = self.workspace
        if bases is not None:
            u_hat = self._pointwise.shifted(u_hat, bases, ws.ifft_work)
        ws.ifft3d(u_hat, out=out)

    def _nonlinear(self, state: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Right-hand side of the whole state, written into ``out``: the
        projected, dealiased momentum term (+ forcing) in ``[:3]``, then
        ``-div(u theta) - G u_y`` per scalar from the same physical-space
        velocity (on the same shifted grid).  Product transforms land in
        ``ifft_work`` and go straight into ``out``, which may be ``state``:
        the forcing and the scalars read it first."""
        u_hat = state[:3]
        ws = self.workspace
        kernel = self._pointwise
        obs = self.obs
        spans = obs.spans
        self._nl_evals += 1
        if obs.enabled:
            obs.metrics.counter("solver.rhs.calls").inc()
        bases = (kernel.shift_bases(random_shift(self.grid, self._rng))
                 if self.config.phase_shift else None)
        u, prod, work = ws.physical("nl_u", 3), ws.physical("nl_prod"), ws.ifft_work
        # The "nonlinear" spans bracket transforms + products; the transforms
        # record their own nested "fft" spans, so this category's *exclusive*
        # time is pure shift/product work.
        with spans.span("rhs.nonlinear", category="nonlinear"):
            for i in range(3):
                self._to_physical(u_hat[i], bases, u[i])
        with spans.span("rhs.forcing", category="forcing"):
            f = self.forcing.rhs(u_hat, self.grid)
        for s, scalar in enumerate(self.scalars, start=3):
            with spans.span("rhs.scalar", category="nonlinear"):
                theta = ws.physical("nl_theta")
                self._to_physical(state[s], bases, theta)
                for c in range(3):
                    np.multiply(u[c], theta, out=prod)
                    kernel.accumulate(out, [(c, s)], [ws.fft3d(prod, out=work)])
                kernel.scalar_rhs(out[s], bases, out[s], scalar.mean_gradient,
                                  u_hat[1])
        with spans.span("rhs.nonlinear", category="nonlinear"):
            for i, j in PRODUCT_PAIRS:
                np.multiply(u[i], u[j], out=prod)
                kernel.accumulate(out, [(i, j)], [ws.fft3d(prod, out=work)])
        with spans.span("rhs.projection", category="projection"):
            kernel.rhs(out[:3], bases, out[:3])
        if f is not None:
            out[:3] += f
        return out

    def _combine(self, jobs) -> None:
        """One RK stage combination, see :meth:`PointwiseKernel.combine`."""
        with self.obs.spans.span("rk.combine", category="integrating"):
            combine_components(self._pointwise, self._components(), jobs)

    def _stage(self, key: str) -> np.ndarray:
        return self.workspace.spectral(key, len(self._state))

    # -- public API -----------------------------------------------------------

    def step(self, dt: float) -> StepResult:
        """Advance one time step of size ``dt``."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        obs = self.obs
        spans = obs.spans
        evals_before = self._nl_evals
        with (spans.span("solver.step", category="step", n=self.grid.n,
                         scheme=self.config.scheme, dt=dt)
              if obs.enabled else NULL_SPAN) as step_span:
            if self.config.scheme == "rk2":
                self._step_rk2(dt)
            else:
                self._step_rk4(dt)
            with spans.span("forcing.post_step", category="forcing"):
                self.forcing.post_step(self.u_hat, self.grid, dt)
            self.time += dt
            self.step_count += 1
            every = self.config.diagnostics_every
            if every > 0 and self.step_count % every == 0:
                with spans.span("diagnostics.energy", category="diagnostics"):
                    energy, dissipation = self._energy_and_dissipation()
            else:
                energy = math.nan
                dissipation = math.nan
        if obs.enabled:
            obs.metrics.counter("solver.steps").inc()
            obs.metrics.histogram("solver.step.seconds").observe(
                step_span.duration
            )
        return StepResult(
            time=self.time,
            dt=dt,
            energy=energy,
            dissipation=dissipation,
            nonlinear_evals=self._nl_evals - evals_before,
        )

    def _energy_and_dissipation(self) -> tuple[float, float]:
        """Both diagnostics from one sweep of the kernel."""
        energy, dissipation = energy_sums(
            self._pointwise, self._state, self.config.nu)
        return float(energy), float(dissipation)

    def kinetic_energy(self) -> float:
        """E = 1/2 <u.u>, summed as a diagnostics step sums it."""
        return self._energy_and_dissipation()[0]

    def run(self, nsteps: int, dt: float) -> list[StepResult]:
        """Advance ``nsteps`` steps; returns the per-step records."""
        return [self.step(dt) for _ in range(nsteps)]

    def stable_dt(self, cfl: float = 0.5) -> float:
        """A CFL-limited time step for the current field.

        The three inverse transforms inside :func:`cfl_number` reuse
        workspace scratch (no full-grid allocations) and are timed under
        their own ``diagnostics`` span, so adaptive-dt drivers see this
        cost in the breakdown instead of it hiding in step time.
        """
        if cfl <= 0:
            raise ValueError("cfl must be positive")
        with self.obs.spans.span("diagnostics.cfl", category="diagnostics"):
            trial = cfl_number(
                self.u_hat, self.grid, dt=1.0, workspace=self.workspace
            )
        if trial == 0:
            return np.inf
        return cfl / trial

    @property
    def nonlinear_evaluations(self) -> int:
        """Total pseudo-spectral RHS evaluations (2 per RK2 step, 4 per RK4)."""
        return self._nl_evals
