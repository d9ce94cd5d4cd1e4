"""Passive-scalar transport: the advective-diffusive equation of Sec. 2.

The paper notes its governing equation "is a partial differential equation
of the advective-diffusive type, which occurs in many studies of transport
phenomena"; the Georgia Tech production-code lineage (Clay et al. 2018,
the paper's Ref. [5]) solves exactly this for turbulent mixing at high
Schmidt number.  This module adds passive scalars to the solver:

    d(theta)/dt + u . grad(theta) = D lap(theta) - u_y * G

where ``D = nu / Sc`` is the scalar diffusivity (Schmidt number ``Sc``) and
``G`` an optional uniform mean scalar gradient (in y) whose interaction
with the velocity sustains scalar fluctuations — the standard configuration
for stationary scalar mixing studies.

The scalar advances with the same RK2/RK4 + integrating-factor machinery as
the velocity; the advection term ``div(u theta)`` is formed pseudo-
spectrally (one extra inverse + three... one forward transform set per
scalar per substage) and dealiased with the solver's mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.spectral.dealias import DealiasRule, sharp_truncation_mask
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import NavierStokesSolver, SolverConfig
from repro.spectral.workspace import SpectralWorkspace

__all__ = ["PassiveScalar", "ScalarMixingSolver", "scalar_spectrum", "scalar_variance"]


def scalar_variance(theta_hat: np.ndarray, grid: SpectralGrid) -> float:
    """<theta^2>/2, the scalar analogue of kinetic energy."""
    return float(0.5 * np.sum(grid.hermitian_weights * np.abs(theta_hat) ** 2))


def scalar_dissipation(theta_hat: np.ndarray, grid: SpectralGrid, diffusivity: float) -> float:
    """chi = 2 D <|grad theta|^2>/2 = D sum k^2 |theta_hat|^2 (weighted)."""
    return float(
        diffusivity
        * np.sum(grid.hermitian_weights * grid.k_squared * np.abs(theta_hat) ** 2)
    )


def scalar_spectrum(theta_hat: np.ndarray, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Spherically binned scalar-variance spectrum; sums to the variance."""
    w = grid.hermitian_weights
    mode_e = 0.5 * w * np.abs(theta_hat) ** 2
    e_k = np.bincount(
        grid.shell_index.ravel(), weights=mode_e.ravel(), minlength=grid.num_shells
    )
    k = np.arange(grid.num_shells, dtype=float) * grid.k_fundamental
    return k, e_k


@dataclass
class PassiveScalar:
    """One scalar field and its physical parameters.

    Attributes
    ----------
    schmidt:
        Schmidt number Sc = nu / D.
    mean_gradient:
        Uniform imposed gradient G in the y direction; the production term
        ``-u_y G`` then feeds scalar fluctuations from the velocity field.
    """

    theta_hat: np.ndarray
    schmidt: float = 1.0
    mean_gradient: float = 0.0

    def __post_init__(self) -> None:
        if self.schmidt <= 0:
            raise ValueError("Schmidt number must be positive")

    def diffusivity(self, nu: float) -> float:
        return nu / self.schmidt


class ScalarMixingSolver:
    """Couples :class:`NavierStokesSolver` with passive-scalar transport.

    The velocity field evolves exactly as in the plain solver (the scalar
    is passive); each scalar is advanced with the matching scheme, using
    the *same* velocity stage values, so the coupled update retains the
    scheme's formal order.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.spectral import SpectralGrid, SolverConfig, random_isotropic_field
    >>> g = SpectralGrid(16)
    >>> rng = np.random.default_rng(0)
    >>> u0 = random_isotropic_field(g, rng, energy=1.0)
    >>> s = ScalarMixingSolver(g, u0, SolverConfig(nu=0.05, phase_shift=False))
    >>> s.add_scalar(g.zeros_spectral(), schmidt=1.0, mean_gradient=1.0)
    0
    >>> _ = s.step(0.01)
    >>> scalar_variance(s.scalars[0].theta_hat, g) > 0   # produced by -u_y G
    True
    """

    def __init__(
        self,
        grid: SpectralGrid,
        u_hat: np.ndarray,
        config: Optional[SolverConfig] = None,
        forcing=None,
        workspace: Optional[SpectralWorkspace] = None,
    ):
        self.grid = grid
        self.flow = NavierStokesSolver(grid, u_hat, config, forcing, workspace)
        self.config = self.flow.config
        # Scalars share the flow solver's workspace: one buffer arena and
        # one integrating-factor cache for the whole coupled system.
        self.workspace = self.flow.workspace
        self.scalars: list[PassiveScalar] = []
        self._mask = sharp_truncation_mask(grid, self.config.dealias)

    # -- scalar management ---------------------------------------------------

    def add_scalar(
        self,
        theta_hat: np.ndarray,
        schmidt: float = 1.0,
        mean_gradient: float = 0.0,
    ) -> int:
        """Register a scalar; returns its index in :attr:`scalars`."""
        if theta_hat.shape != self.grid.spectral_shape:
            raise ValueError(
                f"scalar must have spectral shape {self.grid.spectral_shape}"
            )
        theta = np.array(theta_hat, dtype=self.grid.cdtype, copy=True)
        theta *= self._mask
        self.scalars.append(
            PassiveScalar(theta, schmidt=schmidt, mean_gradient=mean_gradient)
        )
        return len(self.scalars) - 1

    # -- right-hand side ----------------------------------------------------

    def _scalar_rhs(
        self, theta_hat: np.ndarray, u_hat: np.ndarray, scalar: PassiveScalar
    ) -> np.ndarray:
        """-(div(u theta))_hat - G u_y, dealiased (diffusion is exact).

        Transforms and products run in the flow solver's workspace scratch
        buffers; the returned rhs array itself is fresh (RK stages keep
        several alive at once).
        """
        kx, ky, kz = self.grid.k_vectors
        ws = self.workspace
        u = ws.physical("sc_u", 3)
        for i in range(3):
            ws.ifft3d(u_hat[i], out=u[i])
        theta = ws.ifft3d(theta_hat, out=ws.physical("sc_theta"))
        prod = ws.physical("sc_prod")
        ph = ws.spectral("sc_ph")
        np.multiply(u[0], theta, out=prod)
        rhs = kx * ws.fft3d(prod, out=ph)
        for k, i in ((ky, 1), (kz, 2)):
            np.multiply(u[i], theta, out=prod)
            rhs += k * ws.fft3d(prod, out=ph)
        rhs *= -1j
        rhs *= self._mask
        if scalar.mean_gradient != 0.0:
            rhs -= scalar.mean_gradient * u_hat[1]
        return rhs

    def _factor(self, coefficient: float, dt: float) -> np.ndarray:
        """Integrating factor, memoized through the shared workspace."""
        return self.workspace.integrating_factor(coefficient, dt)

    # -- time stepping ---------------------------------------------------------

    def step(self, dt: float):
        """Advance velocity and all scalars by one step (RK2 or RK4)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self.config.scheme == "rk2":
            self._step_rk2(dt)
        else:
            self._step_rk4(dt)
        return self.flow.step(dt)  # velocity advances with its own machinery

    def _step_rk2(self, dt: float) -> None:
        """Heun for the scalars, using velocity stage values u^n and u*.

        The velocity predictor u* is recomputed here with the same formula
        the flow solver uses; phase-shift RNG states differ between the two
        paths only if phase shifting is enabled, so exact order-matching
        tests use ``phase_shift=False``.
        """
        u_n = self.flow.u_hat
        e_flow = self._factor(self.config.nu, dt)
        r_u = self.flow._nonlinear(u_n)
        u_star = e_flow * (u_n + dt * r_u)
        for scalar in self.scalars:
            d = scalar.diffusivity(self.config.nu)
            e_s = self._factor(d, dt)
            r1 = self._scalar_rhs(scalar.theta_hat, u_n, scalar)
            theta_star = e_s * (scalar.theta_hat + dt * r1)
            r2 = self._scalar_rhs(theta_star, u_star, scalar)
            scalar.theta_hat = (
                e_s * (scalar.theta_hat + (0.5 * dt) * r1) + (0.5 * dt) * r2
            )

    def _step_rk4(self, dt: float) -> None:
        """Classic RK4 for the scalars with frozen-stage velocities.

        Velocity stage values are reconstructed with the same integrating-
        factor RK4 formulas as the flow solver.
        """
        cfg = self.config
        u0 = self.flow.u_hat
        e_half_u = self._factor(cfg.nu, 0.5 * dt)
        e_full_u = self._factor(cfg.nu, dt)
        k1u = self.flow._nonlinear(u0)
        u2 = e_half_u * (u0 + (0.5 * dt) * k1u)
        k2u = self.flow._nonlinear(u2)
        u3 = e_half_u * u0 + (0.5 * dt) * k2u
        k3u = self.flow._nonlinear(u3)
        u4 = e_full_u * u0 + dt * (e_half_u * k3u)

        for scalar in self.scalars:
            d = scalar.diffusivity(cfg.nu)
            e_half = self._factor(d, 0.5 * dt)
            e_full = self._factor(d, dt)
            t0 = scalar.theta_hat
            k1 = self._scalar_rhs(t0, u0, scalar)
            k2 = self._scalar_rhs(e_half * (t0 + (0.5 * dt) * k1), u2, scalar)
            k3 = self._scalar_rhs(e_half * t0 + (0.5 * dt) * k2, u3, scalar)
            k4 = self._scalar_rhs(e_full * t0 + dt * (e_half * k3), u4, scalar)
            scalar.theta_hat = e_full * t0 + (dt / 6.0) * (
                e_full * k1 + 2.0 * e_half * (k2 + k3) + k4
            )
