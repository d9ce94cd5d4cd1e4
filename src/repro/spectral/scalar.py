"""Passive-scalar transport: the advective-diffusive equation of Sec. 2.

The paper notes its governing equation "is a partial differential equation
of the advective-diffusive type, which occurs in many studies of transport
phenomena"; the Georgia Tech production-code lineage (Clay et al. 2018,
the paper's Ref. [5]) solves exactly this for turbulent mixing at high
Schmidt number:

    d(theta)/dt + u . grad(theta) = D lap(theta) - u_y * G

where ``D = nu / Sc`` is the scalar diffusivity (Schmidt number ``Sc``) and
``G`` an optional uniform mean scalar gradient (in y) whose interaction
with the velocity sustains scalar fluctuations — the standard configuration
for stationary scalar mixing studies.

This module holds a scalar's parameters and diagnostics; the solvers march
scalars as components of their state (``add_scalar`` on
:class:`~repro.spectral.solver.NavierStokesSolver` and
:class:`~repro.dist.dist_solver.DistributedNavierStokesSolver`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spectral.grid import SpectralGrid

__all__ = ["PassiveScalar", "scalar_dissipation", "scalar_spectrum", "scalar_variance"]


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
    theta_hat:
        The coefficients: once added to a solver, a view of its marched
        state (per-rank views on the distributed solver) — write into it,
        do not rebind it.
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
