"""Turbulence diagnostics: spectra, scales and budget terms.

All spectral sums use the Hermitian mode weights of the half-complex layout
so quantities agree exactly with their physical-space definitions (volume
averages over the periodic cube).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spectral.grid import SpectralGrid
from repro.spectral.operators import divergence_hat, vorticity_hat
from repro.spectral.transforms import ifft3d

__all__ = [
    "FlowStatistics",
    "cfl_number",
    "dissipation_rate",
    "energy_spectrum",
    "flow_statistics",
    "kinetic_energy",
    "max_divergence",
    "mode_square",
    "velocity_derivative_skewness",
]


def mode_square(u_hat: np.ndarray) -> np.ndarray:
    """``sum_i |u_hat_i|^2`` per mode of a vector field, as ``re^2 + im^2``
    in one pass (``np.abs`` would take a square root only to square it)."""
    parts = u_hat.view(u_hat.real.dtype).reshape(*u_hat.shape, 2)
    return np.einsum("i...r,i...r->...", parts, parts)


def kinetic_energy(u_hat: np.ndarray, grid: SpectralGrid) -> float:
    """Total kinetic energy per unit volume: E = 1/2 <u.u>.

    The reference form; the solvers sum the same quantity block by block
    (:meth:`~repro.spectral.pointwise.PointwiseKernel.mode_sums`).
    """
    return float(0.5 * np.sum(grid.hermitian_weights * mode_square(u_hat)))


def dissipation_rate(u_hat: np.ndarray, grid: SpectralGrid, nu: float) -> float:
    """Dissipation rate eps = 2 nu sum k^2 E(k) = nu <|grad u|^2>."""
    return float(nu * np.sum(
        grid.hermitian_weights * grid.k_squared * mode_square(u_hat)))


def enstrophy(u_hat: np.ndarray, grid: SpectralGrid) -> float:
    """Omega = 1/2 <omega.omega>; eps = 2 nu Omega for incompressible flow."""
    omega_hat = vorticity_hat(u_hat, grid)
    w = grid.hermitian_weights
    return float(0.5 * np.sum(w * np.abs(omega_hat) ** 2))


def energy_spectrum(u_hat: np.ndarray, grid: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Spherically binned energy spectrum.

    Returns ``(k, E_k)`` with ``sum(E_k) == kinetic_energy`` exactly (the
    binning is a partition of the stored modes).
    """
    w = grid.hermitian_weights
    mode_e = 0.5 * np.sum(w * np.abs(u_hat) ** 2, axis=0)
    shells = grid.shell_index
    e_k = np.bincount(shells.ravel(), weights=mode_e.ravel(), minlength=grid.num_shells)
    k = np.arange(grid.num_shells, dtype=float) * grid.k_fundamental
    return k, e_k


def max_divergence(u_hat: np.ndarray, grid: SpectralGrid) -> float:
    """Max |div u| in spectral space — should sit at round-off."""
    return float(np.abs(divergence_hat(u_hat, grid)).max())


def cfl_number(
    u_hat: np.ndarray, grid: SpectralGrid, dt: float, workspace=None
) -> float:
    """Advective Courant number ``dt * max_i(|u_i|) / dx`` (component-wise sum).

    With a :class:`~repro.spectral.workspace.SpectralWorkspace` the three
    inverse transforms run in reused scratch buffers and the max-|u| scan
    is allocation-free (``max(u.max(), -u.min())`` instead of a full-grid
    ``np.abs`` temporary) — adaptive-dt drivers call this every step.
    """
    u_max = 0.0
    if workspace is not None:
        scratch = workspace.physical("cfl_u")
        for i in range(3):
            u = workspace.ifft3d(u_hat[i], out=scratch)
            u_max += float(max(u.max(), -u.min()))
    else:
        for i in range(3):
            u = ifft3d(u_hat[i], grid)
            u_max += float(np.abs(u).max())
    return dt * u_max / grid.dx


def velocity_derivative_skewness(u_hat: np.ndarray, grid: SpectralGrid) -> float:
    """Skewness of du/dx, the classic marker of nonlinear energy transfer.

    For developed turbulence S ~ -0.5; for a Gaussian (linear) field S = 0.
    """
    dudx = ifft3d(1j * grid.kx * u_hat[0], grid)
    var = float(np.mean(dudx**2))
    if var == 0:
        return 0.0
    return float(np.mean(dudx**3)) / var**1.5


@dataclass(frozen=True)
class FlowStatistics:
    """Summary statistics of a velocity field (isotropic conventions)."""

    energy: float
    dissipation: float
    enstrophy: float
    u_rms: float
    integral_scale: float
    taylor_scale: float
    kolmogorov_scale: float
    reynolds_taylor: float
    skewness: float
    max_divergence: float
    kmax_eta: float

    def __str__(self) -> str:  # pragma: no cover - human formatting
        return (
            f"E={self.energy:.4g} eps={self.dissipation:.4g} "
            f"u'={self.u_rms:.4g} L={self.integral_scale:.4g} "
            f"lambda={self.taylor_scale:.4g} eta={self.kolmogorov_scale:.4g} "
            f"Re_lambda={self.reynolds_taylor:.4g} S={self.skewness:.3f} "
            f"kmax*eta={self.kmax_eta:.3f}"
        )


def flow_statistics(u_hat: np.ndarray, grid: SpectralGrid, nu: float) -> FlowStatistics:
    """Compute the standard isotropic-turbulence summary for a field.

    Definitions (Pope, *Turbulent Flows*): ``u'^2 = 2E/3``;
    Taylor microscale ``lambda = sqrt(15 nu u'^2 / eps)``;
    ``Re_lambda = u' lambda / nu``; Kolmogorov ``eta = (nu^3/eps)^(1/4)``;
    integral scale ``L = (3 pi / 4 E) * sum E(k)/k``.
    """
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    e = kinetic_energy(u_hat, grid)
    eps = dissipation_rate(u_hat, grid, nu)
    omega = enstrophy(u_hat, grid)
    u_rms = np.sqrt(2.0 * e / 3.0) if e > 0 else 0.0

    k, e_k = energy_spectrum(u_hat, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(k > 0, e_k / np.maximum(k, 1e-300), 0.0)
    integral_scale = (3.0 * np.pi / (4.0 * e)) * integrand.sum() if e > 0 else 0.0

    taylor = np.sqrt(15.0 * nu * u_rms**2 / eps) if eps > 0 else 0.0
    re_lambda = u_rms * taylor / nu
    eta = (nu**3 / eps) ** 0.25 if eps > 0 else 0.0
    kmax = np.sqrt(2.0) * grid.n * grid.k_fundamental / 3.0  # dealiased k_max

    return FlowStatistics(
        energy=e,
        dissipation=eps,
        enstrophy=omega,
        u_rms=float(u_rms),
        integral_scale=float(integral_scale),
        taylor_scale=float(taylor),
        kolmogorov_scale=float(eta),
        reynolds_taylor=float(re_lambda),
        skewness=velocity_derivative_skewness(u_hat, grid),
        max_divergence=max_divergence(u_hat, grid),
        kmax_eta=float(kmax * eta),
    )
