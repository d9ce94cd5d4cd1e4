"""Distributed passive-scalar transport over virtual ranks.

Extends :class:`repro.dist.dist_solver.DistributedNavierStokesSolver` with
the advective-diffusive scalar of :mod:`repro.spectral.scalar`, distributed
in the same kz-slabs.  Each scalar costs one extra inverse and one extra
forward distributed transform set per RK stage (4 more all-to-alls per RK2
step per scalar) — the bookkeeping production mixing codes live with, and
the reason the paper's D ~= 25 variable count grows quickly with scalars.

Verified against the serial :class:`repro.spectral.scalar.ScalarMixingSolver`
to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.spectral.solver import SolverConfig

__all__ = ["DistributedScalarMixingSolver"]


@dataclass
class _DistScalar:
    theta: list[np.ndarray]  # per-rank kz-slab pieces
    schmidt: float
    mean_gradient: float


class DistributedScalarMixingSolver(DistributedNavierStokesSolver):
    """Velocity + passive scalars, slab-decomposed.

    The RK stages mirror :class:`repro.spectral.scalar.ScalarMixingSolver`
    exactly (same stage velocities, same integrating factors), so with
    matching seeds the serial and distributed trajectories agree to
    round-off for both fields.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        comm: VirtualComm,
        u_hat_global: np.ndarray,
        config: Optional[SolverConfig] = None,
    ):
        super().__init__(grid, comm, u_hat_global, config)
        self._scalars: list[_DistScalar] = []

    @property
    def scalars(self) -> list[_DistScalar]:
        return self._scalars

    def add_scalar(
        self,
        theta_hat_global: np.ndarray,
        schmidt: float = 1.0,
        mean_gradient: float = 0.0,
    ) -> int:
        if theta_hat_global.shape != self.grid.spectral_shape:
            raise ValueError(
                f"scalar must have spectral shape {self.grid.spectral_shape}"
            )
        if schmidt <= 0:
            raise ValueError("Schmidt number must be positive")
        pieces = []
        for r in range(self.comm.size):
            sl = self.decomp.spectral_slice(r)
            local = np.array(theta_hat_global[sl], dtype=self.grid.cdtype, copy=True)
            local *= self._mask_locals[r]
            pieces.append(local)
        self._scalars.append(_DistScalar(pieces, schmidt, mean_gradient))
        return len(self._scalars) - 1

    # -- scalar RHS -----------------------------------------------------------

    def _scalar_rhs(
        self,
        theta: Sequence[np.ndarray],
        u_hat: Sequence[np.ndarray],
        scalar: _DistScalar,
    ) -> list[np.ndarray]:
        """-(div(u theta))_hat - G u_y per rank (dealiased)."""
        size = self.comm.size
        u_phys = [
            self.fft.inverse([u_hat[r][c] for r in range(size)]) for c in range(3)
        ]
        theta_phys = self.fft.inverse(list(theta))
        flux_hat = [
            self.fft.forward(
                [u_phys[c][r] * theta_phys[r] for r in range(size)]
            )
            for c in range(3)
        ]
        out = []
        for r, view in enumerate(self.views):
            rhs = -1j * (
                view.kx * flux_hat[0][r]
                + view.ky * flux_hat[1][r]
                + view.kz * flux_hat[2][r]
            )
            rhs *= self._mask_locals[r]
            if scalar.mean_gradient != 0.0:
                rhs = rhs - scalar.mean_gradient * u_hat[r][1]
            out.append(rhs)
        return out

    # -- time stepping ------------------------------------------------------------

    def step(self, dt: float):
        """Advance scalars (with frozen-stage velocities), then the flow."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self.config.scheme == "rk2":
            self._scalars_rk2(dt)
        else:
            self._scalars_rk4(dt)
        return super().step(dt)

    def _factor(self, view, diffusivity: float, dt: float) -> np.ndarray:
        return np.exp(-diffusivity * view.k_squared * dt).astype(self.grid.dtype)

    def _scalars_rk2(self, dt: float) -> None:
        if not self._scalars:
            return
        size = self.comm.size
        u_n = self.u_hat
        e_u = [self._factor(v, self.config.nu, dt) for v in self.views]
        r_u = self._nonlinear(u_n)
        u_star = [e_u[r] * (u_n[r] + dt * r_u[r]) for r in range(size)]
        for scalar in self._scalars:
            d = self.config.nu / scalar.schmidt
            e_s = [self._factor(v, d, dt) for v in self.views]
            r1 = self._scalar_rhs(scalar.theta, u_n, scalar)
            theta_star = [
                e_s[r] * (scalar.theta[r] + dt * r1[r]) for r in range(size)
            ]
            r2 = self._scalar_rhs(theta_star, u_star, scalar)
            scalar.theta = [
                e_s[r] * (scalar.theta[r] + (0.5 * dt) * r1[r]) + (0.5 * dt) * r2[r]
                for r in range(size)
            ]

    def _scalars_rk4(self, dt: float) -> None:
        if not self._scalars:
            return
        size = self.comm.size
        u0 = self.u_hat
        e_half_u = [self._factor(v, self.config.nu, 0.5 * dt) for v in self.views]
        e_full_u = [e * e for e in e_half_u]
        k1u = self._nonlinear(u0)
        u2 = [e_half_u[r] * (u0[r] + (0.5 * dt) * k1u[r]) for r in range(size)]
        k2u = self._nonlinear(u2)
        u3 = [e_half_u[r] * u0[r] + (0.5 * dt) * k2u[r] for r in range(size)]
        k3u = self._nonlinear(u3)
        u4 = [e_full_u[r] * u0[r] + dt * (e_half_u[r] * k3u[r]) for r in range(size)]

        for scalar in self._scalars:
            d = self.config.nu / scalar.schmidt
            e_half = [self._factor(v, d, 0.5 * dt) for v in self.views]
            e_full = [e * e for e in e_half]
            t0 = scalar.theta
            k1 = self._scalar_rhs(t0, u0, scalar)
            k2 = self._scalar_rhs(
                [e_half[r] * (t0[r] + (0.5 * dt) * k1[r]) for r in range(size)], u2,
                scalar,
            )
            k3 = self._scalar_rhs(
                [e_half[r] * t0[r] + (0.5 * dt) * k2[r] for r in range(size)], u3,
                scalar,
            )
            k4 = self._scalar_rhs(
                [e_full[r] * t0[r] + dt * (e_half[r] * k3[r]) for r in range(size)],
                u4,
                scalar,
            )
            scalar.theta = [
                e_full[r] * t0[r]
                + (dt / 6.0)
                * (e_full[r] * k1[r] + 2.0 * e_half[r] * (k2[r] + k3[r]) + k4[r])
                for r in range(size)
            ]

    # -- diagnostics --------------------------------------------------------------

    def scalar_variance(self, index: int) -> float:
        scalar = self._scalars[index]
        locals_ = [
            float(0.5 * np.sum(v.hermitian_weights * np.abs(scalar.theta[r]) ** 2))
            for r, v in enumerate(self.views)
        ]
        return self.comm.allreduce(locals_)[0]

    def gather_scalar(self, index: int) -> np.ndarray:
        return np.concatenate(self._scalars[index].theta, axis=0)
