"""Physics validation report: the numerical-methods checklist, executed.

Runs the validation suite of DESIGN.md Sec. 6 as one artifact: distributed
transforms vs ground truth, exact viscous decay, incompressibility, energy
budget closure, measured RK orders, and dealiasing behaviour — printing a
pass/fail table with the measured figures of merit.  This is the "is the
mathematics right" counterpart of the performance experiments, runnable as
``python -m repro.experiments.validation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.diagnostics import kinetic_energy, max_divergence
from repro.spectral.grid import SpectralGrid
from repro.spectral.initial import random_isotropic_field, taylor_green_field
from repro.spectral.solver import NavierStokesSolver, SolverConfig
from repro.spectral.transforms import fft3d

__all__ = ["ValidationCheck", "ValidationReport", "run"]


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    metric: str
    value: float
    threshold: float
    #: True when smaller is better (error-like); False for order measurements
    #: where the value must *exceed* the threshold.
    smaller_is_better: bool = True

    @property
    def passed(self) -> bool:
        if self.smaller_is_better:
            return self.value <= self.threshold
        return self.value >= self.threshold

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        op = "<=" if self.smaller_is_better else ">="
        return (
            f"[{status}] {self.name:<44} {self.metric} = {self.value:9.3e} "
            f"({op} {self.threshold:g})"
        )


@dataclass(frozen=True)
class ValidationReport:
    checks: list[ValidationCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = ["Physics validation (DESIGN.md Sec. 6)", ""]
        lines.extend(c.format() for c in self.checks)
        lines.append("")
        n_pass = sum(c.passed for c in self.checks)
        lines.append(f"{n_pass}/{len(self.checks)} checks passed")
        return "\n".join(lines)


def run(n: int = 24, seed: int = 7) -> ValidationReport:
    grid = SpectralGrid(n)
    rng = np.random.default_rng(seed)
    checks: list[ValidationCheck] = []

    # 1. Distributed slab FFT vs numpy ground truth.
    u = rng.standard_normal(grid.physical_shape)
    with OutOfCoreSlabFFT(grid, VirtualComm(4), npencils=1) as fft:
        err = np.abs(
            fft.decomp.gather_spectral(fft.forward(fft.decomp.scatter_physical(u)))
            - fft3d(u, grid)
        ).max()
    checks.append(
        ValidationCheck("distributed slab FFT vs numpy.fft", "max |diff|", float(err), 1e-12)
    )

    # 2. Exact viscous decay of the Taylor-Green vortex (linear regime).
    nu = 0.1
    s = NavierStokesSolver(
        grid, taylor_green_field(grid, amplitude=1e-8),
        SolverConfig(nu=nu, phase_shift=False),
    )
    e0 = kinetic_energy(s.u_hat, grid)
    for _ in range(4):
        s.step(0.25)
    expected = e0 * np.exp(-2 * nu * 3.0 * 1.0)
    checks.append(
        ValidationCheck(
            "integrating factor: exact viscous decay",
            "rel err",
            abs(kinetic_energy(s.u_hat, grid) - expected) / expected,
            1e-8,
        )
    )

    # 3. Incompressibility maintained over a nonlinear run.
    s = NavierStokesSolver(
        grid, random_isotropic_field(grid, rng, energy=0.5),
        SolverConfig(nu=0.02, phase_shift=True),
    )
    worst_div = 0.0
    for _ in range(5):
        s.step(0.005)
        worst_div = max(worst_div, max_divergence(s.u_hat, grid))
    checks.append(
        ValidationCheck("incompressibility (max |div u|)", "max", worst_div, 1e-9)
    )

    # 4. Energy budget closure: dE/dt = -eps for the decaying run.  The 2/3
    # rule makes the convective term exactly alias-free without shifting,
    # so the budget must close to the time-discretization of the check.
    from repro.spectral.dealias import DealiasRule as _DR

    s4 = NavierStokesSolver(
        grid, random_isotropic_field(grid, rng, energy=0.5),
        SolverConfig(nu=0.02, scheme="rk4", phase_shift=False, dealias=_DR.TWO_THIRDS),
    )
    from repro.spectral.diagnostics import dissipation_rate

    e_before = kinetic_energy(s4.u_hat, grid)
    eps0 = dissipation_rate(s4.u_hat, grid, 0.02)
    # Small dt: the check compares dE/dt against the *trapezoid* of eps, so
    # its own residual is O(dt^2) regardless of the scheme's accuracy.
    dt = 2e-4
    r = s4.step(dt)
    eps1 = dissipation_rate(s4.u_hat, grid, 0.02)
    residual = abs((r.energy - e_before) / dt + 0.5 * (eps0 + eps1)) / eps0
    checks.append(
        ValidationCheck("energy budget dE/dt = -eps", "rel resid", residual, 1e-2)
    )

    # 5. Measured temporal orders.
    u0 = random_isotropic_field(grid, rng, energy=0.5)

    def order_of(scheme: str) -> float:
        ref = NavierStokesSolver(grid, u0, SolverConfig(nu=0.05, scheme="rk4", phase_shift=False))
        for _ in range(64):
            ref.step(0.08 / 64)
        errs = []
        for dt_ in (0.02, 0.01):
            solver = NavierStokesSolver(
                grid, u0, SolverConfig(nu=0.05, scheme=scheme, phase_shift=False)
            )
            for _ in range(int(round(0.08 / dt_))):
                solver.step(dt_)
            errs.append(float(np.abs(solver.u_hat - ref.u_hat).max()))
        return float(np.log2(errs[0] / errs[1]))

    checks.append(
        ValidationCheck("RK2 measured order", "order", order_of("rk2"), 1.6,
                        smaller_is_better=False)
    )
    checks.append(
        ValidationCheck("RK4 measured order", "order", order_of("rk4"), 3.4,
                        smaller_is_better=False)
    )

    # 6. Dealiasing: 2/3-truncated nonlinear term is shift-invariant.
    from repro.spectral.dealias import (
        DealiasRule,
        phase_shift_factor,
        sharp_truncation_mask,
    )
    from repro.spectral.operators import nonlinear_conservative

    mask = sharp_truncation_mask(grid, DealiasRule.TWO_THIRDS)
    u_hat = random_isotropic_field(grid, rng, energy=0.5) * mask
    base = nonlinear_conservative(u_hat, grid, mask=mask)
    shifted = nonlinear_conservative(
        u_hat, grid, mask=mask,
        shift=phase_shift_factor(grid, np.array([0.1, 0.07, 0.13])),
    )
    checks.append(
        ValidationCheck(
            "2/3-rule alias-free (shift invariance)",
            "max |diff|",
            float(np.abs(base - shifted).max()),
            1e-11,
        )
    )
    return ValidationReport(checks=checks)


if __name__ == "__main__":  # pragma: no cover - manual tool
    import sys

    report = run()
    print(report.format())
    sys.exit(0 if report.all_passed else 1)
