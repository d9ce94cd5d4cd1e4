"""Fourier pseudo-spectral Navier-Stokes solver (the *real* numerics).

This package implements the mathematics of the paper's Sec. 2 as executable
NumPy code: velocity fields on a triply periodic cube are represented by
their discrete Fourier coefficients; nonlinear terms are formed in physical
space (pseudo-spectral evaluation) and projected to stay solenoidal; time
advance uses explicit RK2/RK4 for the nonlinear terms with the viscous term
integrated *exactly* through an integrating factor; aliasing errors are
controlled by a combination of phase shifting and spherical truncation
(Rogallo 1981).

Array layout mirrors the production code's choice: physical arrays are
indexed ``[z, y, x]`` with x contiguous (stride one), so transforms are taken
in the order y, z as complex-to-complex and x as real-to-complex — see paper
Sec. 3.3.

The solver here runs at laptop scale (N up to a few hundred) and is the
ground truth against which the distributed layer (:mod:`repro.dist`) and the
performance layer (:mod:`repro.core`) are checked.
"""

from repro.spectral.grid import SpectralGrid
from repro.spectral.transforms import fft3d, ifft3d
from repro.spectral.operators import (
    curl_hat,
    divergence_hat,
    gradient_hat,
    nonlinear_conservative,
    nonlinear_rotational,
    project,
    vorticity_hat,
)
from repro.spectral.dealias import DealiasRule, phase_shift_factor, sharp_truncation_mask
from repro.spectral.solver import NavierStokesSolver, SolverConfig, StepResult
from repro.spectral.forcing import (
    BandForcing,
    NegativeViscosityForcing,
    NoForcing,
    OrnsteinUhlenbeckForcing,
)
from repro.spectral.initial import random_isotropic_field, taylor_green_field
from repro.spectral.diagnostics import FlowStatistics, energy_spectrum, flow_statistics
from repro.spectral.scalar import PassiveScalar
from repro.spectral.workspace import (
    SpectralWorkspace,
    available_backends,
    resolve_fft,
)

__all__ = [
    "BandForcing",
    "DealiasRule",
    "FlowStatistics",
    "PassiveScalar",
    "NavierStokesSolver",
    "NegativeViscosityForcing",
    "NoForcing",
    "OrnsteinUhlenbeckForcing",
    "SolverConfig",
    "SpectralGrid",
    "SpectralWorkspace",
    "StepResult",
    "available_backends",
    "resolve_fft",
    "curl_hat",
    "divergence_hat",
    "energy_spectrum",
    "fft3d",
    "flow_statistics",
    "gradient_hat",
    "ifft3d",
    "nonlinear_conservative",
    "nonlinear_rotational",
    "phase_shift_factor",
    "project",
    "random_isotropic_field",
    "sharp_truncation_mask",
    "taylor_green_field",
    "vorticity_hat",
]
