"""Aliasing control: sharp truncation and phase shifting (Rogallo 1981).

Quadratic products formed on an N-point grid alias wavenumber triads with
``k1 + k2 = k ± N``.  The paper (Sec. 2) controls this "by a combination of
phase-shifting and truncation in wavenumber space", following Rogallo:

* **Sharp truncation** zeroes all modes with ``|k| > k_cut``; with the
  spherical 2*sqrt(2)/3 rule combined with shifting, or the conservative
  2/3 rule alone, aliased contributions never re-enter retained modes.
* **Phase shifting** evaluates the product on a grid shifted by ``d``;
  aliased triads pick up a factor ``exp(±i N d_j)`` while true triads are
  unchanged, so averaging evaluations at shifts ``0`` and ``dx/2`` cancels
  the leading aliases — or, cheaper and standard in the turbulence
  community, a *random* shift each RK step turns the alias into a
  zero-mean noise term.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.spectral.grid import SpectralGrid

__all__ = [
    "DealiasRule",
    "phase_shift_factor",
    "random_shift",
    "sharp_truncation_mask",
    "truncated_modes",
]


class DealiasRule(enum.Enum):
    """Which truncation radius to combine with (optional) phase shifting."""

    #: Keep |k| <= N/3 (classic 2/3 rule): alias-free for quadratic terms
    #: without any shifting.
    TWO_THIRDS = "two_thirds"
    #: Keep |k| <= sqrt(2) N / 3: the larger sphere retained when phase
    #: shifting removes the remaining single-axis aliases (Rogallo).
    SQRT2_THIRDS = "sqrt2_thirds"
    #: No truncation (only sensible for analytic test fields).
    NONE = "none"

    def cutoff(self, grid: SpectralGrid) -> float:
        if self is DealiasRule.TWO_THIRDS:
            return grid.n * grid.k_fundamental / 3.0
        if self is DealiasRule.SQRT2_THIRDS:
            return np.sqrt(2.0) * grid.n * grid.k_fundamental / 3.0
        return np.inf


def _beyond(k_magnitude: np.ndarray, cutoff: float, out=None) -> np.ndarray:
    """``|k| > cutoff``, with a relative tolerance so that integer shells at
    the cutoff are kept."""
    return np.greater(k_magnitude, cutoff * (1.0 + 1e-12), out=out)


def sharp_truncation_mask(grid: SpectralGrid, rule: DealiasRule) -> np.ndarray:
    """Boolean-as-real mask: 1 where |k| <= cutoff, else 0."""
    cutoff = rule.cutoff(grid)
    if not np.isfinite(cutoff):
        return np.ones(grid.spectral_shape, dtype=grid.dtype)
    return (~_beyond(grid.k_magnitude, cutoff)).astype(grid.dtype)


def truncated_modes(grid: SpectralGrid, rule: DealiasRule,
                    zslice: slice = slice(None)) -> np.ndarray:
    """The modes of the kz-slab ``zslice`` that ``rule`` removes, one bool
    each: the complement of :func:`sharp_truncation_mask` on that slab,
    formed a ``z`` plane at a time from the 1-D wavenumbers, so no
    full-grid table is made."""
    kx, ky, kz = grid.k_vectors
    kz = kz[zslice]
    cut = np.zeros((kz.shape[0], *grid.spectral_shape[1:]), dtype=bool)
    cutoff = rule.cutoff(grid)
    if np.isfinite(cutoff):
        plane = (kx**2 + ky**2)[0]
        for z, kz2 in enumerate(kz**2):
            _beyond(np.sqrt(plane + kz2), cutoff, out=cut[z])
    return cut


def random_shift(grid: SpectralGrid, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random interval shift vector ``d`` in [0, dx)^3."""
    return rng.uniform(0.0, grid.dx, size=3)


def phase_shift_factor(grid: SpectralGrid, shift: np.ndarray) -> np.ndarray:
    """``exp(i k . d)`` over the spectral shape for shift vector ``d``.

    Multiplying spectral coefficients by this factor before the inverse
    transform evaluates the field on the grid displaced by ``d``; multiply
    by the conjugate after the forward transform to shift back.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (3,):
        raise ValueError("shift must be a 3-vector (dx, dy, dz)")
    kx, ky, kz = grid.k_vectors
    phase = kx * shift[0] + ky * shift[1] + kz * shift[2]
    return np.exp(1j * phase).astype(grid.cdtype)
