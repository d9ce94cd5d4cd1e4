"""Reference forward/inverse 3-D transforms.

Normalization convention: the *forward* transform carries the ``1/N^3``
factor, so spectral values are true Fourier-series coefficients —
``u(x) = sum_k u_hat(k) exp(i k.x)`` as written in the paper's Sec. 2.

:func:`fft3d` / :func:`ifft3d` are one-shot, allocating ``numpy.fft.rfftn``
calls for the off-hot-path callers (initial conditions, diagnostics) and
the reference the solvers' transforms are tested against.  The hot
paths transform through the providers of :mod:`repro.spectral.workspace`
(the serial workspace) and the stage kernels of :mod:`repro.dist.stages`
(every distributed engine).
"""

from __future__ import annotations

import numpy as np

from repro.spectral.grid import SpectralGrid

__all__ = ["fft3d", "ifft3d"]

_Z_AXIS, _Y_AXIS, _X_AXIS = 0, 1, 2


def fft3d(u: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Physical (N,N,N) real -> spectral (N,N,N//2+1) complex, normalized."""
    if u.shape != grid.physical_shape:
        raise ValueError(f"expected {grid.physical_shape}, got {u.shape}")
    out = np.fft.rfftn(u, axes=(_Z_AXIS, _Y_AXIS, _X_AXIS))
    out /= grid.n**3
    return out.astype(grid.cdtype, copy=False)


def ifft3d(u_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Spectral -> physical; inverse of :func:`fft3d`."""
    if u_hat.shape != grid.spectral_shape:
        raise ValueError(f"expected {grid.spectral_shape}, got {u_hat.shape}")
    # Forward carried the 1/N^3; numpy's irfftn carries its own 1/N^3, so the
    # two must be compensated with a factor of N^3.  Scale the *real* output
    # in place: scaling the complex input would materialize a full-grid
    # temporary (and touch twice the bytes) before the transform even runs.
    out = np.fft.irfftn(
        u_hat,
        s=grid.physical_shape,
        axes=(_Z_AXIS, _Y_AXIS, _X_AXIS),
    )
    out *= grid.n**3
    return out.astype(grid.dtype, copy=False)
