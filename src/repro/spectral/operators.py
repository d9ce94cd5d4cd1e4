"""Spectral-space differential operators and the nonlinear term.

Everything operates on half-complex spectral arrays of shape
``(3, N, N, N//2+1)`` for vectors (component axis first) or
``(N, N, N//2+1)`` for scalars, with the wavenumbers supplied by a
:class:`~repro.spectral.grid.SpectralGrid`.

These are the textbook, allocating forms — what the equations say, one
NumPy expression per term.  The solvers run the same algebra through
:class:`repro.spectral.pointwise.PointwiseKernel`; the tests hold the kernel
to these functions.
"""

from __future__ import annotations

import numpy as np

from repro.spectral.grid import SpectralGrid
from repro.spectral.transforms import fft3d, ifft3d

__all__ = [
    "curl_hat",
    "divergence_hat",
    "gradient_hat",
    "nonlinear_conservative",
    "nonlinear_rotational",
    "project",
    "vorticity_hat",
]


def _check_vector(v_hat: np.ndarray, grid: SpectralGrid) -> None:
    if v_hat.shape != (3, *grid.spectral_shape):
        raise ValueError(
            f"expected vector spectral shape {(3, *grid.spectral_shape)}, got {v_hat.shape}"
        )


def gradient_hat(s_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Gradient of a scalar: (i kx s, i ky s, i kz s)."""
    if s_hat.shape != grid.spectral_shape:
        raise ValueError(f"expected {grid.spectral_shape}, got {s_hat.shape}")
    kx, ky, kz = grid.k_vectors
    out = np.empty((3, *grid.spectral_shape), dtype=s_hat.dtype)
    out[0] = 1j * kx * s_hat
    out[1] = 1j * ky * s_hat
    out[2] = 1j * kz * s_hat
    return out


def divergence_hat(v_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Divergence of a vector: i k . v."""
    _check_vector(v_hat, grid)
    kx, ky, kz = grid.k_vectors
    return 1j * (kx * v_hat[0] + ky * v_hat[1] + kz * v_hat[2])


def curl_hat(v_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Curl of a vector: i k x v."""
    _check_vector(v_hat, grid)
    kx, ky, kz = grid.k_vectors
    out = np.empty_like(v_hat)
    out[0] = 1j * (ky * v_hat[2] - kz * v_hat[1])
    out[1] = 1j * (kz * v_hat[0] - kx * v_hat[2])
    out[2] = 1j * (kx * v_hat[1] - ky * v_hat[0])
    return out


def vorticity_hat(u_hat: np.ndarray, grid: SpectralGrid) -> np.ndarray:
    """Vorticity is the curl of velocity (alias for readability)."""
    return curl_hat(u_hat, grid)


def project(
    v_hat: np.ndarray, grid: SpectralGrid, out: np.ndarray | None = None
) -> np.ndarray:
    """Project onto the divergence-free subspace: v - k (k.v) / |k|^2.

    This is the plane-perpendicular-to-k projection of the paper's Eq. 2,
    which simultaneously removes the pressure-gradient term and enforces
    mass conservation.
    """
    _check_vector(v_hat, grid)
    kx, ky, kz = grid.k_vectors
    k_dot_v = kx * v_hat[0] + ky * v_hat[1] + kz * v_hat[2]
    k_dot_v /= grid.k_squared_nonzero
    if out is None:
        out = np.empty_like(v_hat)
    np.subtract(v_hat[0], kx * k_dot_v, out=out[0])
    np.subtract(v_hat[1], ky * k_dot_v, out=out[1])
    np.subtract(v_hat[2], kz * k_dot_v, out=out[2])
    # The mean mode carries no pressure; keep it unchanged.
    out[:, 0, 0, 0] = v_hat[:, 0, 0, 0]
    return out


def nonlinear_conservative(
    u_hat: np.ndarray,
    grid: SpectralGrid,
    mask: np.ndarray | None = None,
    shift: np.ndarray | None = None,
) -> np.ndarray:
    """Convective term in conservative (divergence) form, unprojected.

    Computes ``-( div(u u) )_hat``: transforms the three velocity components
    to physical space, forms the six distinct products ``u_i u_j`` there
    (this is the pseudo-spectral evaluation the paper describes in Sec. 2),
    transforms them back and assembles ``-i k_j (u_i u_j)_hat``.

    Parameters
    ----------
    mask:
        Optional dealiasing mask applied to the result.
    shift:
        Optional phase-shift factor ``exp(i k . d)`` (see
        :func:`repro.spectral.dealias.phase_shift_factor`); products are
        formed on the shifted grid and shifted back, moving aliasing errors
        onto different modes so that averaging over shifts cancels them.
    """
    _check_vector(u_hat, grid)
    kx, ky, kz = grid.k_vectors

    if shift is not None:
        work = u_hat * shift
    else:
        work = u_hat
    u = np.stack([ifft3d(work[i], grid) for i in range(3)])

    # Six distinct symmetric products u_i u_j.
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    prod_hat = {}
    for i, j in pairs:
        ph = fft3d(u[i] * u[j], grid)
        if shift is not None:
            ph *= np.conj(shift)
        prod_hat[(i, j)] = ph
        prod_hat[(j, i)] = ph

    k = (kx, ky, kz)
    out = np.empty_like(u_hat)
    for i in range(3):
        acc = k[0] * prod_hat[(i, 0)]
        acc += k[1] * prod_hat[(i, 1)]
        acc += k[2] * prod_hat[(i, 2)]
        out[i] = -1j * acc
    if mask is not None:
        out *= mask
    return out


def nonlinear_rotational(
    u_hat: np.ndarray,
    grid: SpectralGrid,
    mask: np.ndarray | None = None,
    shift: np.ndarray | None = None,
) -> np.ndarray:
    """Convective term in rotational form ``u x omega``, unprojected.

    Identical to the conservative form for exact (unaliased) arithmetic up
    to a gradient (removed by projection), but needs only three forward
    transforms instead of six — the classic cost/robustness trade-off.
    """
    _check_vector(u_hat, grid)

    if shift is not None:
        work_u = u_hat * shift
    else:
        work_u = u_hat
    omega_hat = curl_hat(work_u, grid)

    u = np.stack([ifft3d(work_u[i], grid) for i in range(3)])
    w = np.stack([ifft3d(omega_hat[i], grid) for i in range(3)])

    cross = np.empty_like(u)
    cross[0] = u[1] * w[2] - u[2] * w[1]
    cross[1] = u[2] * w[0] - u[0] * w[2]
    cross[2] = u[0] * w[1] - u[1] * w[0]

    out = np.empty_like(u_hat)
    for i in range(3):
        ch = fft3d(cross[i], grid)
        if shift is not None:
            ch *= np.conj(shift)
        out[i] = ch
    if mask is not None:
        out *= mask
    return out
