"""The spectral grid: wavenumbers, layouts and mode-counting weights.

Physical fields are real arrays of shape ``(N, N, N)`` indexed ``[z, y, x]``
(x contiguous).  Spectral fields exploit conjugate symmetry of real data,
``u_hat(-k) = conj(u_hat(k))`` (paper Sec. 3.3): the x axis is stored
half-complex, giving complex arrays of shape ``(N, N, N//2 + 1)`` indexed
``[kz, ky, kx]``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["SpectralGrid"]


class SpectralGrid:
    """Geometry, wavenumbers and masks for an ``N^3`` periodic cube.

    Parameters
    ----------
    n:
        Linear grid size (``N`` in the paper); must be even and >= 4.
    length:
        Physical domain edge length (default ``2*pi``, giving integer
        wavenumbers).
    dtype:
        Real dtype of physical fields (``float64`` default; the paper's
        production code runs single precision, exposed here as
        ``np.float32``).

    Examples
    --------
    >>> g = SpectralGrid(16)
    >>> g.physical_shape
    (16, 16, 16)
    >>> g.spectral_shape
    (16, 16, 9)
    """

    def __init__(self, n: int, length: float = 2.0 * np.pi, dtype=np.float64):
        if n < 4 or n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {n}")
        if length <= 0:
            raise ValueError("domain length must be positive")
        self.n = int(n)
        self.length = float(length)
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError("dtype must be float32 or float64")
        self.cdtype = np.dtype(np.complex64 if self.dtype == np.float32 else np.complex128)

    # -- shapes -------------------------------------------------------------

    @property
    def physical_shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n // 2 + 1)

    @property
    def dx(self) -> float:
        return self.length / self.n

    # -- coordinates & wavenumbers -------------------------------------------

    @cached_property
    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable physical coordinates ``(z, y, x)``."""
        axis = np.arange(self.n, dtype=self.dtype) * self.dtype.type(self.dx)
        return (
            axis.reshape(-1, 1, 1),
            axis.reshape(1, -1, 1),
            axis.reshape(1, 1, -1),
        )

    @cached_property
    def k_fundamental(self) -> float:
        """Wavenumber of the longest representable wave, ``2*pi/L``."""
        return 2.0 * np.pi / self.length

    @cached_property
    def kz(self) -> np.ndarray:
        """Signed integer wavenumbers along z, shaped ``(N, 1, 1)``."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return (k * self.k_fundamental).astype(self.dtype).reshape(-1, 1, 1)

    @cached_property
    def ky(self) -> np.ndarray:
        """Signed integer wavenumbers along y, shaped ``(1, N, 1)``."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return (k * self.k_fundamental).astype(self.dtype).reshape(1, -1, 1)

    @cached_property
    def kx(self) -> np.ndarray:
        """Non-negative wavenumbers along x, shaped ``(1, 1, N//2+1)``."""
        k = np.fft.rfftfreq(self.n, d=1.0 / self.n)
        return (k * self.k_fundamental).astype(self.dtype).reshape(1, 1, -1)

    @cached_property
    def k_vectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(kx, ky, kz)`` broadcastable over the spectral shape."""
        return (self.kx, self.ky, self.kz)

    @cached_property
    def k_squared(self) -> np.ndarray:
        """|k|^2, full spectral shape."""
        return (self.kx**2 + self.ky**2 + self.kz**2).astype(self.dtype)

    @cached_property
    def k_squared_nonzero(self) -> np.ndarray:
        """|k|^2 with the k=0 entry set to 1 (safe division)."""
        k2 = self.k_squared.copy()
        k2[0, 0, 0] = 1.0
        return k2

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        return np.sqrt(self.k_squared)

    @property
    def k_max(self) -> float:
        """Largest resolved wavenumber magnitude along one axis."""
        return (self.n // 2) * self.k_fundamental

    # -- mode-counting -------------------------------------------------------

    @cached_property
    def hermitian_weights(self) -> np.ndarray:
        """Multiplicity of each stored mode when summing over the full sphere.

        In the half-complex layout, modes with ``0 < kx < N/2`` represent
        both ``+kx`` and ``-kx`` and carry weight 2; the ``kx = 0`` and
        ``kx = N/2`` planes are self-conjugate and carry weight 1.
        """
        w = np.full(self.spectral_shape, 2.0, dtype=self.dtype)
        w[:, :, 0] = 1.0
        if self.n % 2 == 0:
            w[:, :, -1] = 1.0
        return w

    @cached_property
    def shell_index(self) -> np.ndarray:
        """Integer spherical-shell index round(|k| / k_fundamental)."""
        return np.rint(self.k_magnitude / self.k_fundamental).astype(np.int64)

    @property
    def num_shells(self) -> int:
        return int(self.shell_index.max()) + 1

    # -- dtype helpers ---------------------------------------------------------

    def empty_physical(self, ncomp: int | None = None) -> np.ndarray:
        shape = self.physical_shape if ncomp is None else (ncomp, *self.physical_shape)
        return np.empty(shape, dtype=self.dtype)

    def zeros_spectral(self, ncomp: int | None = None) -> np.ndarray:
        shape = self.spectral_shape if ncomp is None else (ncomp, *self.spectral_shape)
        return np.zeros(shape, dtype=self.cdtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpectralGrid(n={self.n}, length={self.length:.6g}, dtype={self.dtype})"
