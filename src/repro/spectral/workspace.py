"""Pre-allocated spectral workspace and the transform providers.

The paper's GPU pipeline keeps 27 pencil buffers resident for the whole run
(Sec. 3.5) so that no allocation ever sits between arithmetic stages.  This
module is the CPU-side analogue for the *real* numerics: a
:class:`SpectralWorkspace` owns every full-grid scratch array the solver hot
path needs and runs the 3-D transforms in them, so a steady-state RK step
performs **zero** full-grid allocations in either precision (asserted by the
tier-1 tracemalloc regression test).  The arithmetic between transforms
lives in :mod:`repro.spectral.pointwise`.

Every transform in the repo — the serial workspace's 3-D pair and the
distributed stage kernels' 1-D lines — goes through one provider per FFT
library, resolved by name with :func:`resolve_fft`:

``numpy``
    :class:`NumpyFFT`: ``np.fft`` writing into the caller's ``out=``
    buffer, the 3-D pair one axis at a time.
``scipy``
    :class:`ScipyFFT`: ``scipy.fft``, whose results are copied into
    ``out``; the 3-D pair is ``rfftn``/``irfftn`` with ``workers=N``
    threading (``REPRO_FFT_WORKERS``, default: all cores).

Select with ``SpectralWorkspace(grid, backend="scipy")``, the
``SolverConfig.fft_backend`` field, the ``--fft-backend`` CLI flag, or the
``REPRO_FFT_BACKEND`` environment variable (checked when the requested name
is ``"auto"``).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.obs import NULL_OBS, NULL_SPAN
from repro.spectral.grid import SpectralGrid

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = [
    "FFT_PROVIDERS",
    "NumpyFFT",
    "ScipyFFT",
    "SpectralWorkspace",
    "available_backends",
    "resolve_fft",
]

_Z_AXIS, _Y_AXIS, _X_AXIS = 0, 1, 2


# -- transform providers ------------------------------------------------------


_SINGLE = (np.dtype(np.float32), np.dtype(np.complex64))


def _np_line(fn, a, length, out, norm, inverse, **kw):
    """One ``np.fft`` line call, kept in single precision when ``a`` is.

    On an unscaled call NumPy hands pocketfft an integer scale factor,
    which selects the double-precision loop and allocates a converted copy
    of a single-precision operand.  For those the call scaled by
    ``1/length`` runs instead, and the scale is undone in place.
    """
    unscaled = norm == "forward" if inverse else norm in (None, "backward")
    if not (unscaled and a.dtype in _SINGLE):
        return fn(a, out=out, norm=norm, **kw)
    out = fn(a, out=out, norm="backward" if inverse else "forward", **kw)
    out *= length
    return out


class NumpyFFT:
    """``np.fft`` behind the provider contract every transform goes through.

    The line calls ``fft`` / ``ifft`` / ``rfft`` / ``irfft`` take ``out=``
    and ``norm=`` with ``np.fft``'s meaning, in either precision: the result
    is written into ``out`` (which may be ``a`` for the complex-to-complex
    pair) and returned.  The distributed stage kernels
    (:mod:`repro.dist.stages`) call them on slabs and pencils; the serial
    workspace calls the 3-D pair, which is built from the same line calls.

    The repo's convention is ``norm="forward"`` on every axis: ``forward3d``
    computes ``rfftn / N^3`` into ``out``; ``inverse3d`` computes the
    unnormalized inverse into the real ``out``, using ``work`` as complex
    scratch so the input is never modified (``u_hat`` may *be* ``work``,
    which is then transformed in place).  The scaling is folded into the
    transform, so it costs no extra pass over the data.
    """

    name = "numpy"

    @classmethod
    def available(cls) -> bool:
        return True

    def fft(self, a, axis, out=None, norm=None):
        return _np_line(np.fft.fft, a, a.shape[axis], out, norm, False, axis=axis)

    def ifft(self, a, axis, out=None, norm=None):
        return _np_line(np.fft.ifft, a, a.shape[axis], out, norm, True, axis=axis)

    def rfft(self, a, axis, out=None, norm=None):
        return _np_line(np.fft.rfft, a, a.shape[axis], out, norm, False, axis=axis)

    def irfft(self, a, n, axis, out=None, norm=None):
        return _np_line(np.fft.irfft, a, n, out, norm, True, n=n, axis=axis)

    def forward3d(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        self.rfft(u, _X_AXIS, out=out, norm="forward")
        self.fft(out, _Z_AXIS, out=out, norm="forward")
        return self.fft(out, _Y_AXIS, out=out, norm="forward")

    def inverse3d(
        self, u_hat: np.ndarray, out: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        # The first axis reads the input and writes the scratch, so the
        # input survives without a separate copy.
        self.ifft(u_hat, _Z_AXIS, out=work, norm="forward")
        self.ifft(work, _Y_AXIS, out=work, norm="forward")
        return self.irfft(work, out.shape[_X_AXIS], _X_AXIS, out=out,
                          norm="forward")


class ScipyFFT(NumpyFFT):
    """``scipy.fft``: single-worker line calls (line batches are the
    parallelism unit of the distributed path), ``workers=N`` 3-D calls
    (``REPRO_FFT_WORKERS``, default: all cores).

    ``scipy.fft`` has no ``out=``, so every call here allocates its result
    and copies it into ``out`` when one is given.
    """

    name = "scipy"

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = int(os.environ.get("REPRO_FFT_WORKERS", "0")) or (
                os.cpu_count() or 1
            )
        self.workers = workers

    @classmethod
    def available(cls) -> bool:
        try:
            import scipy.fft  # noqa: F401
        except ImportError:  # pragma: no cover - scipy is a hard dependency
            return False
        return True

    @staticmethod
    def _into(result, out):
        if out is None:
            return result
        out[...] = result
        return out

    def fft(self, a, axis, out=None, norm=None):
        import scipy.fft

        return self._into(scipy.fft.fft(a, axis=axis, norm=norm, workers=1), out)

    def ifft(self, a, axis, out=None, norm=None):
        import scipy.fft

        return self._into(scipy.fft.ifft(a, axis=axis, norm=norm, workers=1), out)

    def rfft(self, a, axis, out=None, norm=None):
        import scipy.fft

        return self._into(scipy.fft.rfft(a, axis=axis, norm=norm, workers=1), out)

    def irfft(self, a, n, axis, out=None, norm=None):
        import scipy.fft

        return self._into(
            scipy.fft.irfft(a, n=n, axis=axis, norm=norm, workers=1), out
        )

    def forward3d(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        import scipy.fft

        return self._into(scipy.fft.rfftn(
            u, axes=(_Z_AXIS, _Y_AXIS, _X_AXIS), workers=self.workers,
            norm="forward",
        ), out)

    def inverse3d(
        self, u_hat: np.ndarray, out: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        import scipy.fft

        return self._into(scipy.fft.irfftn(
            u_hat, s=out.shape, axes=(_Z_AXIS, _Y_AXIS, _X_AXIS),
            workers=self.workers, norm="forward",
        ), out)


#: The provider registry; ``fft_backend``'s vocabulary is these plus "auto".
FFT_PROVIDERS: dict[str, type[NumpyFFT]] = {
    "numpy": NumpyFFT,
    "scipy": ScipyFFT,
}
_cache: dict[str, NumpyFFT] = {}


def available_backends() -> list[str]:
    """Provider names importable in this environment, preference-ordered."""
    return [name for name, cls in FFT_PROVIDERS.items() if cls.available()]


def resolve_fft(name: str | NumpyFFT | None = "auto") -> NumpyFFT:
    """The provider named ``name``, one instance per name per process.

    ``"auto"`` (or None) consults ``REPRO_FFT_BACKEND`` and defaults to
    ``numpy``; an already-constructed provider passes through unchanged.
    """
    if isinstance(name, NumpyFFT):
        return name
    if name is None or name == "auto":
        name = os.environ.get("REPRO_FFT_BACKEND", "numpy").lower()
    provider = _cache.get(name)
    if provider is not None:
        return provider
    cls = FFT_PROVIDERS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown FFT backend {name!r}; choose from {sorted(FFT_PROVIDERS)}"
        )
    if not cls.available():
        raise ValueError(f"FFT backend {name!r} is not available in this environment")
    provider = _cache[name] = cls()
    return provider


# -- the workspace -------------------------------------------------------------


class SpectralWorkspace:
    """Owns every full-grid scratch array of the solver hot path.

    Buffers are created on first request and reused forever after (the
    warmup step), mirroring the paper's fixed 27-buffer GPU arena.

    A workspace may be shared between solvers on the same grid as long as
    they run sequentially — buffers are namespaced by string keys, not locked.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        backend: str | NumpyFFT | None = "auto",
        obs: "Observability | None" = None,
    ):
        self.grid = grid
        self.backend = resolve_fft(backend)
        self.obs = obs if obs is not None else NULL_OBS
        self._buffers: dict[tuple[str, str, Optional[int]], np.ndarray] = {}

    # -- named scratch buffers ---------------------------------------------

    def physical(self, key: str, ncomp: Optional[int] = None) -> np.ndarray:
        """A named real scratch array, physical shape (contents undefined)."""
        return self._buffer("phys", key, ncomp, self.grid.physical_shape, self.grid.dtype)

    def spectral(self, key: str, ncomp: Optional[int] = None) -> np.ndarray:
        """A named complex scratch array, spectral shape (contents undefined)."""
        return self._buffer("spec", key, ncomp, self.grid.spectral_shape, self.grid.cdtype)

    def _buffer(self, kind, key, ncomp, base_shape, dtype) -> np.ndarray:
        cache_key = (kind, key, ncomp)
        buf = self._buffers.get(cache_key)
        if buf is None:
            shape = base_shape if ncomp is None else (ncomp, *base_shape)
            buf = np.empty(shape, dtype=dtype)
            self._buffers[cache_key] = buf
            if self.obs.enabled:
                # Buffer creation is a warmup-only event; track the arena
                # footprint high-water mark as it grows.
                self.obs.metrics.counter("workspace.buffers").inc()
                self.obs.metrics.gauge("workspace.bytes_peak").set_max(self.nbytes)
        return buf

    def release(self, prefix: str, ncomp: Optional[int]) -> None:
        """Drop the named buffers whose key starts with ``prefix`` and that
        have ``ncomp`` components; the next request makes them anew."""
        for key in [k for k in self._buffers
                    if k[1].startswith(prefix) and k[2] == ncomp]:
            del self._buffers[key]

    @property
    def buffer_count(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Total bytes held by named buffers (the arena footprint)."""
        return sum(b.nbytes for b in self._buffers.values())

    # -- normalized transforms ----------------------------------------------

    def fft3d(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Physical -> spectral with the repo's 1/N^3 forward convention."""
        grid = self.grid
        if u.shape != grid.physical_shape:
            raise ValueError(f"expected {grid.physical_shape}, got {u.shape}")
        if out is None:
            out = self.spectral("fft_out")
        obs = self.obs
        # Conditional so the disabled path never builds the kwargs dict.
        with (obs.spans.span("fft.fwd", category="fft",
                             backend=self.backend.name, n=grid.n)
              if obs.enabled else NULL_SPAN):
            self.backend.forward3d(u, out)
        if obs.enabled:
            obs.metrics.counter("fft.calls").inc()
        return out

    @property
    def ifft_work(self) -> np.ndarray:
        """The complex scratch of :meth:`ifft3d`.  A caller that has to build
        the transform's input anyway (the phase-shifted coefficients) writes
        it here and passes it in; it is then transformed in place."""
        return self.spectral("ifft_work")

    def ifft3d(self, u_hat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Spectral -> physical, the inverse of :meth:`fft3d`."""
        grid = self.grid
        if u_hat.shape != grid.spectral_shape:
            raise ValueError(f"expected {grid.spectral_shape}, got {u_hat.shape}")
        if out is None:
            out = self.physical("ifft_out")
        work = self.ifft_work
        obs = self.obs
        with (obs.spans.span("fft.inv", category="fft",
                             backend=self.backend.name, n=grid.n)
              if obs.enabled else NULL_SPAN):
            self.backend.inverse3d(u_hat, out, work)
        if obs.enabled:
            obs.metrics.counter("fft.calls").inc()
        return out
