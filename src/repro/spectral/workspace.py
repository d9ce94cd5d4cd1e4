"""Pre-allocated spectral workspace and pluggable transform backends.

The paper's GPU pipeline keeps 27 pencil buffers resident for the whole run
(Sec. 3.5) so that no allocation ever sits between arithmetic stages.  This
module is the CPU-side analogue for the *real* numerics: a
:class:`SpectralWorkspace` owns every full-grid scratch array the solver hot
path needs and runs the 3-D transforms in them, so a steady-state RK step
performs **zero** full-grid allocations (asserted by the tier-1 tracemalloc
regression test).  The arithmetic between transforms lives in
:mod:`repro.spectral.pointwise`.

Transforms go through a pluggable :class:`TransformBackend`:

``numpy``
    Axis-at-a-time ``np.fft`` calls writing into workspace buffers via the
    ``out=`` parameter (NumPy >= 2.0); falls back to copying one-shot
    ``rfftn``/``irfftn`` results on older NumPy.
``scipy``
    ``scipy.fft`` with ``workers=N`` threading (``REPRO_FFT_WORKERS``,
    default: all cores).
``fftw``
    pyFFTW with cached plans, when the package is importable.

Select with ``SpectralWorkspace(grid, backend="scipy")``, the
``SolverConfig.fft_backend`` field, the ``--fft-backend`` CLI flag, or the
``REPRO_FFT_BACKEND`` environment variable (checked when the requested name
is ``"auto"``).
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.obs import NULL_OBS, NULL_SPAN
from repro.spectral.grid import SpectralGrid

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = [
    "BufferPool",
    "FftwBackend",
    "FftwLineTransforms",
    "LineTransforms",
    "NumpyBackend",
    "ScipyBackend",
    "ScipyLineTransforms",
    "SpectralWorkspace",
    "TransformBackend",
    "available_backends",
    "resolve_backend",
    "resolve_line_fft",
]

_Z_AXIS, _Y_AXIS, _X_AXIS = 0, 1, 2

# NumPy gained ``out=`` on the pocketfft wrappers in 2.0; probe once.
try:  # pragma: no cover - exercised implicitly by every transform call
    np.fft.fft(np.zeros(2, dtype=complex), out=np.zeros(2, dtype=complex))
    _HAS_FFT_OUT = True
except TypeError:  # pragma: no cover - only on numpy < 2.0
    _HAS_FFT_OUT = False


class BufferPool:
    """Free-list of reusable ndarrays keyed by ``(shape, dtype)``.

    ``take`` returns a previously released buffer of the exact shape/dtype
    when one is available (contents are undefined), else allocates.  This is
    the allocation discipline of the paper's fixed GPU buffer arena: after a
    warmup pass every request is served from the pool.
    """

    def __init__(self, max_per_key: int = 8, obs: "Observability | None" = None):
        self._free: dict[tuple[tuple[int, ...], np.dtype], list[np.ndarray]] = {}
        self.max_per_key = max_per_key
        self.hits = 0
        self.misses = 0
        self.obs = obs if obs is not None else NULL_OBS
        # take/give are called from exec-stream worker threads (pack staging,
        # arena rings), so the free-list mutations must be atomic.
        self._lock = threading.Lock()
        #: Optional invariant monitor (repro.verify.invariants): notified on
        #: every take/give so fuzzed runs can assert no double-release.
        self.monitor = None

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (tuple(shape), np.dtype(dtype))
        with self._lock:
            stack = self._free.get(key)
            if stack:
                self.hits += 1
                hit = True
                buf = stack.pop()
            else:
                self.misses += 1
                hit = False
                buf = None
            # Monitor hooks run under the pool lock so the monitor observes
            # take/give in their true serialization (calling them outside
            # would let a delayed give notification race a concurrent take).
            if buf is not None and self.monitor is not None:
                self.monitor.on_pool_take(buf, fresh=False)
        if self.obs.enabled:
            name = "pool.take.hits" if hit else "pool.take.misses"
            self.obs.metrics.counter(name).inc()
        if buf is None:
            buf = np.empty(key[0], dtype=key[1])
            if self.monitor is not None:
                self.monitor.on_pool_take(buf, fresh=True)
        return buf

    def give(self, buf: np.ndarray) -> None:
        key = (buf.shape, buf.dtype)
        with self._lock:
            stack = self._free.setdefault(key, [])
            stored = len(stack) < self.max_per_key
            if stored:
                stack.append(buf)
            if self.monitor is not None:
                self.monitor.on_pool_give(buf, stored=stored)
        if self.obs.enabled:
            self.obs.metrics.counter("pool.releases").inc()


# -- transform backends -------------------------------------------------------


class TransformBackend:
    """3-D real transforms writing into caller-owned buffers.

    The repo's convention (``norm="forward"``): ``forward`` computes
    ``rfftn / N^3`` into ``out``; ``inverse`` computes the unnormalized
    inverse into the real ``out``, using ``work`` as complex scratch so the
    input is never modified (``u_hat`` may *be* ``work``, which is then
    transformed in place).  The scaling is folded into the transform where
    the library offers it, so it costs no extra pass over the data.
    """

    name = "base"

    @classmethod
    def available(cls) -> bool:
        return True

    def forward(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(
        self, u_hat: np.ndarray, out: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError


class NumpyBackend(TransformBackend):
    """Axis-at-a-time ``np.fft`` with in-place ``out=`` buffers."""

    name = "numpy"

    def forward(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        # np.fft computes in double precision and requires out= buffers to
        # be complex128, so single-precision grids take the copying path.
        if _HAS_FFT_OUT and out.dtype == np.complex128:
            np.fft.rfft(u, axis=_X_AXIS, out=out, norm="forward")
            np.fft.fft(out, axis=_Z_AXIS, out=out, norm="forward")
            np.fft.fft(out, axis=_Y_AXIS, out=out, norm="forward")
        else:
            out[...] = np.fft.rfftn(
                u, axes=(_Z_AXIS, _Y_AXIS, _X_AXIS), norm="forward"
            )
        return out

    def inverse(
        self, u_hat: np.ndarray, out: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        if _HAS_FFT_OUT and work.dtype == np.complex128 and out.dtype == np.float64:
            # The first axis reads the input and writes the scratch, so the
            # input survives without a separate copy.
            np.fft.ifft(u_hat, axis=_Z_AXIS, out=work, norm="forward")
            np.fft.ifft(work, axis=_Y_AXIS, out=work, norm="forward")
            np.fft.irfft(work, n=out.shape[_X_AXIS], axis=_X_AXIS, out=out,
                         norm="forward")
        else:
            out[...] = np.fft.irfftn(
                u_hat, s=out.shape, axes=(_Z_AXIS, _Y_AXIS, _X_AXIS),
                norm="forward",
            )
        return out


class ScipyBackend(TransformBackend):
    """``scipy.fft`` with ``workers=N`` threading (no ``out=`` support)."""

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

    def forward(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        import scipy.fft

        out[...] = scipy.fft.rfftn(
            u, axes=(_Z_AXIS, _Y_AXIS, _X_AXIS), workers=self.workers,
            norm="forward",
        )
        return out

    def inverse(
        self, u_hat: np.ndarray, out: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        import scipy.fft

        out[...] = scipy.fft.irfftn(
            u_hat, s=out.shape, axes=(_Z_AXIS, _Y_AXIS, _X_AXIS),
            workers=self.workers, norm="forward",
        )
        return out


class FftwBackend(TransformBackend):
    """pyFFTW with plans cached per array shape (built once, reused forever)."""

    name = "fftw"

    def __init__(self, threads: Optional[int] = None):
        import pyfftw  # noqa: F401 - raises if unavailable

        self._pyfftw = pyfftw
        self.threads = threads or (os.cpu_count() or 1)
        self._plans: dict[tuple, object] = {}

    @classmethod
    def available(cls) -> bool:
        try:
            import pyfftw  # noqa: F401
        except ImportError:
            return False
        return True

    def _plan(self, kind: str, src: np.ndarray, dst: np.ndarray):
        key = (kind, src.shape, src.dtype.str, dst.shape, dst.dtype.str)
        plan = self._plans.get(key)
        if plan is None:
            builder = (
                self._pyfftw.builders.rfftn if kind == "fwd"
                else self._pyfftw.builders.irfftn
            )
            kw = {"s": dst.shape} if kind == "inv" else {}
            plan = builder(
                src,
                axes=(_Z_AXIS, _Y_AXIS, _X_AXIS),
                threads=self.threads,
                auto_align_input=False,
                auto_contiguous=False,
                avoid_copy=True,
                **kw,
            )
            self._plans[key] = plan
        return plan

    def forward(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[...] = self._plan("fwd", u, out)(u)
        out /= u.size
        return out

    def inverse(
        self, u_hat: np.ndarray, out: np.ndarray, work: np.ndarray
    ) -> np.ndarray:
        # pyFFTW normalizes its inverse like numpy (1/N^3); undo it.
        out[...] = self._plan("inv", u_hat, out)(u_hat)
        out *= out.size
        return out


_BACKENDS: dict[str, type[TransformBackend]] = {
    "numpy": NumpyBackend,
    "scipy": ScipyBackend,
    "fftw": FftwBackend,
}


def available_backends() -> list[str]:
    """Backend names importable in this environment, preference-ordered."""
    return [name for name, cls in _BACKENDS.items() if cls.available()]


def resolve_backend(name: str | TransformBackend | None = "auto") -> TransformBackend:
    """Instantiate a backend by name.

    ``"auto"`` (or None) consults ``REPRO_FFT_BACKEND`` and defaults to
    ``numpy``; an already-constructed backend passes through unchanged.
    """
    if isinstance(name, TransformBackend):
        return name
    if name is None:
        name = "auto"
    if name == "auto":
        name = os.environ.get("REPRO_FFT_BACKEND", "numpy").lower()
    cls = _BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown FFT backend {name!r}; choose from {sorted(_BACKENDS)}"
        )
    if not cls.available():
        raise ValueError(f"FFT backend {name!r} is not available in this environment")
    return cls()


# -- 1-D line transforms (the distributed slab path) ---------------------------


class LineTransforms:
    """Axis-at-a-time 1-D transforms behind the same backend names.

    The distributed slab FFT (:mod:`repro.dist.slab_fft`) transforms one
    axis at a time between global transposes, so it needs 1-D ``fft`` /
    ``ifft`` / ``rfft`` / ``irfft`` rather than the 3-D ``rfftn`` of
    :class:`TransformBackend`.  Providers share the backend registry and
    availability gates, so ``--fft-backend`` selects both at once; the
    process-pool comm backend (:mod:`repro.mpi.procs`) resolves a provider
    *inside each worker*, which is where pyFFTW plans end up living.
    """

    name = "numpy"

    @classmethod
    def available(cls) -> bool:
        return True

    def fft(self, a: np.ndarray, axis: int) -> np.ndarray:
        return np.fft.fft(a, axis=axis)

    def ifft(self, a: np.ndarray, axis: int) -> np.ndarray:
        return np.fft.ifft(a, axis=axis)

    def rfft(self, a: np.ndarray, axis: int) -> np.ndarray:
        return np.fft.rfft(a, axis=axis)

    def irfft(self, a: np.ndarray, n: int, axis: int) -> np.ndarray:
        return np.fft.irfft(a, n=n, axis=axis)


class ScipyLineTransforms(LineTransforms):
    """``scipy.fft`` 1-D transforms (single worker: line batches are the
    parallelism unit in the distributed path, not intra-call threads)."""

    name = "scipy"

    available = ScipyBackend.available

    def fft(self, a, axis):
        import scipy.fft

        return scipy.fft.fft(a, axis=axis, workers=1)

    def ifft(self, a, axis):
        import scipy.fft

        return scipy.fft.ifft(a, axis=axis, workers=1)

    def rfft(self, a, axis):
        import scipy.fft

        return scipy.fft.rfft(a, axis=axis, workers=1)

    def irfft(self, a, n, axis):
        import scipy.fft

        return scipy.fft.irfft(a, n=n, axis=axis, workers=1)


class FftwLineTransforms(LineTransforms):
    """pyFFTW's numpy-compatible interface with its plan cache enabled.

    Constructed lazily inside whichever process calls it, so under the
    process-pool comm backend every rank worker owns its own plan cache.
    """

    name = "fftw"

    available = FftwBackend.available

    def __init__(self):
        import pyfftw.interfaces

        pyfftw.interfaces.cache.enable()
        self._fft = pyfftw.interfaces.numpy_fft

    def fft(self, a, axis):
        return self._fft.fft(a, axis=axis)

    def ifft(self, a, axis):
        return self._fft.ifft(a, axis=axis)

    def rfft(self, a, axis):
        return self._fft.rfft(a, axis=axis)

    def irfft(self, a, n, axis):
        return self._fft.irfft(a, n=n, axis=axis)


_LINE_BACKENDS: dict[str, type[LineTransforms]] = {
    "numpy": LineTransforms,
    "scipy": ScipyLineTransforms,
    "fftw": FftwLineTransforms,
}
_line_cache: dict[str, LineTransforms] = {}


def resolve_line_fft(name: str | LineTransforms | None = "auto") -> LineTransforms:
    """Instantiate (and cache) a 1-D line-transform provider by name.

    Same resolution rules as :func:`resolve_backend`: ``"auto"`` consults
    ``REPRO_FFT_BACKEND`` and defaults to ``numpy``.  Instances are cached
    per name per process, so plan caches (pyFFTW) persist for the process
    lifetime.
    """
    if isinstance(name, LineTransforms):
        return name
    if name is None:
        name = "auto"
    if name == "auto":
        name = os.environ.get("REPRO_FFT_BACKEND", "numpy").lower()
    provider = _line_cache.get(name)
    if provider is not None:
        return provider
    cls = _LINE_BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown FFT backend {name!r}; choose from {sorted(_LINE_BACKENDS)}"
        )
    if not cls.available():
        raise ValueError(f"FFT backend {name!r} is not available in this environment")
    provider = cls()
    _line_cache[name] = provider
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
        backend: str | TransformBackend | None = "auto",
        obs: "Observability | None" = None,
    ):
        self.grid = grid
        self.backend = resolve_backend(backend)
        self.obs = obs if obs is not None else NULL_OBS
        self.pool = BufferPool(obs=self.obs)
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
            self.backend.forward(u, out)
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
            self.backend.inverse(u_hat, out, work)
        if obs.enabled:
            obs.metrics.counter("fft.calls").inc()
        return out
