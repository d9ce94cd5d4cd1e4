"""The data plane's device: a byte budget, its pencil rings and their sizing.

On the paper's GPUs a rank's pencils cycle through a fixed set of
persistent device buffers (Sec. 3.5: 27 buffers claimed at startup; Fig. 4),
and a slab that does not fit is batched.  This module is that device for the
out-of-core engine (:class:`repro.dist.outofcore.OutOfCoreSlabFFT`):

* :class:`DeviceArena` — the byte budget standing in for HBM; a claim past
  it raises :class:`DeviceMemoryExceeded`;
* :class:`PencilRings` — ``window`` flat slots per role, leased from the
  arena once per call and re-viewed per pencil;
* :class:`BufferPool` — the free-list the arena (and the pack staging of
  :mod:`repro.dist.transpose`) draws its arrays from;
* :func:`ring_window` and :func:`ring_bytes` — the sizing rule.  The engine
  sizes its rings and its default arena with them, and admission control
  (:func:`repro.plan.admission.job_device_bytes`) quotes with them, so the
  priced bytes are the enforced bytes.
"""

from __future__ import annotations

import math
import threading
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import NULL_OBS
from repro.spectral.pointwise import PRODUCT_PAIRS

if TYPE_CHECKING:  # pragma: no cover
    from repro.cuda.copyengine import CopyEngine
    from repro.obs import Observability

__all__ = [
    "BufferPool",
    "DeviceArena",
    "DeviceMemoryExceeded",
    "PencilRings",
    "arena_bytes",
    "ring_bytes",
    "ring_window",
]

#: Headroom of a sized arena over the ring slots it must hold.
_ARENA_MARGIN = 1.05


def ring_window(inline: bool, inflight: int, npencils: int, ranks: int) -> int:
    """Ring slots per role: 1 when every operation runs inline (deeper
    windows cannot overlap), else ``inflight`` capped at a phase's
    ``npencils * ranks`` items (a deeper window claims slots no item views)."""
    return 1 if inline else min(int(inflight), npencils * ranks)


def ring_bytes(
    n: int, hmax: int, npencils: int, window: int,
    complex_itemsize: int = 16, real_itemsize: int = 8,
) -> tuple[int, int, int, float]:
    """Ring-slot sizes and the arena of the out-of-core engine's DNS call.

    Returns ``(x-pencil, y-stage complex, y-stage real, arena)`` bytes for
    an ``n``-cubed grid whose tallest rank slab is ``hmax`` planes, cut in
    ``npencils`` pencils with ``window`` of them in flight.  ``arena`` holds
    the rings of the velocity substage (``product_spectra`` of three fields
    into six products), the largest call a DNS step makes.
    """
    nxh = n // 2 + 1
    # Largest pencil of each stage family (the split is uneven and its
    # last slice always carries the ceil: 49 -> 12, 12, 12, 13).  Ring
    # slots are sized for the tallest rank's slab so one ring serves
    # every (pencil, rank) item.
    cx = math.ceil(nxh / npencils)  # x-split width (y-FFT stages)
    wy = math.ceil(hmax / npencils)  # y-split width (z/x-FFT stages)
    xpencil = hmax * n * cx * complex_itemsize
    ycpx = n * wy * nxh * complex_itemsize
    yreal = n * wy * n * real_itemsize
    roles = _roles((xpencil, ycpx, yreal), 3, len(PRODUCT_PAIRS))
    return xpencil, ycpx, yreal, arena_bytes(window, roles)


def arena_bytes(window: int, roles: dict) -> float:
    """The arena that holds ``window`` items' slots of ``roles``."""
    return _ARENA_MARGIN * window * sum(roles.values())


def _roles(pencils: tuple[int, int, int], fields: int, products: int) -> dict:
    """Bytes of one item's ring slots per role, for a call that brings
    ``fields`` complex fields in and hands ``products`` out: one complex
    pencil per field of either side (results overwrite their inputs), and
    on the y stages one real pencil per field in flight — with a product
    being formed, one more.  A single transform is ``(1, 0)``."""
    xpencil, ycpx, yreal = pencils
    return {
        "cpx": max(fields, products) * max(xpencil, ycpx),
        "real": (fields + (products > 0)) * yreal,
    }


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


class DeviceMemoryExceeded(RuntimeError):
    """Raised when a pencil buffer would not fit in the simulated device."""


class DeviceArena:
    """A byte-budgeted allocator standing in for GPU HBM.

    Tracks live allocations and the high-water mark; ``allocate`` raises
    :class:`DeviceMemoryExceeded` when the budget would be exceeded —
    making "this slab does not fit, batch it" an *enforced* invariant
    rather than a comment.  Accounting is thread-safe.

    Buffer storage is drawn from its own :class:`BufferPool`, so repeated
    claims recycle the same arrays instead of allocating — like the paper's
    27 persistent GPU buffers.
    """

    def __init__(
        self,
        capacity_bytes: float,
        obs: "Observability | None" = None,
    ):
        if capacity_bytes <= 0:
            raise ValueError("device capacity must be positive")
        self.capacity = float(capacity_bytes)
        self.in_use = 0.0
        self.high_water = 0.0
        self._live: dict[int, int] = {}
        self._lock = threading.Lock()
        self.obs = obs if obs is not None else NULL_OBS
        self.pool = BufferPool(obs=self.obs)
        #: Optional invariant monitor (repro.verify.invariants): notified on
        #: every allocate/free so fuzzed runs can assert no double-lease and
        #: that in_use returns to zero.
        self.monitor = None

    def allocate(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        with self._lock:
            if self.in_use + nbytes > self.capacity:
                raise DeviceMemoryExceeded(
                    f"allocation of {nbytes} B exceeds device budget "
                    f"({self.in_use:.0f}/{self.capacity:.0f} B in use)"
                )
            self.in_use += nbytes
            self.high_water = max(self.high_water, self.in_use)
        buf = self.pool.take(tuple(shape), dtype)
        with self._lock:
            self._live[id(buf)] = nbytes
            # Under the lock: the monitor must observe allocate/free in
            # their true order, or a recycled buffer's next lease could
            # race ahead of this one's free notification.
            if self.monitor is not None:
                self.monitor.on_arena_allocate(
                    buf, nbytes, in_use=self.in_use, capacity=self.capacity
                )
        if self.obs.enabled:
            self.obs.metrics.counter("arena.acquires").inc()
            self.obs.metrics.gauge("arena.high_water_bytes").set_max(
                self.high_water
            )
        return buf

    def free(self, buf: np.ndarray) -> None:
        with self._lock:
            nbytes = self._live.pop(id(buf), None)
            if nbytes is None:
                raise KeyError("buffer was not allocated from this arena")
            self.in_use -= nbytes
            if self.monitor is not None:
                self.monitor.on_arena_free(buf, in_use=self.in_use)
        self.pool.give(buf)
        if self.obs.enabled:
            self.obs.metrics.counter("arena.releases").inc()

    @contextmanager
    def lease(self, shape: tuple[int, ...], dtype):
        """Context-managed allocate/free: accounting survives exceptions.

        ``with arena.lease(shape, dtype) as buf:`` guarantees the bytes are
        returned even if the transform inside raises mid-pencil — the bug
        the bare allocate/free pairs used to have.
        """
        buf = self.allocate(shape, dtype)
        try:
            yield buf
        finally:
            self.free(buf)


class PencilRings:
    """Persistent per-stage device rings: ``window`` flat slots per role.

    The paper claims its GPU buffers once and reuses them for every pencil
    of every stage; this is that discipline under arena accounting.  Each
    *role* ("cpx", "real") gets ``window`` flat byte buffers leased from
    the arena (``arena.lease`` via an :class:`~contextlib.ExitStack`, so
    accounting survives any failure); :meth:`view` re-views slot
    ``item % window`` as the pencil's exact shape/dtype — no allocate/free
    ever sits between H2D, compute, and D2H.  The arena's monitor, if any,
    sees every view.
    """

    def __init__(
        self,
        arena: DeviceArena,
        window: int,
        roles: dict[str, int],
        engine: "CopyEngine | None" = None,
    ):
        self.window = int(window)
        self.monitor = arena.monitor
        #: Strided-copy strategy for :meth:`load` / :meth:`store`
        #: (view-only rings need none).
        self.engine = engine
        self._stack = ExitStack()
        self._slots: dict[str, list[np.ndarray]] = {}
        try:
            for role, max_nbytes in roles.items():
                padded = -(-int(max_nbytes) // 16) * 16  # align for any dtype
                self._slots[role] = [
                    self._stack.enter_context(
                        arena.lease((padded,), np.uint8)
                    )
                    for _ in range(self.window)
                ]
        except BaseException:
            self._stack.close()
            raise

    def view(
        self, role: str, item: int, shape: tuple[int, ...], dtype
    ) -> np.ndarray:
        """Slot ``item % window`` of ``role``, viewed as (shape, dtype)."""
        slot = item % self.window
        if self.monitor is not None:
            self.monitor.on_ring_view(role, slot, item)
        flat = self._slots[role][slot]
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        return flat[:nbytes].view(dtype).reshape(shape)

    def load(
        self,
        role: str,
        item: int,
        shape: tuple[int, ...],
        dtype,
        src: np.ndarray,
        spans=None,
    ) -> np.ndarray:
        """H2D: fill slot ``item % window`` from a (strided) host view.

        The configured copy engine moves the bytes and records the
        ``arena.h2d`` span on ``spans`` (pass the owning stream's tracer
        when calling from a pipeline stage).  Returns the filled view.
        """
        slot = self.view(role, item, shape, dtype)
        self.engine.h2d(slot, src, spans=spans)
        return slot

    def store(
        self,
        role: str,
        item: int,
        shape: tuple[int, ...],
        dtype,
        dst: np.ndarray,
        spans=None,
    ) -> np.ndarray:
        """D2H: copy slot ``item % window`` into a (strided) host view."""
        slot = self.view(role, item, shape, dtype)
        self.engine.d2h(dst, slot, spans=spans)
        return slot

    def close(self) -> None:
        """Return every slot's bytes to the arena."""
        self._stack.close()

    def __enter__(self) -> "PencilRings":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
