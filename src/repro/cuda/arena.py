"""The data plane's device: a byte budget, its pencil rings and their sizing.

On the paper's GPUs a rank's pencils cycle through a fixed set of
persistent device buffers (Sec. 3.5: 27 buffers claimed at startup; Fig. 4),
and a slab that does not fit is batched.  This module is that device for the
out-of-core engine (:class:`repro.dist.outofcore.OutOfCoreSlabFFT`):

* :class:`DeviceArena` — the byte budget standing in for HBM; a claim past
  it raises :class:`DeviceMemoryExceeded`;
* :class:`PencilRings` — ``window`` flat slots per role, claimed from the
  arena once, grown when a call needs bigger ones, and re-viewed per
  pencil; the engine holds one for its life;
* :func:`ring_window` and :func:`ring_bytes` — the sizing rule.  The engine
  sizes its rings and its default arena with them, and admission control
  (:func:`repro.plan.admission.job_device_bytes`) quotes with them, so the
  priced bytes are the enforced bytes.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import NULL_OBS
from repro.spectral.pointwise import PRODUCT_PAIRS

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = [
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
) -> tuple[int, int, float]:
    """Ring-slot sizes and the arena of the out-of-core engine's DNS call.

    Returns ``(complex pencil, real pencil, arena)`` bytes for an
    ``n``-cubed grid whose tallest rank slab is ``hmax`` planes, cut in
    ``npencils`` pencils with ``window`` of them in flight.  Every stage
    cuts a rank's own slab extent (kz of a kz-slab for the y-FFTs, y of a
    y-slab for the z/x-FFTs), so the complex pencil of either is
    ``ceil(hmax / npencils) * n * nxh`` elements.  ``arena`` holds the rings
    of the velocity substage (``product_spectra`` of three fields into six
    products), the largest call a DNS step makes.
    """
    nxh = n // 2 + 1
    # The split is uneven and its last slice always carries the ceil
    # (49 -> 12, 12, 12, 13); slots are sized for the tallest rank's slab
    # so one ring serves every (pencil, rank) item.
    width = math.ceil(hmax / npencils)
    cpx = width * n * nxh * complex_itemsize
    real = width * n * n * real_itemsize
    roles = _roles((cpx, real), 3, len(PRODUCT_PAIRS))
    return cpx, real, arena_bytes(window, roles)


def arena_bytes(window: int, roles: dict) -> float:
    """The arena that holds ``window`` items' slots of ``roles``."""
    return _ARENA_MARGIN * window * sum(roles.values())


def _roles(pencils: tuple[int, int], fields: int, products: int) -> dict:
    """Bytes of one item's ring slots per role, for a call that brings
    ``fields`` complex fields in and hands ``products`` out: one complex
    pencil per field of either side (results overwrite their inputs), and
    on the z/x stages one real pencil per field in flight — with a product
    being formed, one more.  A single transform is ``(1, 0)``."""
    cpx, real = pencils
    return {
        "cpx": max(fields, products) * cpx,
        "real": (fields + (products > 0)) * real,
    }


class DeviceMemoryExceeded(RuntimeError):
    """Raised when a pencil buffer would not fit in the simulated device."""


class DeviceArena:
    """A byte-budgeted allocator standing in for GPU HBM.

    Tracks live allocations and the high-water mark; ``allocate`` raises
    :class:`DeviceMemoryExceeded` when the budget would be exceeded —
    making "this slab does not fit, batch it" an *enforced* invariant
    rather than a comment.  Accounting is thread-safe.
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
        #: Optional invariant monitor (repro.verify.invariants): notified on
        #: every allocate/free so fuzzed runs can assert no double-lease and
        #: that nothing is held once its owner closed.
        self.monitor = None

    def allocate(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        with self._lock:
            if self.in_use + nbytes > self.capacity:
                raise DeviceMemoryExceeded(
                    f"allocation of {nbytes} B exceeds device budget "
                    f"({self.in_use:.0f}/{self.capacity:.0f} B in use)"
                )
            buf = np.empty(tuple(shape), dtype)
            self.in_use += nbytes
            self.high_water = max(self.high_water, self.in_use)
            self._live[id(buf)] = nbytes
            # Under the lock: the monitor must observe allocate/free in
            # their true order.
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
        if self.obs.enabled:
            self.obs.metrics.counter("arena.releases").inc()


class PencilRings:
    """Persistent device rings: ``window`` flat slots per role.

    The paper claims its GPU buffers once and reuses them for every pencil
    of every stage; this is that discipline under arena accounting.  Each
    *role* ("cpx", "real") holds ``window`` flat byte buffers allocated
    from the arena by :meth:`reserve`, which grows them when a call needs
    bigger ones and otherwise claims nothing; :meth:`view` re-views slot
    ``item % window`` as the pencil's exact shape/dtype, so no
    allocate/free ever sits between H2D, compute, and D2H.  The bytes go
    back to the arena at :meth:`close`.  The arena's monitor, if any, sees
    every view.
    """

    def __init__(self, arena: DeviceArena, window: int):
        self.arena = arena
        self.window = int(window)
        #: One slot's bytes per role, and the arena bytes all slots hold.
        self.roles: dict[str, int] = {}
        self.nbytes = 0
        self._slots: dict[str, list[np.ndarray]] = {}

    def grown(self, roles: dict[str, int]) -> dict[str, int]:
        """The slot bytes per role that hold both ``roles`` and the held ones."""
        return {role: max(int(nbytes), self.roles.get(role, 0))
                for role, nbytes in {**self.roles, **roles}.items()}

    def reserve(self, roles: dict[str, int]) -> None:
        """Hold slots of at least ``roles`` bytes.  When one is short, every
        held slot goes back to the arena before the grown ones are claimed,
        so a regrowth never holds both; a claim past the budget raises
        :class:`DeviceMemoryExceeded` holding none."""
        roles = self.grown(roles)
        if roles == self.roles:
            return
        self.close()
        try:
            for role, nbytes in roles.items():
                padded = -(-nbytes // 16) * 16  # align for any dtype
                slots = self._slots[role] = []
                for _ in range(self.window):
                    slots.append(self.arena.allocate((padded,), np.uint8))
                    self.nbytes += padded
        except BaseException:
            self.close()
            raise
        self.roles = roles

    def view(
        self, role: str, item: int, shape: tuple[int, ...], dtype
    ) -> np.ndarray:
        """Slot ``item % window`` of ``role``, viewed as (shape, dtype)."""
        slot = item % self.window
        monitor = self.arena.monitor
        if monitor is not None:
            monitor.on_ring_view(role, slot, item)
        flat = self._slots[role][slot]
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        return flat[:nbytes].view(dtype).reshape(shape)

    def close(self) -> None:
        """Return every slot's bytes to the arena."""
        for slots in self._slots.values():
            for buf in slots:
                self.arena.free(buf)
        self._slots.clear()
        self.roles = {}
        self.nbytes = 0
