"""Out-of-core slab FFT: the paper's batched asynchronous algorithm, executed.

A rank's slab lives in "host" memory (a NumPy array) while transforms may
only touch "device" buffers drawn from a byte-budgeted :class:`DeviceArena`
sized like a GPU.  The slab is processed pencil-by-pencil exactly as
Fig. 3 / Fig. 4 prescribe — split along x for the y-stage, along y for the
z/x stages — and the arena enforces that no more than the planner's buffer
allowance is ever resident.

Each phase — one pass over the pencils — is a
:class:`repro.exec.PencilPipeline` over four kinds of stream:

=========  ==================================================================
``h2d``    copy the pencil's strided host view into a ring slot
``compute``  the stage kernel, device-resident in and out, on the owning
           rank's lane ``compute[r]``: each virtual rank is one device
``d2h``    copy the transformed pencil back to host memory — before an
           exchange, one strided copy per peer straight into that peer's
           send block: the D2H *is* the pack (paper Sec. 3.3, Figs. 7-8)
``comm``   per-pencil chunked all-to-all (``VirtualComm.ialltoall``) whose
           receive windows are strided views of the destination's
           array, which the next phase's H2D reads in place
=========  ==================================================================

so a byte crosses host memory three times per transpose, as
``core/costs.py`` prices it (``d2h_pack``, the all-to-all, ``unpack_h2d``).
Every array is ``[field, kz, y, x]``, and a phase carries all its fields
through the same copies, kernel calls and exchanges.
:meth:`OutOfCoreSlabFFT.product_spectra` is the paper's RK substage on
them: velocity spectra in, product spectra out, in three phases and two
exchanges, the physical fields never leaving the ring;
:meth:`~OutOfCoreSlabFFT.inverse` / :meth:`~OutOfCoreSlabFFT.forward` are
single-field transforms of two phases each.

The host side is claimed on first use and kept, like the paper's pinned
buffers (Sec. 3.5): per rank a *send region*, a ring of pencils' blocks in
all-to-all order, and the inverse's *transposed slab*; everything else
lands in arrays the caller hands in (``out=``).  Nothing on the pencil path
allocates.

Events enforce the Fig. 4 cross-stream edges (compute waits its pencil's
H2D; D2H waits its compute; the exchange waits its D2H) and a bounded
in-flight window gates H2D of pencil ``ip`` on full retirement of
``ip - window``.  Device storage is a ring of flat buffers pre-claimed from
the arena **once per call** and re-viewed per pencil by each of its phases
— the paper's persistent-buffer discipline (27 buffers claimed at startup,
Sec. 3.5).

Backends are interchangeable: ``pipeline="sync"`` executes every operation
inline in submission order (the bit-exact reference oracle),
``pipeline="threads"`` runs the same operations on worker threads where
NumPy's FFTs and copies release the GIL, so the copy-in of pencil ``ip+1``,
the transform of ``ip``, and the exchange of ``ip-2`` genuinely overlap,
and the ranks' compute lanes run side by side.  The solver's pointwise
work between transforms rides the same lanes
(:meth:`OutOfCoreSlabFFT.each_rank`).  The two produce bit-identical
results (asserted by the determinism suite).
"""

from __future__ import annotations

import functools
import math
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.core.payload import ArrayDescriptor, PayloadPolicy, is_descriptor
from repro.cuda.copyengine import CopyEngine, make_engine
from repro.dist.decomp import SlabDecomposition
from repro.dist.stages import STAGES, Stage, products
from repro.dist.transpose import chunk_exchange_layout, complete_chunk_exchange
from repro.dist.virtual_mpi import TransientCommFault, VirtualComm, call_rank
from repro.exec import PencilPipeline, PipelineStage, make_backend
from repro.obs import NULL_OBS
from repro.spectral.grid import SpectralGrid
from repro.spectral.pointwise import PRODUCT_PAIRS
from repro.spectral.workspace import BufferPool, resolve_fft

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = [
    "DeviceArena",
    "DeviceMemoryExceeded",
    "OutOfCoreSlabFFT",
    "PencilRings",
    "ring_bytes",
]

_KZ_AXIS, _Y_AXIS, _X_AXIS = 0, 1, 2
#: Pencil split axis -> (pack, unpack, chunk) axes of the exchange behind
#: it: the chunk is the pencil, so its axis is the split axis.
_EXCHANGE_AXES = {
    "x": (_Y_AXIS, _KZ_AXIS, _X_AXIS),
    "y": (_KZ_AXIS, _Y_AXIS, _Y_AXIS),
}


def ring_bytes(
    n: int, hmax: int, npencils: int, window: int,
    complex_itemsize: int = 16, real_itemsize: int = 8,
) -> tuple[int, int, int, float]:
    """Ring-slot sizes and the arena of the out-of-core engine's DNS call.

    Returns ``(x-pencil, y-stage complex, y-stage real, arena)`` bytes for
    an ``n``-cubed grid whose tallest rank slab is ``hmax`` planes, cut in
    ``npencils`` pencils with ``window`` of them in flight.  ``arena`` holds
    the rings of the velocity substage (:meth:`OutOfCoreSlabFFT.product_spectra`
    of three fields into six products), the largest call a DNS step makes.
    The engine sizes every call's rings with :func:`_roles` and admission
    control quotes with this, so the priced bytes are the enforced bytes.
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
    return xpencil, ycpx, yreal, _ARENA_MARGIN * window * sum(roles.values())


#: Headroom of a sized arena over the ring slots it must hold.
_ARENA_MARGIN = 1.05


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


class DeviceMemoryExceeded(RuntimeError):
    """Raised when a pencil buffer would not fit in the simulated device."""


class DeviceArena:
    """A byte-budgeted allocator standing in for GPU HBM.

    Tracks live allocations and the high-water mark; ``allocate`` raises
    :class:`DeviceMemoryExceeded` when the budget would be exceeded —
    making "this slab does not fit, batch it" an *enforced* invariant
    rather than a comment.  Accounting is thread-safe.

    Buffer storage is drawn from a
    :class:`~repro.spectral.workspace.BufferPool` (the same abstraction the
    solver workspace uses), so repeated claims recycle the same arrays
    instead of allocating — like the paper's 27 persistent GPU buffers.
    """

    def __init__(
        self,
        capacity_bytes: float,
        pool: BufferPool | None = None,
        obs: "Observability | None" = None,
        payload_policy: "PayloadPolicy | str" = PayloadPolicy.PAYLOAD,
    ):
        if capacity_bytes <= 0:
            raise ValueError("device capacity must be positive")
        self.payload_policy = PayloadPolicy.coerce(payload_policy)
        self.capacity = float(capacity_bytes)
        self.in_use = 0.0
        self.high_water = 0.0
        self._live: dict[int, int] = {}
        self._lock = threading.Lock()
        self.obs = obs if obs is not None else NULL_OBS
        self.pool = pool if pool is not None else BufferPool(obs=self.obs)
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
        # Metadata mode leases a descriptor instead of pool storage; every
        # accounting step above and below (budget check, high-water mark,
        # live map, monitor hooks, metrics) is byte-for-byte identical.
        if self.payload_policy.moves_bytes:
            buf = self.pool.take(tuple(shape), dtype)
        else:
            buf = ArrayDescriptor.empty(tuple(shape), dtype)
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
        if not is_descriptor(buf):
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
    ever sits between H2D, compute, and D2H.
    """

    def __init__(
        self,
        arena: DeviceArena,
        window: int,
        roles: dict[str, int],
        monitor=None,
        engine: "CopyEngine | None" = None,
    ):
        self.window = int(window)
        self.monitor = monitor if monitor is not None else arena.monitor
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


class OutOfCoreSlabFFT:
    """Slab-decomposed 3-D transforms with pencil-batched device residency.

    Parameters
    ----------
    npencils:
        Pencils per slab (``np`` from the memory planner); each stage holds
        at most ``inflight`` pencils' ring slots in the arena.
    device_bytes:
        Arena capacity; defaults to just over one ring (``inflight``
        in-flight items) of the largest call served so far — what
        :func:`ring_bytes` quotes once a substage has run — making any
        batching error fail loudly.
    pipeline:
        ``"sync"`` — every stream operation executes inline in submission
        order (the bit-exact reference); ``"threads"`` — one worker thread
        per stream (a compute lane per rank), the Fig. 4 overlap on real
        data.
    inflight:
        Bounded in-flight window (ring slots per role).  3 is the paper's
        triple buffering; forced to 1 under ``pipeline="sync"`` where
        deeper windows cannot overlap anyway, and capped at a phase's
        ``npencils * P`` items.
    backend:
        Explicit :class:`~repro.exec.ExecBackend` overriding ``pipeline``
        (verification hook: the schedule explorer injects a
        :class:`repro.verify.explorer.ReplayBackend` here to execute the
        recorded event graph in arbitrary legal interleavings).
    fuzz:
        Optional :class:`repro.verify.fuzz.FuzzProfile`; wraps the backend
        in a :class:`~repro.verify.fuzz.FuzzBackend` injecting seeded
        delays, dispatch reordering, and transient faults.
    monitor:
        Optional :class:`repro.verify.invariants.InvariantMonitor`
        registered on the arena, its pool, and every pencil ring.
    comm_retries, retry_backoff:
        Transient-comm-fault budget: each pencil exchange retries up to
        ``comm_retries`` times on :class:`TransientCommFault` with
        exponential backoff starting at ``retry_backoff`` seconds — so
        injected dropped/late chunks degrade gracefully instead of
        poisoning the pipeline.
    fft_backend:
        The transform provider of the stage kernels (``numpy`` /
        ``scipy`` / ``auto``), resolved at construction, so an
        unavailable backend is a ``ValueError`` before any transform.
    copy_strategy:
        How pencils move between strided host views and ring slots
        (paper Sec. 4.2, Fig. 7): ``"per_chunk"`` (one virtual
        ``cudaMemcpyAsync`` per contiguous run), ``"memcpy2d"`` (a single
        strided-descriptor copy — the historical behaviour and default),
        ``"zero_copy"`` (block-partitioned concurrent gather), or
        ``"auto"`` (a :class:`~repro.cuda.copyengine.CopyAutotuner`
        probes every engine on the first pencil of each layout and caches
        the winner).  All strategies move identical bytes, so results are
        bit-identical regardless of the choice.
    payload_policy:
        ``"payload"`` (default) moves real NumPy data; ``"metadata"`` runs
        the identical Fig. 4 schedule over
        :class:`~repro.core.payload.ArrayDescriptor` geometry — no FFT
        math, no byte movement — while emitting the same spans, byte
        counters, arena accounting, collective records and model-priced
        copy costs (the capacity planner's validation seam; parity with
        the payload path is asserted by ``tests/plan``).  Inputs must then
        be descriptors of the per-rank slab shapes.
    heights:
        Optional per-rank slab extents (uneven decomposition); every
        rank still contributes ``npencils`` pencil slots per phase (empty
        ones for height-0 ranks), so the Fig. 4 item structure
        ``i = ip * P + r`` — and with it the collective cadence — is
        unchanged.
    dlb:
        Every rank is one device: its pencils' compute runs on its own
        lane ``compute[r]``, as does its pointwise work (:meth:`each_rank`).
        ``"off"`` (default) names that schedule; ``"lend"`` adds the
        deterministic :class:`~repro.exec.DlbPolicy` lend/reclaim
        assignment, so idle peers' compute lanes claim a slow rank's
        unstarted pencils.  Both produce bit-identical results.
    rank_weights:
        Relative per-rank compute slowdown factors pricing the DLB lane
        clocks under ``dlb="lend"`` (e.g. an imbalance plan's factors);
        default all-1.
    """

    def __init__(
        self,
        grid: SpectralGrid,
        comm: VirtualComm,
        npencils: int,
        device_bytes: float | None = None,
        obs: "Observability | None" = None,
        pipeline: str = "sync",
        inflight: int = 3,
        backend=None,
        fuzz=None,
        monitor=None,
        comm_retries: int = 3,
        retry_backoff: float = 0.002,
        copy_strategy: str = "memcpy2d",
        payload_policy: "PayloadPolicy | str" = PayloadPolicy.PAYLOAD,
        heights: Sequence[int] | None = None,
        dlb: str = "off",
        rank_weights: Sequence[float] | None = None,
        fft_backend: str = "numpy",
    ):
        self.grid = grid
        self.comm = comm
        self._lf = resolve_fft(fft_backend)
        self.payload_policy = PayloadPolicy.coerce(payload_policy)
        self._payload = self.payload_policy.moves_bytes
        self.obs = obs if obs is not None else NULL_OBS
        hs = tuple(int(h) for h in heights) if heights is not None else None
        self.decomp = SlabDecomposition(grid.n, comm.size, heights=hs)
        if npencils < 1 or grid.n % npencils != 0:
            raise ValueError(f"npencils={npencils} must divide N={grid.n}")
        if backend is None and pipeline not in ("sync", "threads"):
            raise ValueError(
                f"pipeline={pipeline!r} must be 'sync' or 'threads'"
            )
        if inflight < 1:
            raise ValueError(f"inflight={inflight} must be >= 1")
        if comm_retries < 0:
            raise ValueError(f"comm_retries={comm_retries} must be >= 0")
        if dlb not in ("off", "lend"):
            raise ValueError(f"dlb={dlb!r} must be 'off' or 'lend'")
        self.dlb = dlb
        self.npencils = npencils
        self.pipeline = pipeline if backend is None else backend.kind
        # A phase has npencils * P items: a deeper window claims ring
        # slots that no item ever views.
        self.inflight = (
            1 if (backend is None and pipeline == "sync")
            else min(int(inflight), npencils * comm.size)
        )
        self.monitor = monitor
        self.comm_retries = int(comm_retries)
        self.retry_backoff = float(retry_backoff)
        self.copy_strategy = copy_strategy
        self._copy_engine = make_engine(
            copy_strategy, obs=self.obs, kind=self.pipeline
        )

        #: Largest (x-pencil, y-stage complex, y-stage real) bytes.
        self._pencil_bytes = ring_bytes(
            grid.n, self.decomp.max_height, npencils, self.inflight,
            np.dtype(grid.cdtype).itemsize, np.dtype(grid.dtype).itemsize,
        )[:3]
        #: Without a budget the arena is sized to one ring of the largest
        #: call served so far (a single transform until a substage runs).
        self._sized_arena = device_bytes is None
        self.arena = DeviceArena(
            device_bytes if device_bytes is not None else self._arena_bytes(
                _roles(self._pencil_bytes, 1, 0)),
            obs=self.obs,
            payload_policy=self.payload_policy,
        )
        # The host side, claimed on first use and kept (the paper's pinned
        # buffers, Sec. 3.5): per rank a send region that _exchange_views
        # carves into per-pencil blocks, and a transposed slab per field
        # count (the inverse's y-slabs).  Both grow when a call needs more.
        self._send: list[np.ndarray] = []
        self._transposed: list[np.ndarray] = []
        self._views: dict[tuple, tuple] = {}
        self._layouts: dict[tuple, tuple] = {}
        if monitor is not None:
            self.arena.monitor = monitor
            self.arena.pool.monitor = monitor
            configure = getattr(monitor, "configure", None)
            if configure is not None:
                configure(window=self.inflight)
        if backend is not None:
            self._backend = backend
        else:
            self._backend = make_backend(
                pipeline, obs=self.obs, fuzz=fuzz, monitor=monitor
            )
        # Fuzz backends map per-rank imbalance factors onto items once they
        # know the communicator size (item i belongs to rank i % P).
        configure_imbalance = getattr(
            self._backend, "configure_imbalance", None
        )
        if configure_imbalance is not None:
            configure_imbalance(comm.size)
        self._dlb_policy = None
        if self.dlb == "lend":
            from repro.exec.dlb import DlbPolicy

            if rank_weights is not None and len(rank_weights) != comm.size:
                raise ValueError(
                    f"expected {comm.size} rank weights, got {len(rank_weights)}"
                )
            self._dlb_policy = DlbPolicy(comm.size, costs=rank_weights)
        self._dlb_synced = [0, 0]
        # Metric instruments are pre-created on the constructing thread so
        # stream workers only ever mutate existing counters.
        if self.obs.enabled:
            m = self.obs.metrics
            self._m_h2d = m.counter("arena.h2d_bytes")
            self._m_d2h = m.counter("arena.d2h_bytes")
            self._m_xpose = m.counter("transpose.bytes_moved")
            self._m_chunks = m.counter("transpose.chunks")
            self._m_xcount = m.counter("transpose.count")
            self._m_comm_faults = m.counter("comm.faults.transient")
            self._m_comm_retries = m.counter("comm.retries")
            self._m_comm_recovered = m.counter("comm.faults.recovered")
            self._m_dlb_lent = m.counter("dlb.pencils_lent")
            self._m_dlb_reclaimed = m.counter("dlb.pencils_reclaimed")
            m.gauge("arena.high_water_bytes")
        else:
            self._m_h2d = self._m_d2h = None
            self._m_xpose = self._m_chunks = self._m_xcount = None
            self._m_comm_faults = None
            self._m_comm_retries = self._m_comm_recovered = None
            self._m_dlb_lent = self._m_dlb_reclaimed = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def copy_tuner(self):
        """The :class:`~repro.cuda.copyengine.CopyAutotuner` behind
        ``copy_strategy="auto"`` (``None`` for a fixed strategy)."""
        return getattr(self._copy_engine, "tuner", None)

    def close(self) -> None:
        """Stop worker streams (threads backend); the object stays usable
        for nothing afterwards — create a new one per run configuration."""
        self._backend.shutdown()
        self._copy_engine.close()

    def __enter__(self) -> "OutOfCoreSlabFFT":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- shared pieces -------------------------------------------------------

    def _splits(self, extent: int, keep_empty: bool = False) -> list[slice]:
        """``extent`` cut at the floored ``linspace(0, extent, npencils + 1)``
        edges: widths are floor or ceil of ``extent / npencils`` and the
        last slice is always a widest one.  Empty slices are dropped unless
        ``keep_empty`` — uneven slabs (including height-0 ranks) keep them
        so every rank has ``npencils`` entries and the ``i = ip * P + r``
        item structure holds."""
        edges = np.linspace(0, extent, self.npencils + 1).astype(int)
        return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])
                if keep_empty or b > a]

    def _empty(self, shape: tuple[int, ...], dtype):
        """A host array (payload) or its descriptor (metadata)."""
        if self._payload:
            return np.empty(shape, dtype=dtype)
        return ArrayDescriptor.empty(shape, dtype)

    def _y_shape(self, r: int) -> tuple[int, int, int]:
        return (self.grid.n, self.decomp.height(r), self.grid.n // 2 + 1)

    def _arena_bytes(self, roles: dict) -> float:
        return _ARENA_MARGIN * self.inflight * sum(roles.values())

    def _rings(self, fields: int, products: int = 0) -> PencilRings:
        """One call's ring slots, shared by its phases (each drains before
        the next starts); a sized arena grows to hold them."""
        roles = _roles(self._pencil_bytes, fields, products)
        if self._sized_arena:
            self.arena.capacity = max(
                self.arena.capacity, self._arena_bytes(roles))
        return PencilRings(
            self.arena, self.inflight, roles, engine=self._copy_engine)

    def _claim(self, held: list, sizes: Sequence[int],
               stale: Optional[dict] = None) -> None:
        """Make ``held`` flat complex arrays of at least ``sizes``, growing
        (never shrinking) each rank's when one is short.  The old arrays,
        and the views of them cached in ``stale``, go before the new ones
        are claimed, so a regrowth never holds both."""
        if held and all(h.shape[0] >= s for h, s in zip(held, sizes)):
            return
        if held:
            sizes = [max(h.shape[0], s) for h, s in zip(held, sizes)]
        if stale is not None:
            stale.clear()
        held.clear()
        held.extend(self._empty((s,), self.grid.cdtype) for s in sizes)

    def _transposed_slabs(self, fields: int) -> list[np.ndarray]:
        """Every rank's transposed slab: ``fields`` y-slabs ``[field, kz, y, x]``."""
        shapes = [(fields, *self._y_shape(r)) for r in range(self.comm.size)]
        sizes = [math.prod(shape) for shape in shapes]
        self._claim(self._transposed, sizes)
        return [flat[:size].reshape(shape) for flat, size, shape
                in zip(self._transposed, sizes, shapes)]

    def _cuts(self, by: str) -> list[list[slice]]:
        """Per rank, the pencils of a ``by``-split phase (see :meth:`_phase`)."""
        d, P = self.decomp, self.comm.size
        if by == "x":
            return [self._splits(self.grid.n // 2 + 1)] * P
        if d.heights is None:
            return [self._splits(d.my)] * P
        return [self._splits(d.height(r), keep_empty=True) for r in range(P)]

    def _send_layout(self, by: str, fields: int):
        """``(layouts, k, slot)`` of the ``by``-split exchange of ``fields``
        fields: each pencil's chunk layout, the depth ``k`` of the send
        region's pencil ring (see :meth:`_exchange_views`) and each rank's
        slot size."""
        found = self._layouts.get((by, fields))
        if found is not None:
            return found
        P = self.comm.size
        src_shape, dst_shape = self.decomp.local_spectral_shape, self._y_shape
        if by == "y":
            src_shape, dst_shape = dst_shape, src_shape
        shapes = [src_shape(r) for r in range(P)]
        cuts = self._cuts(by)
        layouts = [
            chunk_exchange_layout(
                shapes, *_EXCHANGE_AXES[by], [cut[ip] for cut in cuts],
                self.decomp.rank_heights,
            )
            for ip in range(len(cuts[0]))
        ]
        k = min(len(layouts), -(-(self.inflight + P - 1) // P))
        slot = [
            max(fields * sum(map(math.prod, blocks[r]))
                for _, blocks, _ in layouts)
            for r in range(P)
        ]
        found = self._layouts[by, fields] = (layouts, k, slot)
        return found

    def _reserve_send(self, *exchanges: tuple[str, int]) -> None:
        """Size every rank's send region for the largest of ``exchanges``
        (``(by, fields)`` each) at once: a substage's products regrowing the
        region its fields claimed would hold both on the first step."""
        rings = [self._send_layout(by, fields) for by, fields in exchanges]
        self._claim(self._send, [
            max(k * slot[r] for _, k, slot in rings)
            for r in range(self.comm.size)], stale=self._views)

    def _exchange_views(self, by: str, fields: int):
        """Send blocks of the ``by``-split exchange of ``fields`` fields.

        Returns ``(pack, send, where)``, built on first use and kept:
        ``pack[s]`` indexes peer ``s``'s planes of a ring slot;
        ``send[ip][r][s]`` is the contiguous ``r -> s`` block of pencil
        ``ip``, carved from rank ``r``'s send region; ``where[ip][r]``
        indexes where that block lands in a destination's ``[field, kz, y,
        x]`` slab.  Metadata mode carves descriptors the same way.

        The send region is a ring of ``k`` pencils: pencil ``ip`` writes
        the blocks pencil ``ip - k`` sent.  The first copy of item ``i``
        waits item ``i - window``'s retirement and runs on a FIFO stream
        after every earlier item's, so all items up to ``i - window`` are
        retired by then — the exchange of ``ip - k`` included once
        ``k P >= window + P - 1``.
        """
        views = self._views.get((by, fields))
        if views is not None:
            return views
        self._reserve_send((by, fields))
        layouts, k, slot = self._send_layout(by, fields)
        every = (slice(None),)
        send = []
        for ip, (_, blocks, _) in enumerate(layouts):
            rows = []
            for r, region in enumerate(self._send):
                used, row = (ip % k) * slot[r], []
                for shape in blocks[r]:
                    size = fields * math.prod(shape)
                    row.append(region[used:used + size].reshape((fields, *shape)))
                    used += size
                rows.append(row)
            send.append(rows)
        pack = [every + index for index in layouts[0][0]]
        where = [[every + w for w in windows] for _, _, windows in layouts]
        views = self._views[by, fields] = (pack, send, where)
        return views

    def _run(self, stages: list[PipelineStage], nitems: int) -> None:
        PencilPipeline(
            self._backend, stages, window=self.inflight, dlb=self._dlb_policy
        ).run(nitems)
        if self._dlb_policy is not None and self._m_dlb_lent is not None:
            lent = self._dlb_policy.pencils_lent
            reclaimed = self._dlb_policy.pencils_reclaimed
            self._m_dlb_lent.inc(lent - self._dlb_synced[0])
            self._m_dlb_reclaimed.inc(reclaimed - self._dlb_synced[1])
            self._dlb_synced = [lent, reclaimed]

    def _stream_spans(self, name: str):
        """The stream's own span tracer, when the backend records one.

        Span tracers are single-threaded; spans emitted from a stage fn
        must land on the tracer owned by the stream whose worker runs it.
        """
        return getattr(self._backend.stream(name), "_spans", self.obs.spans)

    def _exchange_pencil(self, send, windows) -> None:
        """Post + complete one pencil's all-to-all (runs on the comm stream).

        Transient comm faults (:class:`TransientCommFault`, injected by the
        verification subsystem's fault-capable comm shim) are retried with
        exponential backoff up to ``comm_retries`` times: a *late* chunk
        re-waits the same posted handle, a *dropped* chunk is re-posted.
        A pencil's send blocks are its own and stay untouched until the
        next transform, and faults are injected before any byte moves, so
        a re-post sends the same bytes into clean windows and a recovered
        exchange is bit-identical to a fault-free one.
        """
        spans = self._stream_spans("comm")
        attempt = 0
        delay = self.retry_backoff
        handle = None
        while True:
            try:
                if handle is None:
                    handle = self.comm.ialltoall(send, recv=windows)
                nbytes = complete_chunk_exchange(handle)
                break
            except TransientCommFault as fault:
                if self._m_comm_faults is not None:
                    self._m_comm_faults.inc()
                if attempt >= self.comm_retries:
                    raise
                attempt += 1
                if fault.dropped:
                    handle = None  # the posted request evaporated
                with spans.span(
                    "verify.retry", category="verify",
                    attempt=attempt, dropped=fault.dropped,
                ):
                    time.sleep(delay)
                delay *= 2.0
                if self._m_comm_retries is not None:
                    self._m_comm_retries.inc()
        if attempt > 0 and self._m_comm_recovered is not None:
            self._m_comm_recovered.inc()
        if self._m_xpose is not None:
            self._m_xpose.inc(nbytes)
            self._m_chunks.inc()

    def resident(self, shapes: Sequence[Sequence[int]], dtype) -> list[np.ndarray]:
        """Per-rank host arrays: a rank's pencils and pointwise work run on
        its lanes in this process, whatever the comm."""
        return [np.empty(tuple(shape), dtype) for shape in shapes]

    def each_rank(self, fn: Callable, *per_rank_args: Sequence, spans=None,
                  wait: bool = True) -> list:
        """Run ``fn(*(a[r] for a in per_rank_args))`` for every rank ``r``
        on its compute lane ``compute[r]``, wait for those lanes and return
        the per-rank results — the rank's pointwise work on the device that
        runs its pencils (paper Fig. 5).  ``spans[r]`` times rank ``r``'s
        call, on its lane's thread; the lanes are waited for whatever
        ``wait`` says.

        The wait is each lane's ``synchronize``, never the backend's: the
        one wait that also completes an op a fuzzing backend holds back for
        reordering or a replay backend records.  Inline execution runs the
        ranks in order.  Each op carries no
        ``item``, so no window, ring or imbalance check takes it for a
        pencil.  A failing ``fn`` raises its own exception here, after
        every lane has stopped, and the backend is reset for the next call.
        """
        lanes = [self._backend.stream(f"compute[{r}]")
                 for r in range(self.comm.size)]
        results: list = [None] * len(lanes)

        def run(r: int) -> None:
            results[r] = call_rank(fn, per_rank_args, r, spans)

        errors = []
        try:
            for r, lane in enumerate(lanes):
                lane.submit("rank", "pointwise", functools.partial(run, r))
        except BaseException as exc:  # noqa: BLE001 - raised inline
            errors.append(exc)
        for lane in lanes:
            try:
                lane.synchronize()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            self._backend.reset()
            raise errors[0]
        self._backend.drain_obs()  # the calls' spans belong to this step
        return results

    # -- full transforms -----------------------------------------------------

    def _phase(
        self,
        by: str,
        src: Sequence[np.ndarray],
        fields: tuple[int, int],
        stage: Stage,
        rings: PencilRings,
        dst: "Sequence[np.ndarray] | None" = None,
        land: "Sequence[np.ndarray] | None" = None,
        work: int = 0,
    ) -> None:
        """One Fig. 4 pass of ``stage`` over every (pencil, rank) item.

        ``src[r]`` is rank ``r``'s ``[field, kz, y, x]`` array and
        ``fields`` the field counts ``(in, out)``.  Item ``i = ip * P + r``
        is pencil ``ip`` of rank ``r``: H2D of its strided view of
        ``src[r]`` into a ring slot, the kernel device-resident in and out
        (the result overwrites the input when both are complex; ``work``
        real pencils are handed over as ``work=``), D2H out of the slot.
        ``by`` names the split axis — never a transformed one, so every
        pencil holds complete lines: ``"x"`` for the y stages on kz-slabs,
        ``"y"`` for the z/x stages on y-slabs, where uneven slabs cut each
        rank's own y extent into ``npencils`` (possibly empty) slices.

        With ``dst`` the D2H writes the same view of ``dst[r]``.  Without,
        the phase ends in the transpose into ``land``: the D2H of an item
        is one copy per peer into that peer's send block (zero-height peers
        have empty blocks and get no copy), and once a pencil's last rank
        is out the comm stream exchanges its blocks into ``land``,
        pipelined behind the following pencils.
        """
        d, n, P = self.decomp, self.grid.n, self.comm.size
        axis = 1 + _EXCHANGE_AXES[by][2]  # past the field axis
        cuts = self._cuts(by)
        fin, fout = fields
        real, cpx = self.grid.dtype, self.grid.cdtype
        in_role, in_dtype = ("real", real) if stage.real_in else ("cpx", cpx)
        out_role, out_dtype = ("real", real) if stage.real_out else ("cpx", cpx)
        if dst is None:
            pack, send, where = self._exchange_views(by, fout)
            windows = [[[slab[w] for w in row] for slab in land] for row in where]

        def pencil(i: int):
            """(rank, host-array index, one field's slot shape) of item i."""
            ip, r = divmod(i, P)
            sl = cuts[r][ip]
            shape = list(src[r].shape[1:])
            shape[axis - 1] = sl.stop - sl.start
            return r, (slice(None),) * axis + (sl,), tuple(shape)

        def result(i: int, shape) -> np.ndarray:
            return rings.view(
                out_role, i, (fout, *stage.out_shape(shape, n)), out_dtype)

        engine = self._copy_engine
        sp_h2d = self._stream_spans("h2d")
        sp_d2h = self._stream_spans("d2h")

        def h2d(i: int) -> None:
            r, idx, shape = pencil(i)
            if 0 in shape:
                return
            slot = rings.load(
                in_role, i, (fin, *shape), in_dtype, src[r][idx], spans=sp_h2d
            )
            if self._m_h2d is not None:
                self._m_h2d.inc(slot.nbytes)

        def fft(i: int) -> None:
            _, _, shape = pencil(i)
            if 0 in shape or not self._payload:
                return
            a = rings.view(in_role, i, (fin, *shape), in_dtype)
            kw = {}
            if work:
                kw["work"] = rings.view("real", i, (work, *shape[:-1], n), real)
            stage.fn(a, n, self._lf, out=result(i, shape), **kw)

        def d2h(i: int) -> None:
            r, idx, shape = pencil(i)
            if 0 in shape:
                return
            slot = result(i, shape)
            if dst is not None:
                engine.d2h(dst[r][idx], slot, spans=sp_d2h)
            else:
                for s, block in enumerate(send[i // P][r]):
                    if block.size:
                        engine.d2h(block, slot[pack[s]], spans=sp_d2h)
            if self._m_d2h is not None:
                self._m_d2h.inc(slot.nbytes)

        def comm_op(i: int) -> None:
            self._exchange_pencil(send[i // P], windows[i // P])

        def volume(i: int) -> float:
            """Item i's element count, on the real side for the r2c / c2r
            stages: its weight on the DLB lane clocks."""
            ip, r = divmod(i, P)
            sl = cuts[r][ip]
            return float(
                fin * (d.height(r) if by == "x" else n) * n * (sl.stop - sl.start))

        # Item i is rank i % P's and computes on that rank's lane, or where
        # the DLB policy lends it.
        stages = [
            PipelineStage("h2d", "h2d", "h2d", fn=h2d),
            PipelineStage(stage.span, "compute", "fft", fn=fft,
                          owner=lambda i: i % P, cost=volume),
            PipelineStage("d2h", "d2h", "d2h", fn=d2h),
        ]
        if dst is None:
            stages.append(
                PipelineStage(
                    "a2a", "comm", "mpi", fn=comm_op,
                    when=lambda i: i % P == P - 1,
                )
            )
        self._run(stages, len(cuts[0]) * P)
        if dst is None and self._m_xcount is not None:
            self._m_xcount.inc()

    def _results(self, locals_, in_shape, out, out_shape, out_dtype):
        """Check a transform's inputs and its ``out`` per rank; without
        ``out``, allocate the result arrays (the caller keeps them)."""
        self.decomp.check_locals(locals_, in_shape)
        if out is None:
            return [
                self._empty(out_shape(r), out_dtype)
                for r in range(self.comm.size)
            ]
        self.decomp.check_locals(out, out_shape, out_dtype)
        return list(out)

    def inverse(
        self, spectral_locals: Sequence[np.ndarray], out=None
    ) -> list[np.ndarray]:
        """kz-slabs -> y-slabs of the real field, never exceeding the arena.

        Stage order and pencil split axes follow the paper: y-FFTs on
        x-split pencils (with the per-pencil s2p exchange pipelined behind
        them), then z and the c2r x transform fused on y-split pencils
        (one H2D/D2H round trip per pencil).  ``out`` hands over the
        per-rank result arrays (NumPy's ``out=``); omitted, fresh ones are
        allocated.
        """
        d = self.decomp
        out = self._results(
            spectral_locals, d.local_spectral_shape,
            out, d.local_physical_shape, self.grid.dtype,
        )
        with self._rings(1) as rings:
            land = self._transposed_slabs(1)
            self._phase("x", _one_field(spectral_locals), (1, 1),
                        STAGES["inv_y"], rings, land=land)
            self._phase("y", land, (1, 1), STAGES["inv_zx"], rings,
                        dst=_one_field(out))
        return out

    def forward(
        self, physical_locals: Sequence[np.ndarray], out=None
    ) -> list[np.ndarray]:
        """y-slabs of the real field -> kz-slabs of coefficients: fused
        r2c-x + c2c-z FFTs on y-split pencils with the per-pencil p2s
        exchange (a y-sub-range of every peer's contribution) landing in
        ``out``, then the final y-FFT + normalization in place on x-split
        pencils.  ``out`` as for :meth:`inverse`."""
        d = self.decomp
        out = self._results(
            physical_locals, d.local_physical_shape,
            out, d.local_spectral_shape, self.grid.cdtype,
        )
        spectra = _one_field(out)
        with self._rings(1) as rings:
            self._phase("y", _one_field(physical_locals), (1, 1),
                        STAGES["fwd_xz"], rings, land=spectra)
            self._phase("x", spectra, (1, 1), STAGES["fwd_y"], rings,
                        dst=spectra)
        return out

    def product_spectra(
        self,
        coeffs: Sequence[np.ndarray],
        pairs: Sequence[tuple[int, int]],
        out=None,
        wait: bool = True,
    ) -> list[np.ndarray]:
        """The paper's RK substage: field spectra in, product spectra out.
        (``out`` is complete on return whatever ``wait`` says: the
        pipelines drain here.)

        ``coeffs[r]`` holds rank ``r``'s ``F`` fields ``[field, kz, y, x]``;
        ``out[r][p]`` receives the transform of ``u_i u_j`` for ``pairs[p]
        = (i, j)``.  Three drained pipelines and two exchanges, whatever
        ``F`` and ``len(pairs)``:

        1. y-FFTs of every field on x-split pencils, exchanged into
           y-slabs;
        2. on y-split pencils, :func:`repro.dist.stages.products`: z and
           c2r-x of every field, the products formed device-resident, r2c-x
           and z of each, exchanged straight into ``out``;
        3. y-FFTs of every product in place on ``out``'s x-split pencils.

        ``out`` may share memory with ``coeffs`` (phase 1 has read them
        before phase 2 writes); omitted, it is allocated.  Bit-equal to
        one inverse per field, the products and one forward per pair.
        """
        d, nfields, nout = self.decomp, coeffs[0].shape[0], len(pairs)
        out = self._results(
            coeffs, lambda r: (nfields, *d.local_spectral_shape(r)),
            out, lambda r: (nout, *d.local_spectral_shape(r)), self.grid.cdtype,
        )
        middle = Stage(functools.partial(products, pairs=pairs), "fft.products")
        self._reserve_send(("x", nfields), ("y", nout))
        with self._rings(nfields, nout) as rings:
            land = self._transposed_slabs(nfields)
            self._phase("x", coeffs, (nfields, nfields), STAGES["inv_y"],
                        rings, land=land)
            self._phase("y", land, (nfields, nout), middle, rings, land=out,
                        work=nfields + 1)
            self._phase("x", out, (nout, nout), STAGES["fwd_y"], rings,
                        dst=out)
        return out


def _one_field(locals_: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-rank arrays viewed with a leading field axis of one."""
    return [a.reshape((1, *a.shape)) if is_descriptor(a) else a[None]
            for a in locals_]
