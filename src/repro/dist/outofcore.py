"""Out-of-core slab FFT: the paper's batched asynchronous algorithm, executed.

A rank's slab lives in "host" memory (a NumPy array) while transforms may
only touch "device" buffers drawn from a byte-budgeted :class:`DeviceArena`
sized like a GPU.  The slab is processed pencil-by-pencil exactly as
Fig. 3 / Fig. 4 prescribe — split along x for the y-stage, along y for the
z/x stages — and the arena enforces that no more than the planner's buffer
allowance is ever resident.

Since the async-runtime refactor the pencil loop is a
:class:`repro.exec.PencilPipeline` over four streams:

=========  ==================================================================
``h2d``    copy the pencil's strided host view into a ring slot
``compute``  the 1-D FFT stage(s), device-resident in and out
``d2h``    copy the transformed pencil back to host memory
``comm``   per-pencil chunked all-to-all (``VirtualComm.ialltoall``)
=========  ==================================================================

with events enforcing the Fig. 4 cross-stream edges (compute waits its
pencil's H2D; D2H waits its compute; the exchange waits its D2H) and a
bounded in-flight window gating H2D of pencil ``ip`` on full retirement of
``ip - window``.  Device storage is a ring of flat buffers pre-claimed from
the arena **once per transform stage** and re-viewed per pencil — the
paper's persistent-buffer discipline (27 buffers claimed at startup,
Sec. 3.5) — so no allocate/free sits on the pencil path.

Backends are interchangeable: ``pipeline="sync"`` executes every operation
inline in submission order (the bit-exact reference oracle),
``pipeline="threads"`` runs the same operations on worker threads where
NumPy's FFTs and copies release the GIL, so the copy-in of pencil ``ip+1``,
the transform of ``ip``, and the exchange of ``ip-2`` genuinely overlap.
The two produce bit-identical results (asserted by the determinism suite).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.payload import ArrayDescriptor, PayloadPolicy, is_descriptor
from repro.cuda.copyengine import Batched2DEngine, CopyEngine, make_engine
from repro.dist.decomp import SlabDecomposition
from repro.dist.transpose import (
    _PACK_POOL,
    complete_chunk_exchange,
    post_chunk_exchange,
)
from repro.dist.virtual_mpi import TransientCommFault, VirtualComm
from repro.exec import PencilPipeline, PipelineStage, make_backend
from repro.obs import NULL_OBS
from repro.spectral.grid import SpectralGrid
from repro.spectral.workspace import BufferPool

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


def ring_bytes(
    n: int, hmax: int, npencils: int, window: int,
    complex_itemsize: int = 16, real_itemsize: int = 8,
) -> tuple[int, int, int, float]:
    """Ring-slot sizes and default arena capacity of the out-of-core engine.

    Returns ``(x-pencil, y-stage complex, y-stage real, arena)`` bytes for
    an ``n``-cubed grid whose tallest rank slab is ``hmax`` planes, cut in
    ``npencils`` pencils with ``window`` of them in flight.  The engine
    sizes its rings with this and admission control quotes with it, so the
    priced bytes are the enforced bytes.
    """
    nxh = n // 2 + 1
    # Largest pencil of each stage family (array_split is uneven: the
    # first slices carry the ceil).  Ring slots are sized for the
    # tallest rank's slab so one ring serves every (pencil, rank) item.
    cx = math.ceil(nxh / npencils)  # x-split width (y-FFT stages)
    wy = math.ceil(hmax / npencils)  # y-split width (z/x-FFT stages)
    xpencil = hmax * n * cx * complex_itemsize
    ycpx = n * wy * nxh * complex_itemsize
    yreal = n * wy * n * real_itemsize
    return xpencil, ycpx, yreal, 1.05 * window * max(xpencil, ycpx + yreal)


class DeviceMemoryExceeded(RuntimeError):
    """Raised when a pencil buffer would not fit in the simulated device."""


class DeviceArena:
    """A byte-budgeted allocator standing in for GPU HBM.

    Tracks live allocations and the high-water mark; ``allocate`` raises
    :class:`DeviceMemoryExceeded` when the budget would be exceeded —
    making "this slab does not fit, batch it" an *enforced* invariant
    rather than a comment.  Accounting is thread-safe: ring claims happen
    on the submitting thread while legacy upload/download helpers may run
    on stream workers.

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
        copy_engine: "CopyEngine | None" = None,
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
        #: Strided-copy strategy for :meth:`upload` / :meth:`download_and_free`
        #: (the monolithic helpers); defaults to the cudaMemcpy2DAsync
        #: analogue, the pre-copy-engine behaviour.
        self.copy_engine = (
            copy_engine
            if copy_engine is not None
            else Batched2DEngine(obs=self.obs)
        )
        #: Optional invariant monitor (repro.verify.invariants): notified on
        #: every allocate/free so fuzzed runs can assert no double-lease and
        #: that in_use returns to zero.
        self.monitor = None

    def allocate(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
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

    def upload(self, host_view: np.ndarray) -> np.ndarray:
        """H2D: copy a strided host view into a fresh device buffer."""
        buf = self.allocate(host_view.shape, host_view.dtype)
        try:
            self.copy_engine.h2d(buf, host_view)
        except BaseException:
            self.free(buf)
            raise
        if self.obs.enabled:
            self.obs.metrics.counter("arena.h2d_bytes").inc(buf.nbytes)
        return buf

    def download_and_free(self, buf: np.ndarray, host_view: np.ndarray) -> None:
        """D2H: copy a device buffer back into (strided) host memory."""
        try:
            self.copy_engine.d2h(host_view, buf)
        finally:
            if self.obs.enabled:
                self.obs.metrics.counter("arena.d2h_bytes").inc(buf.nbytes)
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
        #: Strided-copy strategy for :meth:`load` / :meth:`store`; defaults
        #: to the arena's engine so rings and legacy helpers agree.
        self.engine = engine if engine is not None else arena.copy_engine
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
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
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


class OutOfCoreSlabFFT:
    """Slab-decomposed 3-D transforms with pencil-batched device residency.

    Parameters
    ----------
    npencils:
        Pencils per slab (``np`` from the memory planner); each stage holds
        at most ``inflight`` pencils' ring slots in the arena.
    device_bytes:
        Arena capacity; defaults to just over one stage ring (``inflight``
        in-flight pencils), making any batching error fail loudly.
    pipeline:
        ``"sync"`` — every stream operation executes inline in submission
        order (the bit-exact reference); ``"threads"`` — one worker thread
        per stream, the Fig. 4 overlap on real data.
    inflight:
        Bounded in-flight window (ring slots per role).  3 is the paper's
        triple buffering; forced to 1 under ``pipeline="sync"`` where
        deeper windows cannot overlap anyway.
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
        ``"off"`` (default) — the legacy single compute stream;
        ``"pinned"`` — one compute lane per rank, every pencil pinned to
        its owner; ``"lend"`` — per-rank lanes with the deterministic
        :class:`~repro.exec.DlbPolicy` lend/reclaim assignment, so idle
        peers' compute lanes claim a slow rank's unstarted pencils.  All
        three produce bit-identical results.
    rank_weights:
        Relative per-rank compute slowdown factors pricing the DLB lane
        clocks (e.g. an imbalance plan's factors); default all-1.
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
    ):
        self.grid = grid
        self.comm = comm
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
        if dlb not in ("off", "pinned", "lend"):
            raise ValueError(f"dlb={dlb!r} must be 'off', 'pinned' or 'lend'")
        self.dlb = dlb
        self.npencils = npencils
        self.pipeline = pipeline if backend is None else backend.kind
        self.inflight = (
            1 if (backend is None and pipeline == "sync") else int(inflight)
        )
        self.monitor = monitor
        self.comm_retries = int(comm_retries)
        self.retry_backoff = float(retry_backoff)
        self.copy_strategy = copy_strategy
        self._copy_engine = make_engine(
            copy_strategy, obs=self.obs, kind=self.pipeline
        )

        (self._bytes_xpencil, self._bytes_ycpx, self._bytes_yreal,
         default_arena_bytes) = ring_bytes(
            grid.n, self.decomp.max_height, npencils, self.inflight,
            np.dtype(grid.cdtype).itemsize, np.dtype(grid.dtype).itemsize,
        )
        self.arena = DeviceArena(
            device_bytes if device_bytes is not None else default_arena_bytes,
            obs=self.obs,
            copy_engine=self._copy_engine,
            payload_policy=self.payload_policy,
        )
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
        if self.dlb == "off":
            self._dlb_policy = None
        else:
            from repro.exec.dlb import DlbPolicy

            if rank_weights is not None and len(rank_weights) != comm.size:
                raise ValueError(
                    f"expected {comm.size} rank weights, got {len(rank_weights)}"
                )
            self._dlb_policy = DlbPolicy(
                comm.size, mode=self.dlb, costs=rank_weights
            )
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

    def _splits(self, extent: int) -> list[slice]:
        """np.array_split boundaries of ``extent`` into ``npencils`` slices."""
        edges = np.linspace(0, extent, self.npencils + 1).astype(int)
        return [slice(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def _splits_keep(self, extent: int) -> list[slice]:
        """Like :meth:`_splits`, but keeps empty slices so every rank has
        exactly ``npencils`` entries — uneven slabs (including height-0
        ranks) then preserve the ``i = ip * P + r`` item structure."""
        edges = np.linspace(0, extent, self.npencils + 1).astype(int)
        return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]

    def _rank_ysplits(self) -> "list[list[slice]] | None":
        """Per-rank y-pencil slices for uneven slabs (None when balanced)."""
        d = self.decomp
        if d.heights is None:
            return None
        return [self._splits_keep(d.height(r)) for r in range(self.comm.size)]

    @property
    def _heights(self) -> "tuple[int, ...] | None":
        d = self.decomp
        return None if d.heights is None else d.rank_heights

    @property
    def _offsets(self) -> list[int]:
        d = self.decomp
        return [d.offset(r) for r in range(self.comm.size)]

    def _empty(self, shape: tuple[int, ...], dtype):
        """A host work array (payload) or its descriptor (metadata)."""
        if self._payload:
            return np.empty(shape, dtype=dtype)
        return ArrayDescriptor.empty(shape, dtype)

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

        Span tracers are single-threaded; copy-engine spans emitted from a
        stage fn must land on the tracer owned by the stream whose worker
        runs the fn (same pattern as :meth:`_exchange_pencil`).
        """
        return getattr(self._backend.stream(name), "_spans", self.obs.spans)

    def _rings(self, roles: dict[str, int]) -> PencilRings:
        """A per-stage ring wired to this engine's copy strategy."""
        return PencilRings(
            self.arena, self.inflight, roles, engine=self._copy_engine
        )

    def _note_h2d(self, nbytes: int) -> None:
        if self._m_h2d is not None:
            self._m_h2d.inc(nbytes)

    def _note_d2h(self, nbytes: int) -> None:
        if self._m_d2h is not None:
            self._m_d2h.inc(nbytes)

    def _exchange_pencil(
        self,
        sources: Sequence[np.ndarray],
        outs: Sequence[np.ndarray],
        pack_axis: int,
        unpack_axis: int,
        chunk: slice,
        chunk_axis: int,
        block_extent: int,
        pack_sizes: "Sequence[int] | None" = None,
        src_chunks: "Sequence[slice] | None" = None,
        unpack_offsets: "Sequence[int] | None" = None,
    ) -> None:
        """Post + complete one pencil's all-to-all (runs on the comm stream).

        The pack phase records its own nested span on the comm stream's
        tracer (same thread as the enclosing ``a2a[i]`` span), matching the
        ``pack``/``mpi`` category split of :func:`transpose_exchange`.

        Transient comm faults (:class:`TransientCommFault`, injected by the
        verification subsystem's fault-capable comm shim) are retried with
        exponential backoff up to ``comm_retries`` times: a *late* chunk
        re-waits the same posted handle, a *dropped* chunk re-packs and
        re-posts from the unchanged source arrays.  Faults are injected
        before any byte moves, so every retry starts from clean state and
        recovered exchanges are bit-identical to fault-free ones.
        """
        spans = getattr(self._backend.stream("comm"), "_spans", self.obs.spans)
        attempt = 0
        delay = self.retry_backoff
        handle = send = None
        while True:
            try:
                if handle is None:
                    with spans.span("transpose.pack", category="pack"):
                        handle, send = post_chunk_exchange(
                            self.comm, sources, pack_axis, chunk, chunk_axis,
                            pool=_PACK_POOL, pack_sizes=pack_sizes,
                            src_chunks=src_chunks,
                        )
                nbytes = complete_chunk_exchange(
                    handle, send, outs, unpack_axis, chunk, chunk_axis,
                    block_extent, pool=_PACK_POOL,
                    src_chunks=src_chunks, unpack_offsets=unpack_offsets,
                )
                break
            except TransientCommFault as fault:
                if self._m_comm_faults is not None:
                    self._m_comm_faults.inc()
                if attempt >= self.comm_retries:
                    raise
                attempt += 1
                if fault.dropped and send is not None:
                    # The posted send evaporated: recycle its staging and
                    # re-pack from the (unchanged) source arrays.
                    for bufs in send:
                        for buf in bufs:
                            if not is_descriptor(buf):
                                _PACK_POOL.give(buf)
                    handle = send = None
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

    def _compute_stage(self, name: str, fn, volume) -> PipelineStage:
        """The compute stage: single stream (legacy) or per-rank DLB lanes.

        With DLB enabled the stage is *owned*: item ``i`` belongs to rank
        ``i % P`` and the pipeline's :class:`~repro.exec.DlbPolicy` picks
        the lane from model-priced costs (``volume(i)`` element counts), so
        the assignment — and the lent/reclaimed counters — are deterministic
        on every backend.
        """
        if self._dlb_policy is None:
            return PipelineStage(name, "compute", "fft", fn=fn)
        P = self.comm.size
        return PipelineStage(
            name, "compute", "fft", fn=fn,
            owner=lambda i: i % P,
            cost=lambda i: float(volume(i)),
        )

    # -- full transforms -----------------------------------------------------

    def inverse(self, spectral_locals: Sequence[np.ndarray]) -> list[np.ndarray]:
        """kz-slabs -> y-slabs of the real field, never exceeding the arena.

        Stage order and pencil split axes follow the paper: y-FFTs on
        x-split pencils (with the per-pencil exchange pipelined behind
        them), then z and the c2r x transform on y-split pencils.
        """
        d = self.decomp
        n = self.grid.n
        P = self.comm.size
        cdtype = self.grid.cdtype
        for r, loc in enumerate(spectral_locals):
            if loc.shape != d.local_spectral_shape(r):
                raise ValueError(f"rank {r}: bad shape {loc.shape}")
        nxh = n // 2 + 1
        heights = self._heights
        offsets = self._offsets
        xsplits = self._splits(nxh)
        work = [self._empty(d.local_spectral_shape(r), cdtype) for r in range(P)]
        t_out = [self._empty((n, d.height(r), nxh), cdtype) for r in range(P)]

        # Phase 1 (Fig. 4): per (x-pencil, rank) — H2D, y-iFFT, D2H — and
        # per pencil, the s2p exchange of that x-chunk on the comm stream.
        rings = self._rings({"cpx": self._bytes_xpencil})
        sp_h2d = self._stream_spans("h2d")
        sp_d2h = self._stream_spans("d2h")
        try:
            def pencil(i: int) -> tuple[int, slice]:
                ip, r = divmod(i, P)
                return r, xsplits[ip]

            def shape_of(r: int, xs: slice) -> tuple[int, int, int]:
                return (d.height(r), n, xs.stop - xs.start)

            def h2d(i: int) -> None:
                r, xs = pencil(i)
                if d.height(r) == 0:
                    return
                slot = rings.load(
                    "cpx", i, shape_of(r, xs), cdtype,
                    spectral_locals[r][:, :, xs], spans=sp_h2d,
                )
                self._note_h2d(slot.nbytes)

            def fft(i: int) -> None:
                r, xs = pencil(i)
                if d.height(r) == 0:
                    return
                slot = rings.view("cpx", i, shape_of(r, xs), cdtype)
                if self._payload:
                    np.multiply(np.fft.ifft(slot, axis=_Y_AXIS), n, out=slot)

            def d2h(i: int) -> None:
                r, xs = pencil(i)
                if d.height(r) == 0:
                    return
                slot = rings.store(
                    "cpx", i, shape_of(r, xs), cdtype,
                    work[r][:, :, xs], spans=sp_d2h,
                )
                self._note_d2h(slot.nbytes)

            def comm_op(i: int) -> None:
                xs = xsplits[i // P]
                self._exchange_pencil(
                    work, t_out, pack_axis=_Y_AXIS, unpack_axis=_KZ_AXIS,
                    chunk=xs, chunk_axis=_X_AXIS, block_extent=d.max_height,
                    pack_sizes=heights, unpack_offsets=offsets,
                )

            def volume(i: int) -> int:
                r, xs = pencil(i)
                return d.height(r) * n * (xs.stop - xs.start)

            self._run(
                [
                    PipelineStage("h2d", "h2d", "h2d", fn=h2d),
                    self._compute_stage("fft.y", fft, volume),
                    PipelineStage("d2h", "d2h", "d2h", fn=d2h),
                    PipelineStage(
                        "a2a", "comm", "mpi", fn=comm_op,
                        when=lambda i: i % P == P - 1,
                    ),
                ],
                len(xsplits) * P,
            )
        finally:
            rings.close()
        if self._m_xcount is not None:
            self._m_xcount.inc()

        # Phase 2: per (y-pencil, rank) — z-iFFT then the c2r x transform,
        # fused on-device (one H2D/D2H round trip per pencil).  Uneven
        # slabs cut each rank's own y extent into npencils (possibly
        # empty) slices so the item structure is preserved.
        rank_ysplits = self._rank_ysplits()
        ysplits = self._splits(d.my) if rank_ysplits is None else None
        out = [
            self._empty((n, d.height(r), n), self.grid.dtype) for r in range(P)
        ]
        rings = self._rings(
            {"cpx": self._bytes_ycpx, "real": self._bytes_yreal}
        )
        sp_h2d = self._stream_spans("h2d")
        sp_d2h = self._stream_spans("d2h")
        try:
            def pencil2(i: int) -> tuple[int, slice]:
                ip, r = divmod(i, P)
                ys = ysplits[ip] if rank_ysplits is None else rank_ysplits[r][ip]
                return r, ys

            def h2d2(i: int) -> None:
                r, ys = pencil2(i)
                if ys.stop == ys.start:
                    return
                slot = rings.load(
                    "cpx", i, (n, ys.stop - ys.start, nxh), cdtype,
                    t_out[r][:, ys, :], spans=sp_h2d,
                )
                self._note_h2d(slot.nbytes)

            def fft2(i: int) -> None:
                r, ys = pencil2(i)
                w = ys.stop - ys.start
                if w == 0:
                    return
                slot = rings.view("cpx", i, (n, w, nxh), cdtype)
                if self._payload:
                    np.multiply(np.fft.ifft(slot, axis=_KZ_AXIS), n, out=slot)
                real = rings.view("real", i, (n, w, n), self.grid.dtype)
                if self._payload:
                    np.multiply(
                        np.fft.irfft(slot, n=n, axis=_X_AXIS), n, out=real
                    )

            def d2h2(i: int) -> None:
                r, ys = pencil2(i)
                if ys.stop == ys.start:
                    return
                real = rings.store(
                    "real", i, (n, ys.stop - ys.start, n), self.grid.dtype,
                    out[r][:, ys, :], spans=sp_d2h,
                )
                self._note_d2h(real.nbytes)

            def volume2(i: int) -> int:
                r, ys = pencil2(i)
                return n * (ys.stop - ys.start) * n

            nitems2 = (
                len(ysplits) * P if rank_ysplits is None else self.npencils * P
            )
            self._run(
                [
                    PipelineStage("h2d", "h2d", "h2d", fn=h2d2),
                    self._compute_stage("fft.zx", fft2, volume2),
                    PipelineStage("d2h", "d2h", "d2h", fn=d2h2),
                ],
                nitems2,
            )
        finally:
            rings.close()
        return out

    def forward(self, physical_locals: Sequence[np.ndarray]) -> list[np.ndarray]:
        """y-slabs of the real field -> kz-slabs of coefficients."""
        d = self.decomp
        n = self.grid.n
        P = self.comm.size
        cdtype = self.grid.cdtype
        for r, loc in enumerate(physical_locals):
            if loc.shape != d.local_physical_shape(r):
                raise ValueError(f"rank {r}: bad shape {loc.shape}")
        nxh = n // 2 + 1
        heights = self._heights
        offsets = self._offsets
        rank_ysplits = self._rank_ysplits()
        ysplits = self._splits(d.my) if rank_ysplits is None else None
        npitems = len(ysplits) if rank_ysplits is None else self.npencils
        half = [self._empty((n, d.height(r), nxh), cdtype) for r in range(P)]
        t_out = [self._empty(d.local_spectral_shape(r), cdtype) for r in range(P)]

        # Phase 1 (Fig. 4): per (y-pencil, rank) — H2D, fused r2c-x + c2c-z
        # FFTs, D2H — and per pencil, its p2s exchange (a y-sub-range of
        # every peer's contribution) pipelined on the comm stream.
        rings = self._rings(
            {"real": self._bytes_yreal, "cpx": self._bytes_ycpx}
        )
        sp_h2d = self._stream_spans("h2d")
        sp_d2h = self._stream_spans("d2h")
        try:
            def pencil(i: int) -> tuple[int, slice]:
                ip, r = divmod(i, P)
                ys = ysplits[ip] if rank_ysplits is None else rank_ysplits[r][ip]
                return r, ys

            def h2d(i: int) -> None:
                r, ys = pencil(i)
                if ys.stop == ys.start:
                    return
                slot = rings.load(
                    "real", i, (n, ys.stop - ys.start, n), self.grid.dtype,
                    physical_locals[r][:, ys, :], spans=sp_h2d,
                )
                self._note_h2d(slot.nbytes)

            def fft(i: int) -> None:
                r, ys = pencil(i)
                w = ys.stop - ys.start
                if w == 0:
                    return
                real = rings.view("real", i, (n, w, n), self.grid.dtype)
                cpx = rings.view("cpx", i, (n, w, nxh), cdtype)
                if self._payload:
                    cpx[:] = np.fft.rfft(real, axis=_X_AXIS)
                    cpx[:] = np.fft.fft(cpx, axis=_KZ_AXIS)

            def d2h(i: int) -> None:
                r, ys = pencil(i)
                if ys.stop == ys.start:
                    return
                cpx = rings.store(
                    "cpx", i, (n, ys.stop - ys.start, nxh), cdtype,
                    half[r][:, ys, :], spans=sp_d2h,
                )
                self._note_d2h(cpx.nbytes)

            def comm_op(i: int) -> None:
                ip = i // P
                if rank_ysplits is None:
                    src_chunks = None
                    chunk = ysplits[ip]
                else:
                    src_chunks = tuple(rank_ysplits[r][ip] for r in range(P))
                    chunk = src_chunks[0]
                self._exchange_pencil(
                    half, t_out, pack_axis=_KZ_AXIS, unpack_axis=_Y_AXIS,
                    chunk=chunk, chunk_axis=_Y_AXIS, block_extent=d.max_height,
                    pack_sizes=heights, src_chunks=src_chunks,
                    unpack_offsets=offsets,
                )

            def volume(i: int) -> int:
                r, ys = pencil(i)
                return n * (ys.stop - ys.start) * n

            self._run(
                [
                    PipelineStage("h2d", "h2d", "h2d", fn=h2d),
                    self._compute_stage("fft.xz", fft, volume),
                    PipelineStage("d2h", "d2h", "d2h", fn=d2h),
                    PipelineStage(
                        "a2a", "comm", "mpi", fn=comm_op,
                        when=lambda i: i % P == P - 1,
                    ),
                ],
                npitems * P,
            )
        finally:
            rings.close()
        if self._m_xcount is not None:
            self._m_xcount.inc()

        # Phase 2: per (x-pencil, rank) — the final y-FFT + normalization.
        xsplits = self._splits(nxh)
        out = [
            self._empty(d.local_spectral_shape(r), cdtype) for r in range(P)
        ]
        rings = self._rings({"cpx": self._bytes_xpencil})
        sp_h2d = self._stream_spans("h2d")
        sp_d2h = self._stream_spans("d2h")
        try:
            norm = float(n) ** 3

            def pencil2(i: int) -> tuple[int, slice]:
                ip, r = divmod(i, P)
                return r, xsplits[ip]

            def shape_of(r: int, xs: slice) -> tuple[int, int, int]:
                return (d.height(r), n, xs.stop - xs.start)

            def h2d2(i: int) -> None:
                r, xs = pencil2(i)
                if d.height(r) == 0:
                    return
                slot = rings.load(
                    "cpx", i, shape_of(r, xs), cdtype,
                    t_out[r][:, :, xs], spans=sp_h2d,
                )
                self._note_h2d(slot.nbytes)

            def fft2(i: int) -> None:
                r, xs = pencil2(i)
                if d.height(r) == 0:
                    return
                slot = rings.view("cpx", i, shape_of(r, xs), cdtype)
                if self._payload:
                    np.divide(np.fft.fft(slot, axis=_Y_AXIS), norm, out=slot)

            def d2h2(i: int) -> None:
                r, xs = pencil2(i)
                if d.height(r) == 0:
                    return
                slot = rings.store(
                    "cpx", i, shape_of(r, xs), cdtype,
                    out[r][:, :, xs], spans=sp_d2h,
                )
                self._note_d2h(slot.nbytes)

            def volume2(i: int) -> int:
                r, xs = pencil2(i)
                return d.height(r) * n * (xs.stop - xs.start)

            self._run(
                [
                    PipelineStage("h2d", "h2d", "h2d", fn=h2d2),
                    self._compute_stage("fft.y", fft2, volume2),
                    PipelineStage("d2h", "d2h", "d2h", fn=d2h2),
                ],
                len(xsplits) * P,
            )
        finally:
            rings.close()
        return out
