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
all-to-all order, and a *transposed slab* for calls that lend none
(``land=``); everything else lands in arrays the caller hands in
(``out=``).  So is the device side: one :class:`PencilRings` of flat
buffers claimed from the arena and re-viewed per pencil by every phase of
every call, grown when a call needs bigger slots and returned at
:meth:`~OutOfCoreSlabFFT.close` — the paper's persistent-buffer
discipline (27 buffers claimed at startup, Sec. 3.5).  Nothing on the
pencil path allocates.

Events enforce the Fig. 4 cross-stream edges (compute waits its pencil's
H2D; D2H waits its compute; the exchange waits its D2H) and a bounded
in-flight window gates H2D of pencil ``ip`` on full retirement of
``ip - window``, the ring slot it reuses.

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
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.cuda.arena import (DeviceArena, PencilRings, _roles, arena_bytes,
                              ring_bytes, ring_window)
from repro.cuda.copyengine import make_engine
from repro.dist.decomp import SlabDecomposition
from repro.dist.stages import STAGES, Stage, products
from repro.dist.transpose import chunk_exchange_layout, complete_chunk_exchange
from repro.dist.virtual_mpi import VirtualComm, call_rank, retry_transient
from repro.exec import PencilPipeline, PipelineStage, make_backend
from repro.obs import NULL_OBS
from repro.spectral.grid import SpectralGrid
from repro.spectral.workspace import resolve_fft

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["OutOfCoreSlabFFT"]

_KZ_AXIS, _Y_AXIS, _X_AXIS = 0, 1, 2
#: Pencil split axis -> (pack, unpack, chunk) axes of the exchange behind
#: it: the chunk is the pencil, so its axis is the split axis.
_EXCHANGE_AXES = {
    "x": (_Y_AXIS, _KZ_AXIS, _X_AXIS),
    "y": (_KZ_AXIS, _Y_AXIS, _Y_AXIS),
}


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
        delays and the profile's rank imbalance; a profile's comm fault
        rates are the communicator's, not this backend's.
    monitor:
        Optional :class:`repro.verify.invariants.InvariantMonitor`
        registered on the arena, which reports its pencil ring's views.
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
        unstarted pencils.  Both produce bit-identical results.  The lane
        clocks are priced with the ``fuzz`` profile's per-rank imbalance
        factors when it injects one, else all-1.
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
        copy_strategy: str = "memcpy2d",
        heights: Sequence[int] | None = None,
        dlb: str = "off",
        fft_backend: str = "numpy",
    ):
        self.grid = grid
        self.comm = comm
        self._lf = resolve_fft(fft_backend)
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
        if dlb not in ("off", "lend"):
            raise ValueError(f"dlb={dlb!r} must be 'off' or 'lend'")
        self.dlb = dlb
        self.npencils = npencils
        self.pipeline = pipeline if backend is None else backend.kind
        self.inflight = ring_window(backend is None and pipeline == "sync",
                                    inflight, npencils, comm.size)
        self.monitor = monitor
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
            device_bytes if device_bytes is not None else arena_bytes(
                self.inflight, _roles(self._pencil_bytes, 1, 0)),
            obs=self.obs,
        )
        # The host side, claimed on first use and kept (the paper's pinned
        # buffers, Sec. 3.5): per rank a send region that _exchange_views
        # carves into per-pencil blocks, and the y-slabs of a call whose
        # caller lends no landing buffer.  Both grow when a call needs more.
        self._send: list[np.ndarray] = []
        self._transposed: list[np.ndarray] = []
        self._views: dict[tuple, tuple] = {}
        self._layouts: dict[tuple, tuple] = {}
        #: The device side, claimed on first use and kept until close().
        self.rings = PencilRings(self.arena, self.inflight)
        if monitor is not None:
            self.arena.monitor = monitor
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
            from repro.verify.imbalance import ImbalancePlan

            plan = ImbalancePlan.from_profile(fuzz, comm.size)
            self._dlb_policy = DlbPolicy(
                comm.size, costs=None if plan is None else plan.factors)
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
            for name in ("comm.faults.transient", "comm.retries",
                         "comm.faults.recovered"):
                m.counter(name)
            self._m_dlb_lent = m.counter("dlb.pencils_lent")
            self._m_dlb_reclaimed = m.counter("dlb.pencils_reclaimed")
            m.gauge("arena.high_water_bytes")
        else:
            self._m_h2d = self._m_d2h = None
            self._m_xpose = self._m_chunks = self._m_xcount = None
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
        self.rings.close()

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

    def _y_shape(self, r: int) -> tuple[int, int, int]:
        return (self.grid.n, self.decomp.height(r), self.grid.n // 2 + 1)

    def _reserve_rings(self, fields: int, products: int = 0) -> None:
        """Grow the ring to a call's slots, shared by its phases (each
        drains before the next starts); a sized arena grows to hold them."""
        roles = self.rings.grown(_roles(self._pencil_bytes, fields, products))
        if self._sized_arena:
            self.arena.capacity = max(
                self.arena.capacity, arena_bytes(self.inflight, roles))
        self.rings.reserve(roles)

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
        held.extend(np.empty(s, dtype=self.grid.cdtype) for s in sizes)

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
        x]`` slab.

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

        Transient comm faults are :func:`retry_transient`'s: a *late* chunk
        re-waits the same posted handle, a *dropped* one is re-posted.  A
        pencil's send blocks are its own and stay untouched until the next
        transform, so a re-post sends the same bytes.
        """
        handle = None

        def attempt() -> int:
            nonlocal handle
            if handle is None:
                handle = self.comm.ialltoall(send, recv=windows)
            return complete_chunk_exchange(handle)

        def on_fault(fault) -> None:
            nonlocal handle
            if fault.dropped:
                handle = None  # the posted request evaporated

        nbytes = retry_transient(attempt, on_fault, self.obs.metrics,
                                 self._stream_spans("comm"))
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
        one wait that also completes an op a replay backend records.
        Inline execution runs the ranks in order.  Each op carries no
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

        rings = self.rings

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
            slot = rings.view(in_role, i, (fin, *shape), in_dtype)
            engine.h2d(slot, src[r][idx], spans=sp_h2d)
            if self._m_h2d is not None:
                self._m_h2d.inc(slot.nbytes)

        def fft(i: int) -> None:
            _, _, shape = pencil(i)
            if 0 in shape:
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
                np.empty(out_shape(r), dtype=out_dtype)
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
        self._reserve_rings(1)
        land = self._transposed_slabs(1)
        self._phase("x", _one_field(spectral_locals), (1, 1),
                    STAGES["inv_y"], land=land)
        self._phase("y", land, (1, 1), STAGES["inv_zx"], dst=_one_field(out))
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
        self._reserve_rings(1)
        self._phase("y", _one_field(physical_locals), (1, 1),
                    STAGES["fwd_xz"], land=spectra)
        self._phase("x", spectra, (1, 1), STAGES["fwd_y"], dst=spectra)
        return out

    def product_spectra(
        self,
        coeffs: Sequence[np.ndarray],
        pairs: Sequence[tuple[int, int]],
        out=None,
        wait: bool = True,
        land=None,
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
        before phase 2 writes); omitted, it is allocated.  ``land[r]``
        (contiguous, room for ``F`` fields, read by nothing until the call
        returns) takes phase 1's y-slabs in place of the engine's own slab.
        Bit-equal to one inverse per field, the products and one forward
        per pair.
        """
        d, nfields, nout = self.decomp, coeffs[0].shape[0], len(pairs)
        out = self._results(
            coeffs, lambda r: (nfields, *d.local_spectral_shape(r)),
            out, lambda r: (nout, *d.local_spectral_shape(r)), self.grid.cdtype,
        )
        middle = Stage(functools.partial(products, pairs=pairs), "fft.products")
        self._reserve_send(("x", nfields), ("y", nout))
        self._reserve_rings(nfields, nout)
        land = (self._transposed_slabs(nfields) if land is None
                else d.y_slabs(land, nfields, self.grid.cdtype))
        self._phase("x", coeffs, (nfields, nfields), STAGES["inv_y"],
                    land=land)
        self._phase("y", land, (nfields, nout), middle, land=out,
                    work=nfields + 1)
        self._phase("x", out, (nout, nout), STAGES["fwd_y"], dst=out)
        return out


def _one_field(locals_: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per-rank arrays viewed with a leading field axis of one."""
    return [a[None] for a in locals_]
