"""Process-pool comm backend: every rank in its own worker process.

:class:`VirtualComm` timeshares all ranks inside one interpreter, which is
perfect for bit-level determinism tests but hides real parallelism and
tolerates aliasing no real MPI would.  :class:`ProcsComm` keeps the exact
same collective surface (``alltoall`` / ``ialltoall`` / ``allreduce`` /
``allgather`` / ``bcast``, stats, fault-injector hook) while
running each rank's transform work in a dedicated **worker process**, so
``DistributedNavierStokesSolver --ranks N`` genuinely uses N cores — the
structural step the paper takes for granted (ranks are separate address
spaces whose compute/communication overlap must be orchestrated explicitly).

Architecture (bulk-synchronous, driver-coordinated):

* one daemon worker process per rank, fed small control messages over a
  :func:`multiprocessing.Pipe`; arrays move through per-worker
  :class:`multiprocessing.shared_memory.SharedMemory` segments;
* each segment is laid out per exchange as ``[inbox | outbox | ring]``,
  where the **ring** holds one packed block per destination rank.  During
  a transpose, worker *r* writes its per-peer blocks into its own ring;
  after a driver-side barrier every worker *s* reads slot *s* directly out
  of every peer's ring — the bytes cross process boundaries through shared
  memory, never through pickles;
* the paper's fused stages ride along: the pre-exchange 1-D FFTs (y for
  the inverse, x+z for the forward) run in the same worker dispatch that
  packs the ring, and the post-exchange FFTs in the dispatch that unpacks
  it, via the transform provider of
  :func:`repro.spectral.workspace.resolve_fft`, resolved and cached
  *inside each worker*;
* the fault-injector hook stays on the driver: it is consulted between the
  pack and unpack phases (exactly where :meth:`VirtualComm.alltoall`
  consults it), and a ``dropped`` fault re-dispatches the pack stage from
  the workers' untouched inboxes — the re-pack/re-post recovery of the
  verification subsystem, now across real process boundaries.

Collectives not on the transform hot path (``allreduce`` of scalar
diagnostics, ``bcast``, ``allgather``, the chunked ``ialltoall`` of the
out-of-core engine) inherit the driver-side :class:`VirtualComm`
implementations unchanged — they are pure data permutations whose cost is
dwarfed by the FFT work, and keeping them identical is what makes the
``virtual`` vs ``procs`` bit-equality suite meaningful.
"""

from __future__ import annotations

import os
import time
import traceback
import weakref
from multiprocessing import get_context
from multiprocessing import shared_memory as _shm
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dist.stages import STAGES
from repro.dist.virtual_mpi import CollectiveRecord, TransientCommFault, VirtualComm
from repro.obs.flight import current_flight, dump_current_flight
from repro.obs.heartbeat import HeartbeatBoard, HeartbeatWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["COMM_KINDS", "ProcsComm", "WorkerStallError", "make_comm"]


class WorkerStallError(RuntimeError):
    """A rank worker went silent (dead, or heartbeat older than the stall
    timeout) while the driver was waiting on the barrier for its reply."""

_ALIGN = 64


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


# -- the worker process --------------------------------------------------------


def _attach_segment(name: str, start_method: str) -> _shm.SharedMemory:
    seg = _shm.SharedMemory(name=name)
    # Attaching registers the segment with a resource tracker (until 3.13's
    # track=False there is no opt-out).  Forked workers share the driver's
    # tracker (ProcsComm starts it before forking), whose name cache is a
    # set — the duplicate register is harmless and the driver's unlink
    # clears it once.  Spawned workers get *private* trackers that would
    # unlink driver-owned memory when the worker exits, yanking live
    # segments from under its peers — drop those registrations.
    if start_method != "fork":  # pragma: no cover - spawn/forkserver only
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
    return seg


def _worker_main(rank: int, size: int, conn, start_method: str,
                 hb_name: Optional[str] = None,
                 hb_interval: float = 0.2) -> None:
    """Worker loop: attach shared segments, execute fused stages on demand.

    When a heartbeat board name is given, a daemon thread beats this rank's
    slot every ``hb_interval`` seconds (liveness) and every completed op
    marks progress (throughput) — the driver's stall detector and live
    per-rank gauges read that slot; see :mod:`repro.obs.heartbeat`.
    """
    from repro.spectral.workspace import resolve_fft

    heartbeat: Optional[HeartbeatWriter] = None
    if hb_name is not None:
        try:
            heartbeat = HeartbeatWriter(
                hb_name, rank, interval=hb_interval,
                unregister=start_method != "fork",
            ).start()
        except Exception:  # pragma: no cover - board gone; run untelemetered
            heartbeat = None

    segs: list[Optional[_shm.SharedMemory]] = [None] * size

    def _view(seg, shape, dtype, offset):
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=seg.buf,
                          offset=int(offset))

    while True:
        msg = conn.recv()
        op = msg["op"]
        try:
            if op == "exit":
                if heartbeat is not None:
                    heartbeat.stop()
                conn.send({"ok": True, "cpu_seconds": time.process_time()})
                break
            if op == "ping":
                conn.send({"ok": True, "pid": os.getpid()})
                continue
            if op == "attach":
                for seg in segs:
                    if seg is not None:
                        seg.close()
                segs = [
                    _attach_segment(name, start_method) for name in msg["names"]
                ]
                conn.send({"ok": True})
                continue

            lf = resolve_fft(msg["fft"])
            n = msg["n"]
            spans = []
            if op == "stage1":
                t0 = time.perf_counter()
                src = _view(segs[rank], msg["in_shape"], msg["in_dtype"],
                            msg["in_off"])
                pre = msg["pre"]
                mid = STAGES[pre].fn(src, n, lf) if pre else src
                t1 = time.perf_counter()
                base = msg["ring_off"]
                stride = msg["slot_stride"]
                exts = msg["dst_extents"]
                cuts = np.cumsum(exts[:-1]) if len(exts) > 1 else []
                for dst, block in enumerate(
                    np.split(mid, cuts, axis=msg["pack_axis"])
                ):
                    slot = _view(segs[rank], block.shape, block.dtype,
                                 base + dst * stride)
                    np.copyto(slot, block)
                t2 = time.perf_counter()
                if pre:
                    spans.append((f"proc.{pre}", "fft", t0, t1))
                spans.append(("proc.pack", "pack", t1, t2))
            elif op == "stage2":
                t0 = time.perf_counter()
                bshape = list(msg["block_shape"])
                bdtype = np.dtype(msg["block_dtype"])
                ua = msg["unpack_axis"]
                slot_off = msg["ring_off"] + rank * msg["slot_stride"]
                views = []
                # Peer r's slot for this rank holds a block whose unpack
                # extent is r's own slab height (uneven decompositions).
                for r, ext in enumerate(msg["src_extents"]):
                    shp = list(bshape)
                    shp[ua] = int(ext)
                    views.append(_view(segs[r], shp, bdtype, slot_off))
                gathered = np.concatenate(views, axis=ua)
                t1 = time.perf_counter()
                post = msg["post"]
                dst = _view(segs[rank], msg["out_shape"], msg["out_dtype"],
                            msg["out_off"])
                if post:
                    STAGES[post].fn(gathered, n, lf, out=dst)
                else:
                    np.copyto(dst, gathered.astype(dst.dtype, copy=False))
                t2 = time.perf_counter()
                spans.append(("proc.unpack", "pack", t0, t1))
                if post:
                    spans.append((f"proc.{post}", "fft", t1, t2))
            else:
                raise ValueError(f"unknown op {op!r}")
            if heartbeat is not None:
                heartbeat.mark_progress()
            conn.send({"ok": True, "spans": spans if msg.get("trace") else []})
        except Exception:
            conn.send({"ok": False, "error": traceback.format_exc()})


def _cleanup(workers, segments, boards=None) -> None:
    """Finalizer shared by close() and GC: stop workers, free shared memory."""
    for proc, conn in workers:
        try:
            if proc.is_alive():
                conn.send({"op": "exit"})
        except Exception:
            pass
    for proc, conn in workers:
        try:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
            conn.close()
        except Exception:
            pass
    workers.clear()
    for seg in segments:
        try:
            seg.close()
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        except Exception:
            pass
    segments.clear()
    for board in boards or ():
        try:
            board.close()
        except Exception:
            pass
    if boards:
        boards.clear()


class ProcsComm(VirtualComm):
    """A :class:`VirtualComm` whose rank work runs on a process pool.

    Parameters
    ----------
    size:
        Number of ranks (= worker processes).
    name:
        Communicator name (diagnostics only).
    fft_backend:
        Default line-transform provider workers use for fused stages
        (``numpy`` / ``scipy`` / ``auto``); per-call overrides
        ride on the stage messages.  Providers live in the workers.
    arena_bytes:
        Initial per-worker shared-memory segment size; grown on demand
        (powers of two) when an exchange needs more.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` (cheap,
        inherits the imported interpreter) and falls back to ``spawn``.
    fault_retry_budget:
        Attempts per exchange when a driver-side fault injector raises
        :class:`~repro.dist.virtual_mpi.TransientCommFault`; must exceed
        the plan's ``max_consecutive`` for recovery to be guaranteed.
    heartbeat_interval:
        Worker heartbeat period in seconds (see
        :mod:`repro.obs.heartbeat`); ``None`` disables the telemetry
        channel entirely.
    stall_timeout:
        Seconds of heartbeat silence (or a dead worker process) after
        which a barrier wait raises :class:`WorkerStallError` — after
        dumping the installed flight recorder — instead of blocking
        forever.  Defaults to ``$REPRO_PROCS_STALL`` or 30 s; ``None``
        restores the old wait-forever behaviour.
    """

    kind = "procs"

    def __init__(
        self,
        size: int,
        name: str = "world",
        fft_backend: str = "numpy",
        arena_bytes: int = 1 << 20,
        start_method: Optional[str] = None,
        fault_retry_budget: int = 4,
        heartbeat_interval: Optional[float] = 0.2,
        stall_timeout: Optional[float] = None,
    ):
        super().__init__(size, name=name)
        self.fft_backend = fft_backend
        self.fault_retry_budget = int(fault_retry_budget)
        self.fault_retries = 0
        self.worker_cpu_seconds: list[float] = []
        if stall_timeout is None:
            env = os.environ.get("REPRO_PROCS_STALL")
            stall_timeout = float(env) if env else 30.0
        self.stall_timeout = stall_timeout if stall_timeout > 0 else None
        self.stalls_detected = 0
        if start_method is None:
            start_method = os.environ.get("REPRO_PROCS_START") or (
                "fork" if "fork" in __import__("multiprocessing").get_all_start_methods()
                else "spawn"
            )
        self._start_method = start_method
        ctx = get_context(start_method)
        if start_method == "fork":
            # Start the resource tracker *before* forking so every worker
            # inherits the same tracker fd: attach-time registers then land
            # in one shared name set (deduplicated) instead of spawning a
            # private tracker per worker that would warn about — or unlink —
            # driver-owned segments at worker exit.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        self._workers: list[tuple] = []
        self._segments: list[_shm.SharedMemory] = []
        self._seg_bytes = 0
        self.heartbeat_board: Optional[HeartbeatBoard] = None
        self._boards: list[HeartbeatBoard] = []
        hb_name = None
        if heartbeat_interval is not None and heartbeat_interval > 0:
            self.heartbeat_board = HeartbeatBoard(size)
            self._boards.append(self.heartbeat_board)
            hb_name = self.heartbeat_board.name
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(rank, size, child_conn, start_method, hb_name,
                      heartbeat_interval),
                name=f"{name}-rank{rank}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        self._finalizer = weakref.finalize(
            self, _cleanup, self._workers, self._segments, self._boards
        )
        flight = current_flight()
        if flight is not None and self.heartbeat_board is not None:
            flight.add_heartbeat_provider(self.heartbeats)
        for _, conn in self._workers:
            conn.send({"op": "ping"})
        self.worker_pids = [self._reply(r)["pid"] for r in range(size)]
        self._ensure_capacity(arena_bytes)

    # -- worker plumbing ----------------------------------------------------

    def heartbeats(self) -> list[dict]:
        """Per-rank heartbeat records (empty when telemetry is disabled)."""
        if self.heartbeat_board is None:
            return []
        return self.heartbeat_board.read_all()

    def live_worker_cpu_seconds(self) -> list[float]:
        """Per-rank worker CPU seconds *right now*, streamed through the
        heartbeat channel — no need to wait for :meth:`close`."""
        if self.heartbeat_board is None:
            return []
        return self.heartbeat_board.cpu_seconds()

    def _stall_check(self, rank: int) -> None:
        """Raise :class:`WorkerStallError` if the awaited worker is silent.

        Silent = its process is dead, or its heartbeat age exceeds the
        stall timeout.  A worker that is merely *slow* keeps beating (the
        heartbeat thread runs while NumPy holds the compute) and is never
        flagged.  Dumps the installed flight recorder first, so the hang
        leaves a timeline with per-rank heartbeat ages, not a blank
        terminal.
        """
        proc, _ = self._workers[rank]
        age = None
        if self.heartbeat_board is not None:
            rec = self.heartbeat_board.read_all()[rank]
            age = rec["age_seconds"]
        dead = not proc.is_alive()
        timed_out = (
            age is not None
            and self.stall_timeout is not None
            and age > self.stall_timeout
        )
        if not dead and not timed_out:
            return
        self.stalls_detected += 1
        ages = (
            [f"{a:.1f}s" if a != float("inf") else "never"
             for a in self.heartbeat_board.ages()]
            if self.heartbeat_board is not None else []
        )
        reason = "died" if dead else f"heartbeat silent for {age:.1f}s"
        dump_current_flight(f"procs-stall-rank{rank}")
        raise WorkerStallError(
            f"{self.name}: rank {rank} worker {reason} while the driver "
            f"waited on the barrier (per-rank heartbeat ages: {ages})"
        )

    def _reply(self, rank: int) -> dict:
        proc, conn = self._workers[rank]
        if self.stall_timeout is None:
            reply = conn.recv()
        else:
            while True:
                if conn.poll(min(0.2, self.stall_timeout)):
                    try:
                        reply = conn.recv()
                    except EOFError:
                        self._stall_check(rank)
                        raise
                    break
                self._stall_check(rank)
        if not reply.get("ok"):
            raise RuntimeError(
                f"{self.name}: rank {rank} worker failed:\n{reply.get('error')}"
            )
        return reply

    def _broadcast_wait(self, msgs: Sequence[dict]) -> list[dict]:
        """Send one message per worker, then collect every reply.

        All workers run their op concurrently — this is where the wall-clock
        parallelism comes from.  A broken pipe on dispatch means the worker
        is already gone; surface it as the stall it is (with heartbeat
        ages) rather than a bare ``BrokenPipeError``.
        """
        for rank, ((_, conn), msg) in enumerate(zip(self._workers, msgs)):
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                self._stall_check(rank)
                raise
        return [self._reply(r) for r in range(self.size)]

    def _ensure_capacity(self, per_worker_bytes: int) -> None:
        if per_worker_bytes <= self._seg_bytes:
            return
        nbytes = 1 << max(int(per_worker_bytes) - 1, 1).bit_length()
        new = [
            _shm.SharedMemory(create=True, size=nbytes) for _ in range(self.size)
        ]
        names = [seg.name for seg in new]
        self._broadcast_wait(
            [{"op": "attach", "names": names} for _ in range(self.size)]
        )
        old = list(self._segments)
        self._segments[:] = new
        self._seg_bytes = nbytes
        for seg in old:
            seg.close()
            seg.unlink()

    def close(self) -> None:
        """Stop the workers and release shared memory (idempotent)."""
        if not self._workers:
            return
        for _, conn in self._workers:
            try:
                conn.send({"op": "exit"})
            except Exception:
                pass
        for rank, (proc, conn) in enumerate(self._workers):
            try:
                # Drain stale stage replies (an aborted exchange may have
                # left them queued) until the exit reply with the final
                # cpu reading arrives.
                reply = conn.recv()
                while reply.get("ok") and "cpu_seconds" not in reply:
                    reply = conn.recv()
                if reply.get("ok"):
                    self.worker_cpu_seconds.append(float(reply["cpu_seconds"]))
            except (EOFError, OSError):
                # The exit reply was lost with the worker; the heartbeat
                # board still has its last streamed cpu reading.
                if self.heartbeat_board is not None:
                    self.worker_cpu_seconds.append(
                        self.heartbeat_board.read(rank)["cpu_seconds"]
                    )
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
            conn.close()
        self._workers.clear()
        for seg in self._segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._segments.clear()
        for board in self._boards:
            board.close()
        self._boards.clear()
        self.heartbeat_board = None
        self._finalizer.detach()

    def __enter__(self) -> "ProcsComm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the fused transpose -------------------------------------------------

    def rank_transpose(
        self,
        locals_: Sequence[np.ndarray],
        pack_axis: int,
        unpack_axis: int,
        pre: Optional[str] = None,
        post: Optional[str] = None,
        n: Optional[int] = None,
        out_dtype=None,
        fft: Optional[str] = None,
        kind: str = "alltoall",
        obs: "Observability | None" = None,
        pack_sizes: Optional[Sequence[int]] = None,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> list[np.ndarray]:
        """Pack -> shared-memory all-to-all -> unpack, executed on the pool.

        Optional ``pre`` / ``post`` kernels fuse the slab FFT stages into
        the same worker dispatches (so compute runs where the data already
        sits).  Bit-identical to packing with
        :func:`repro.dist.transpose.pack_blocks` and exchanging through
        :meth:`VirtualComm.alltoall` — pure data movement plus the exact
        inline kernel sequence.

        ``pack_sizes`` (per-rank slab heights) generalizes the exchange to
        uneven decompositions: rank r's input carries ``pack_sizes[r]``
        planes along ``unpack_axis``, the pack split along ``pack_axis``
        follows the same extents, and every ring slot is sized for the
        largest block.  ``None`` keeps the balanced even-split layout.

        ``out`` hands over the per-rank result arrays: each worker's outbox
        is copied into ``out[r]`` instead of into a freshly allocated array.
        """
        if not self._workers:
            raise RuntimeError(f"{self.name}: communicator is closed")
        self._check_per_rank(locals_)
        first = locals_[0]
        ps: Optional[tuple[int, ...]] = None
        if pack_sizes is not None:
            ps = tuple(int(x) for x in pack_sizes)
            if len(ps) != self.size:
                raise ValueError(
                    f"{self.name}: pack_sizes has {len(ps)} entries for "
                    f"{self.size} ranks"
                )
            if any(x < 0 for x in ps):
                raise ValueError(f"{self.name}: pack_sizes must be >= 0, got {ps}")
        for r, loc in enumerate(locals_):
            exp = list(first.shape)
            if ps is not None:
                exp[unpack_axis] = ps[r]
            if list(loc.shape) != exp or loc.dtype != first.dtype:
                raise ValueError(
                    f"{self.name}: rank {r} local {loc.shape}/{loc.dtype} "
                    f"differs from expected {tuple(exp)}/{first.dtype}"
                )
        if n is None:
            n = first.shape[pack_axis]
        fft_name = fft if fft is not None else self.fft_backend
        # Block geometry between the stages follows from the stage table.
        mid_shape, mid_dtype = tuple(first.shape), first.dtype
        if pre is not None:
            mid_shape = STAGES[pre].out_shape(mid_shape, n)
            mid_dtype = STAGES[pre].out_dtype(mid_dtype)
        if ps is None:
            if mid_shape[pack_axis] % self.size != 0:
                raise ValueError(
                    f"pack axis extent {mid_shape[pack_axis]} not divisible "
                    f"by {self.size}"
                )
            pack_exts = (mid_shape[pack_axis] // self.size,) * self.size
            unpack_exts = (mid_shape[unpack_axis],) * self.size
        else:
            if sum(ps) != mid_shape[pack_axis]:
                raise ValueError(
                    f"pack_sizes {ps} sum to {sum(ps)} but the pack axis "
                    f"extent is {mid_shape[pack_axis]}"
                )
            pack_exts = ps
            unpack_exts = ps
        # Bytes of the (src=r -> dst=s) block: the mid-shape template with
        # the pack extent of s and the unpack extent of r.
        base_bytes = mid_dtype.itemsize
        for ax, ext in enumerate(mid_shape):
            if ax not in (pack_axis, unpack_axis):
                base_bytes *= int(ext)
        slot_stride = _aligned(base_bytes * max(unpack_exts) * max(pack_exts))
        total_unpack = sum(unpack_exts)

        out_shapes, out_dts, out_bytes = [], [], 0
        for s in range(self.size):
            o_shape = list(mid_shape)
            o_shape[pack_axis] = pack_exts[s]
            o_shape[unpack_axis] = total_unpack
            o_dt = mid_dtype
            if post is not None:
                o_shape = STAGES[post].out_shape(o_shape, n)
                o_dt = STAGES[post].out_dtype(o_dt)
            if out_dtype is not None:
                o_dt = np.dtype(out_dtype)
            out_shapes.append(tuple(o_shape))
            out_dts.append(o_dt)
            out_bytes = max(out_bytes, int(np.prod(o_shape)) * o_dt.itemsize)

        in_off = 0
        in_bytes = max(loc.nbytes for loc in locals_)
        out_off = _aligned(in_bytes)
        ring_off = out_off + _aligned(out_bytes)
        self._ensure_capacity(ring_off + self.size * slot_stride)

        trace = obs is not None and obs.enabled
        common = {
            "fft": fft_name,
            "n": int(n),
            "block_dtype": mid_dtype.str,
            "ring_off": ring_off,
            "slot_stride": slot_stride,
            "trace": trace,
        }
        stage1 = [
            {
                "op": "stage1",
                "pre": pre,
                "in_off": in_off,
                "in_shape": loc.shape,
                "in_dtype": loc.dtype.str,
                "pack_axis": pack_axis,
                "dst_extents": list(pack_exts),
                **common,
            }
            for loc in locals_
        ]
        stage2 = []
        for s in range(self.size):
            block_shape = list(mid_shape)
            block_shape[pack_axis] = pack_exts[s]
            stage2.append(
                {
                    "op": "stage2",
                    "post": post,
                    "unpack_axis": unpack_axis,
                    "block_shape": tuple(block_shape),
                    "src_extents": list(unpack_exts),
                    "out_off": out_off,
                    "out_shape": out_shapes[s],
                    "out_dtype": out_dts[s].str,
                    **common,
                }
            )

        for r, loc in enumerate(locals_):
            dst = np.ndarray(loc.shape, dtype=loc.dtype,
                             buffer=self._segments[r].buf, offset=in_off)
            np.copyto(dst, loc)

        replies = self._broadcast_wait(stage1)
        # The barrier between pack and unpack is where the collective
        # "happens": consult the fault injector here, exactly where the
        # in-process comm does.  A dropped exchange re-dispatches the pack
        # stage — the workers' inboxes are untouched, so the re-pack is the
        # re-post recovery real MPI retry loops perform.
        for attempt in range(self.fault_retry_budget):
            if self.fault_injector is None:
                break
            try:
                self.fault_injector.check(kind, self)
                break
            except TransientCommFault as fault:
                if attempt == self.fault_retry_budget - 1:
                    raise
                self.fault_retries += 1
                if fault.dropped:
                    replies = self._broadcast_wait(stage1)

        sizes = [
            base_bytes * unpack_exts[r] * pack_exts[s]
            for r in range(self.size)
            for s in range(self.size)
        ]
        self.stats.records.append(
            CollectiveRecord(
                kind,
                total_bytes=sum(sizes),
                p2p_bytes=max(sizes),
                ranks=self.size,
                p2p_min_bytes=min(sizes),
                p2p_max_bytes=max(sizes),
                messages=len(sizes),
            )
        )

        replies2 = self._broadcast_wait(stage2)
        outs = []
        for r in range(self.size):
            src = np.ndarray(out_shapes[r], dtype=out_dts[r],
                             buffer=self._segments[r].buf, offset=out_off)
            if out is None:
                outs.append(np.array(src, copy=True))
            else:
                np.copyto(out[r], src)
                outs.append(out[r])
        if trace:
            self._merge_worker_spans(obs, (replies, replies2))
        if obs is not None and obs.enabled and self.heartbeat_board is not None:
            # Live per-rank gauges (cpu seconds, heartbeat age, ops) — the
            # cross-process view `repro obs tail` and --report render.
            self.heartbeat_board.export_gauges(obs.metrics)
        return outs

    def _merge_worker_spans(self, obs: "Observability", reply_rounds) -> None:
        """Fold worker-side stage timings into the shared span timeline.

        Worker clocks are ``time.perf_counter`` — on Linux the same
        monotonic base as the driver's — so their intervals land coherently
        on ``rank<r>.proc`` lanes next to the driver's spans.
        """
        spans = obs.spans
        spans.ensure_epoch()
        epoch = spans._epoch[0]
        tracer = spans.to_tracer()
        flight = spans.flight
        for replies in reply_rounds:
            for r, reply in enumerate(replies):
                for sname, category, t0, t1 in reply.get("spans", ()):
                    tracer.record(
                        category, f"rank{r}.proc", sname,
                        t0 - epoch, t1 - epoch, exclusive=t1 - t0,
                    )
                    if flight is not None:
                        # record() bypasses _Span.__exit__, so feed the
                        # flight ring directly — a post-mortem of a hung
                        # exchange needs the worker lanes too.
                        flight.record_span(
                            f"rank{r}.proc", sname, category,
                            t0 - epoch, t1 - epoch,
                        )


# -- factory -------------------------------------------------------------------

COMM_KINDS = ("virtual", "procs")

#: ``make_comm`` kwargs that only the process pool understands.
_PROCS_ONLY = ("fft_backend", "arena_bytes", "start_method",
               "heartbeat_interval", "stall_timeout")


def make_comm(kind: str, size: int, name: str = "world", **kwargs) -> VirtualComm:
    """Build a communicator backend by name.

    ``virtual``
        The in-process :class:`~repro.dist.virtual_mpi.VirtualComm`
        (bit-exact reference; timeshares one interpreter).  The
        process-pool kwargs are accepted and ignored, so one call site
        serves both kinds.
    ``procs``
        :class:`ProcsComm` — one worker process per rank with shared-memory
        ring buffers (extra kwargs: ``fft_backend``, ``arena_bytes``,
        ``start_method``, ``heartbeat_interval``, ``stall_timeout``).
    """
    if kind == "virtual":
        extra = {k: v for k, v in kwargs.items() if k not in _PROCS_ONLY}
        if extra:
            raise TypeError(f"unexpected kwargs for virtual comm: {extra}")
        return VirtualComm(size, name=name)
    if kind == "procs":
        return ProcsComm(size, name=name, **kwargs)
    raise ValueError(f"unknown comm kind {kind!r}; choose from {COMM_KINDS}")
