"""Process-pool comm backend: every rank's data and work in its own process.

:class:`ProcsComm` keeps :class:`VirtualComm`'s collective surface (the
collectives off the hot path are inherited unchanged, which keeps the
``virtual`` vs ``procs`` bit-equality suite meaningful) while each rank
lives in a **worker process**, as in the paper: a rank keeps its slab on its
own device and only the all-to-all crosses ranks.  The driver queues work
and sends it, one message per worker, when it wants a result back:

* **resident arrays** (:meth:`ProcsComm.resident`) are shared-memory
  segments, one per array, unmoved until :meth:`ProcsComm.close`; a message
  names one by a :class:`_Resident` descriptor, never by its bytes;
* :meth:`ProcsComm.each_rank` runs a module-level function on every rank's
  resident arrays in the workers; only small results come back;
* :meth:`ProcsComm.rank_transpose` is the all-to-all, the whole slab as
  one chunk of :func:`repro.dist.transpose.chunk_exchange_layout`: each
  worker packs into its **exchange ring** (a per-worker segment that grows
  on demand), meets its peers at a barrier, and copies its slot of every
  peer's ring into its transposed slab; the :data:`repro.dist.stages.STAGES`
  FFTs (and a substage's products) ride in the pack and the unpack.
"""

from __future__ import annotations

import enum
import math
import mmap
import os
import time
import traceback
import weakref
from functools import partial
from multiprocessing import get_all_start_methods, get_context, resource_tracker
from multiprocessing import shared_memory as _shm
from multiprocessing.connection import wait as _ready
from multiprocessing.reduction import ForkingPickler as _ForkingPickler
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.dist.stages import STAGES, products
from repro.dist.transpose import chunk_exchange_layout
from repro.dist.virtual_mpi import VirtualComm, retry_transient
from repro.obs import NULL_OBS
from repro.obs.flight import current_flight, dump_current_flight
from repro.obs.heartbeat import HeartbeatBoard, HeartbeatWriter
from repro.spectral.pointwise import PointwiseKernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["COMM_KINDS", "ProcsComm", "WorkerStallError", "make_comm"]


class WorkerStallError(RuntimeError):
    """A rank worker went silent (dead, or heartbeat older than the stall
    timeout) while the driver was waiting for the workers' replies."""

_ALIGN = 64
#: Initial per-worker exchange-ring bytes, grown on demand.
_INITIAL_RING_BYTES = 1 << 20


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


class _Resident(NamedTuple):
    """How a message names (a view of) a resident array."""

    name: str
    offset: int
    shape: tuple
    strides: tuple
    dtype: str


class _Kernel(NamedTuple):
    """How a message names a PointwiseKernel; a worker builds each once."""

    recipe: tuple


def _quietly(fn, *args) -> None:
    try:
        fn(*args)
    except Exception:  # pragma: no cover - already gone
        pass


# -- the worker process --------------------------------------------------------


class _Worker:
    """Rank ``rank``'s side: every rank's exchange ring, the resident
    segments it has attached, the buffers it claims once per role, and the
    barrier it meets its peers at once per exchange.  Attaching registers a
    segment with the driver's resource tracker, which every POSIX start
    method hands the workers: never unregister, that drops the driver's."""

    def __init__(self, rank: int, barrier):
        self.rank = rank
        self.barrier = barrier
        self.rings: list[_shm.SharedMemory] = []
        self.attached: dict[str, _shm.SharedMemory] = {}
        self.claimed: dict[tuple, np.ndarray] = {}
        self.kernels: dict[tuple, PointwiseKernel] = {}

    def array(self, d: _Resident) -> np.ndarray:
        if 0 in d.shape:  # a height-0 rank's slab: nothing to address
            return np.empty(d.shape, d.dtype)
        seg = self.attached.get(d.name)
        if seg is None:
            seg = self.attached[d.name] = _shm.SharedMemory(d.name)
        return np.ndarray(d.shape, np.dtype(d.dtype), buffer=seg.buf,
                          offset=d.offset, strides=d.strides)

    def claim(self, role: str, shape, dtype) -> np.ndarray:
        key = (role, tuple(shape), np.dtype(dtype).str)
        buf = self.claimed.get(key)
        if buf is None:
            buf = self.claimed[key] = np.empty(key[1], key[2])
        return buf

    def decode(self, x):
        if isinstance(x, _Resident):
            return self.array(x)
        if isinstance(x, _Kernel):
            if x.recipe not in self.kernels:
                self.kernels[x.recipe] = PointwiseKernel.from_recipe(x.recipe)
            return self.kernels[x.recipe]
        if isinstance(x, (list, tuple)):
            items = [self.decode(v) for v in x]
            return items if isinstance(x, list) else tuple(items)
        return x

    def slot(self, owner: int, index: int, shape, dtype, msg: dict) -> np.ndarray:
        """Slot ``index`` of ``owner``'s ring, in the half ``msg`` uses."""
        return np.ndarray(tuple(shape), np.dtype(dtype), buffer=self.rings[owner].buf,
                          offset=msg["base"] + index * msg["stride"])

    def run(self, msg: dict, resolve_fft, spans: list):
        op = msg["op"]
        if op == "call":
            t0 = time.perf_counter()
            result = msg["fn"](*self.decode(msg["args"]))
            spans.append((msg["fn"].__name__.lstrip("_"), "pointwise", t0,
                          time.perf_counter()))
            return result
        if op in ("pack", "unpack"):
            return getattr(self, op)(msg, resolve_fft(msg["fft"]), spans)
        if op == "barrier":
            self.barrier.wait()
            return None
        if op == "attach":
            for seg in self.rings:
                seg.close()
            self.rings = [_shm.SharedMemory(nm) for nm in msg["names"]]
            return None
        if op == "ping":
            return {"pid": os.getpid(), "buffers": len(self.claimed),
                    "segments": len(self.attached) + len(self.rings)}
        raise ValueError(f"unknown op {op!r}")

    def pack(self, msg: dict, lf, spans: list) -> None:
        """The pre stage into a claimed buffer (skipped on a re-pack, which
        reads what the first dispatch left there), then peer ``s``'s planes
        ``pack[s]`` into slot ``s`` of this rank's ring."""
        mid = src = self.array(msg["src"])
        pre, t0 = msg["pre"], time.perf_counter()
        if pre is not None:
            stage = STAGES[pre]
            mid = self.claim("mid", stage.out_shape(src.shape, msg["n"]),
                             stage.out_dtype(src.dtype))
            if not msg["repack"]:
                stage.fn(src, msg["n"], lf, out=mid)
                spans.append((f"proc.{pre}", "fft", t0, time.perf_counter()))
        t1 = time.perf_counter()
        for s, index in enumerate(msg["pack"]):
            block = mid[index]
            np.copyto(self.slot(self.rank, s, block.shape, block.dtype, msg), block)
        spans.append(("proc.pack", "pack", t1, time.perf_counter()))

    def unpack(self, msg: dict, lf, spans: list) -> None:
        """Slot ``rank`` of peer ``r``'s ring into window ``r`` of the
        transposed slab — ``out`` without a post stage, else ``land`` when
        lent, else ``out`` for a post stage that keeps shape and dtype and
        forms no products (the y FFTs, run in place), else a slab claimed
        once — then the post stage, or the products, into ``out``."""
        out = self.array(msg["out"])
        post, n, dtype = msg["post"], msg["n"], msg["dtype"]
        t0 = time.perf_counter()
        stage = None if post is None else STAGES[post]
        if stage is None:
            dst = out
        elif msg["land"] is not None:
            dst = self.array(msg["land"])
        elif msg["pairs"] is None and not (stage.real_in or stage.real_out):
            dst = out
        else:
            dst = self.claim("transposed", msg["shape"], dtype)
        for r, (window, block) in enumerate(zip(msg["windows"], msg["blocks"])):
            np.copyto(dst[window], self.slot(r, self.rank, block, dtype, msg))
        t1 = time.perf_counter()
        spans.append(("proc.unpack", "pack", t0, t1))
        if stage is None:
            return
        if msg["pairs"] is None:
            stage.fn(dst, n, lf, out=out)
        else:
            fields = stage.out_shape(dst.shape, n)
            work = self.claim("work", (fields[0] + 1, *fields[1:]),
                              stage.out_dtype(dst.dtype))
            products(dst, n, lf, out, work, msg["pairs"])
        spans.append((f"proc.{post}", "fft", t1, time.perf_counter()))


def _worker_main(rank: int, conn, barrier, hb_name: Optional[str] = None,
                 hb_interval: float = 0.2) -> None:
    """Worker loop.  A message is the ops queued for this rank; the reply
    carries the last op's result and each traced op's spans, or the first
    error, after which only the barriers run (aborting would break a peer
    the last barrier released but had not yet woken).  A heartbeat thread
    beats every ``hb_interval`` s; each message marks progress."""
    from repro.spectral.workspace import resolve_fft

    heartbeat: Optional[HeartbeatWriter] = None
    if hb_name is not None:
        try:
            heartbeat = HeartbeatWriter(hb_name, rank, interval=hb_interval).start()
        except Exception:  # pragma: no cover - board gone; run untelemetered
            heartbeat = None
    worker = _Worker(rank, barrier)
    while True:
        msg = conn.recv()
        if msg == "exit":
            if heartbeat is not None:
                heartbeat.stop()
            conn.send({"ok": True, "cpu_seconds": time.process_time()})
            break
        spans, result, error = [], None, None
        for op in msg:
            spans.append([])
            try:
                if error is None or op["op"] == "barrier":
                    result = worker.run(op, resolve_fft, spans[-1])
            except Exception:  # a broken barrier too: the driver saw a stall
                error = error or traceback.format_exc()
            if not op.get("trace"):
                spans[-1].clear()
        if heartbeat is not None:
            heartbeat.mark_progress()
        try:
            conn.send({"ok": True, "result": result, "spans": spans}
                      if error is None else {"ok": False, "error": error})
        except Exception:  # a result that does not pickle
            conn.send({"ok": False, "error": traceback.format_exc()})


def _cleanup(workers, segments, boards, resident) -> None:
    """Finalizer shared by close() and GC: stop workers, free shared memory.
    Resident segments were closed at creation and only unlink: no process
    can map them again, and the driver's views keep their own map."""
    for proc, conn in workers:
        if proc.is_alive():
            _quietly(conn.send, "exit")
    for proc, conn in workers:
        proc.join(timeout=2.0)
        if proc.is_alive():  # pragma: no cover - stuck worker
            proc.terminate()
        conn.close()
    for seg in segments:
        _quietly(seg.close)
    for seg in segments + resident:
        _quietly(seg.unlink)
    for board in boards:
        _quietly(board.close)
    for held in (workers, segments, boards, resident):
        held.clear()


class ProcsComm(VirtualComm):
    """A :class:`VirtualComm` whose ranks' data and work live in a process pool.

    Parameters
    ----------
    size, name:
        Number of ranks (= worker processes); a name for diagnostics.
    fft_backend:
        Default line-transform provider of the workers' stages (``numpy`` /
        ``scipy`` / ``auto``); per-call overrides ride on the messages.
    start_method:
        ``multiprocessing`` start method; default ``$REPRO_PROCS_START``,
        else ``fork`` (cheap, inherits the imported interpreter) where
        available, else ``spawn``.
    heartbeat_interval:
        Worker heartbeat period in seconds (see :mod:`repro.obs.heartbeat`);
        ``None`` disables the telemetry channel entirely.
    stall_timeout:
        Seconds of heartbeat silence (since its start, before a worker's
        first beat) after which waiting for replies raises
        :class:`WorkerStallError` — after dumping the installed flight
        recorder — as a dead worker does at once.  Defaults to
        ``$REPRO_PROCS_STALL`` or 30 s; ``None`` waits on silence forever.
    """

    kind = "procs"

    def __init__(
        self, size: int, name: str = "world", fft_backend: str = "numpy",
        start_method: Optional[str] = None,
        heartbeat_interval: Optional[float] = 0.2,
        stall_timeout: Optional[float] = None,
    ):
        super().__init__(size, name=name)
        self.fft_backend = fft_backend
        self.fault_retries = 0
        self.worker_cpu_seconds: list[float] = []
        if stall_timeout is None:
            stall_timeout = float(os.environ.get("REPRO_PROCS_STALL") or 30.0)
        self.stall_timeout = stall_timeout if stall_timeout > 0 else None
        self.stalls_detected = 0
        start_method = start_method or os.environ.get("REPRO_PROCS_START") or (
            "fork" if "fork" in get_all_start_methods() else "spawn")
        ctx = get_context(start_method)
        resource_tracker.ensure_running()  # the one every worker shares
        #: The workers, when each started (the age of a heartbeat not yet
        #: beaten) and the barrier they meet at once per exchange.
        self._workers: list[tuple] = []
        self._started: list[float] = []
        self._barrier = ctx.Barrier(size)
        #: Per rank, the ops of the next message and where their spans go.
        self._queued: list[list[tuple]] = [[] for _ in range(size)]
        #: The exchange rings, their size, and the half the next exchange
        #: packs into.
        self._segments: list[_shm.SharedMemory] = []
        self._seg_bytes = self._half = 0
        #: Resident segments and, by the id of the driver's own map of
        #: each, its name and base address.
        self._resident_segs: list[_shm.SharedMemory] = []
        self._maps: dict[int, tuple[str, int, mmap.mmap]] = {}
        #: By (shape, dtype), the maps of results of out-less exchanges
        #: whose arrays the caller dropped: the next such result reuses one.
        self._spare: dict[tuple, list[mmap.mmap]] = {}
        beating = heartbeat_interval is not None and heartbeat_interval > 0
        self.heartbeat_board = HeartbeatBoard(size) if beating else None
        self._boards = [self.heartbeat_board] if beating else []
        hb_name = self.heartbeat_board.name if beating else None
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, name=f"{name}-rank{rank}",
                               args=(rank, child_conn, self._barrier, hb_name,
                                     heartbeat_interval), daemon=True)
            proc.start()
            self._started.append(time.time())
            child_conn.close()
            self._workers.append((proc, parent_conn))
        self._finalizer = weakref.finalize(
            self, _cleanup, self._workers, self._segments, self._boards,
            self._resident_segs)
        flight = current_flight()
        if flight is not None and self.heartbeat_board is not None:
            flight.add_heartbeat_provider(self.heartbeats)
        self.worker_pids = [reply["pid"] for reply in self.worker_claims()]
        self._ensure_capacity(_INITIAL_RING_BYTES)

    # -- worker plumbing ----------------------------------------------------

    def heartbeats(self) -> list[dict]:
        """Per-rank heartbeat records (empty when telemetry is disabled)."""
        board = self.heartbeat_board
        return [] if board is None else board.read_all()

    def live_worker_cpu_seconds(self) -> list[float]:
        """Per-rank worker CPU seconds *right now*, streamed through the
        heartbeat channel — no need to wait for :meth:`close`."""
        board = self.heartbeat_board
        return [] if board is None else board.cpu_seconds()

    def worker_claims(self) -> list[dict]:
        """Per rank: its ``pid``, how many ``buffers`` it has claimed and
        how many shared-memory ``segments`` it has mapped."""
        return [reply["result"] for reply in
                self._broadcast_wait([{"op": "ping"}] * self.size)]

    def _stall_check(self, rank: int) -> None:
        """Raise :class:`WorkerStallError` if the worker is dead or its
        heartbeat older than the stall timeout (a slow worker keeps beating),
        after breaking the barrier for its peers and dumping the flight."""
        board = self.heartbeat_board
        age = board.read_all()[rank]["age_seconds"] if board is not None else None
        if age == float("inf"):  # still importing, or died before its first beat
            age = time.time() - self._started[rank]
        dead = not self._workers[rank][0].is_alive()
        if not dead and (age is None or self.stall_timeout is None
                         or age <= self.stall_timeout):
            return
        self.stalls_detected += 1
        self._barrier.abort()
        ages = [f"{a:.1f}s" if a != float("inf") else "never"
                for a in (board.ages() if board is not None else ())]
        reason = "died" if dead else f"heartbeat silent for {age:.1f}s"
        dump_current_flight(f"procs-stall-rank{rank}")
        raise WorkerStallError(
            f"{self.name}: rank {rank} worker {reason} while the driver "
            f"waited for the workers' replies (per-rank heartbeat ages: {ages})")

    def _replies(self) -> list[dict]:
        """Every worker's reply, or the lowest failed rank's error.  While
        waiting, every rank is checked: one may wait at the barrier for a
        dead peer."""
        pending = {conn: r for r, (_, conn) in enumerate(self._workers)}
        replies: list[dict] = [{}] * self.size
        poll = None if self.stall_timeout is None else min(0.2, self.stall_timeout)
        while pending:
            ready = _ready(list(pending), poll)
            for conn in ready:
                rank = pending.pop(conn)
                try:
                    replies[rank] = conn.recv()
                except (EOFError, OSError):
                    self._workers[rank][0].join(timeout=1.0)
                    self._stall_check(rank)
                    raise
            if not ready:
                for rank in range(self.size):
                    self._stall_check(rank)
        for rank, reply in enumerate(replies):
            if not reply["ok"]:
                raise RuntimeError(
                    f"{self.name}: rank {rank} worker failed:\n{reply['error']}")
        return replies

    def _queue(self, ops: Sequence[dict], sinks: Optional[Sequence] = None) -> None:
        """One op per rank into the next message; ``sinks[r](*span)``."""
        for r, (queue, op) in enumerate(zip(self._queued, ops)):
            queue.append((op, None if sinks is None else sinks[r]))

    def _broadcast_wait(self, ops: Sequence[dict], sinks=None) -> list[dict]:
        """Send one op per worker, behind the ops queued for it, and collect
        every reply.  A broken pipe is a gone worker: the stall it is."""
        if not self._workers:
            raise RuntimeError(f"{self.name}: communicator is closed")
        self._queue(ops, sinks)
        queued, self._queued = self._queued, [[] for _ in range(self.size)]
        # Pickled up front: the writes that wake the workers go back to back.
        payloads = [_ForkingPickler.dumps([op for op, _ in queue]) for queue in queued]
        for rank, ((_, conn), payload) in enumerate(zip(self._workers, payloads)):
            try:
                conn.send_bytes(payload)
            except (BrokenPipeError, OSError):
                self._stall_check(rank)
                raise
        replies = self._replies()
        for queue, reply in zip(queued, replies):
            for (_, sink), spans in zip(queue, reply["spans"]):
                for span in spans if sink is not None else ():
                    sink(*span)
        return replies

    def _ensure_capacity(self, per_worker_bytes: int) -> None:
        """Grow every exchange ring to ``per_worker_bytes``; a queued unpack
        of the old rings runs first in the message attaching the new ones."""
        if per_worker_bytes <= self._seg_bytes:
            return
        nbytes = 1 << max(int(per_worker_bytes) - 1, 1).bit_length()
        new = [_shm.SharedMemory(create=True, size=nbytes) for _ in range(self.size)]
        names = [seg.name for seg in new]
        self._broadcast_wait([{"op": "attach", "names": names}] * self.size)
        old, self._segments[:], self._seg_bytes = list(self._segments), new, nbytes
        for seg in old:
            seg.close()
            seg.unlink()

    def close(self) -> None:
        """Stop the workers and release shared memory (idempotent).  The
        driver's views of resident arrays stay readable."""
        if not self._workers:
            return
        for _, conn in self._workers:
            _quietly(conn.send, "exit")
        for rank, (_, conn) in enumerate(self._workers):
            try:  # past any stale reply (of a message a stall abandoned)
                reply = conn.recv()
                while "cpu_seconds" not in reply:
                    reply = conn.recv()
                self.worker_cpu_seconds.append(float(reply["cpu_seconds"]))
            except (EOFError, OSError):  # gone: its last streamed reading
                if self.heartbeat_board is not None:
                    self.worker_cpu_seconds.append(
                        self.heartbeat_board.read(rank)["cpu_seconds"])
        self._finalizer.detach()
        _cleanup(self._workers, self._segments, self._boards, self._resident_segs)
        self._maps.clear()
        self._spare.clear()
        self.heartbeat_board = None

    def __enter__(self) -> "ProcsComm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- resident arrays and rank calls ----------------------------------------

    def resident(self, shapes: Sequence[Sequence[int]], dtype) -> list[np.ndarray]:
        """Per-rank arrays ``shapes[r]``, each in a shared-memory segment of
        its own that rank ``r``'s worker maps on first use; segments never
        move and live until :meth:`close` (the driver's views outlive it)."""
        self._check_per_rank(shapes)
        return [self._segment_array(shape, dtype) for shape in shapes]

    def _segment_array(self, shape, dtype) -> np.ndarray:
        if not self._workers:
            raise RuntimeError(f"{self.name}: communicator is closed")
        shape, dtype = tuple(int(x) for x in shape), np.dtype(dtype)
        seg = _shm.SharedMemory(
            create=True, size=_aligned(max(int(np.prod(shape)) * dtype.itemsize, 1)))
        # A map of our own: the segment object closes now (its map would
        # refuse to close under exported views) and later only unlinks.
        mm = mmap.mmap(seg._fd, seg.size)  # type: ignore[attr-defined]
        seg.close()
        self._resident_segs.append(seg)
        array = np.ndarray(shape, dtype, buffer=mm)
        self._maps[id(mm)] = (seg.name, array.__array_interface__["data"][0], mm)
        return array

    def _result_array(self, shape, dtype) -> np.ndarray:
        """A resident array for an omitted ``out``: the segment of a dropped
        result of this shape when there is one, else a new segment; spare
        again once the caller drops the array (and every view of it)."""
        key = (tuple(shape), np.dtype(dtype))
        spare = self._spare.setdefault(key, [])
        array = (np.ndarray(*key, buffer=spare.pop()) if spare
                 else self._segment_array(*key))
        weakref.finalize(array, spare.append, array.base).atexit = False
        return array

    def _descriptor(self, a: np.ndarray) -> Optional[_Resident]:
        """``a`` as a message names it, or None when it is not resident."""
        base = a
        while isinstance(base, np.ndarray):
            base = base.base
        entry = self._maps.get(id(base))
        if entry is None:
            return None
        return _Resident(entry[0], a.__array_interface__["data"][0] - entry[1],
                         a.shape, a.strides, a.dtype.str)

    def _encode(self, x, what: str):
        """A rank call's argument tree, arrays as descriptors; what would ship
        bytes or fail to pickle is a ``TypeError`` naming ``what``."""
        if isinstance(x, np.ndarray):
            d = self._descriptor(x)
            if d is None:
                raise TypeError(f"{self.name}: {what} is not a resident array")
            return d
        if isinstance(x, (list, tuple)):
            items = [self._encode(v, what) for v in x]
            return items if isinstance(x, list) else tuple(items)
        if x is None or isinstance(x, (bool, int, float, complex, str, slice,
                                       np.generic, enum.Enum)):
            return x
        if isinstance(x, PointwiseKernel):
            return _Kernel(x.recipe)
        qualname = getattr(x, "__qualname__", None)
        if callable(x) and isinstance(qualname, str):
            if "<" in qualname:
                raise TypeError(
                    f"{self.name}: {what} is {qualname!r}, a lambda or closure "
                    "a worker cannot import; pass a module-level function")
            return x  # pickled by reference: the worker imports it
        raise TypeError(f"{self.name}: {what} is a {type(x).__name__}, "
                        "which cannot cross to a worker process")

    def each_rank(self, fn: Callable, *per_rank_args: Sequence, spans=None,
                  wait: bool = True) -> Optional[list]:
        """``fn(*(a[r] for a in per_rank_args))`` in rank ``r``'s worker,
        all ranks at once; returns the per-rank results (keep them small).
        ``fn`` must be module-level and every array :meth:`resident`.
        ``spans[r]`` (if enabled) gets the worker's timing of rank ``r``'s
        call.  ``wait=False`` queues the calls for the next message: they
        run before its ops, their errors surface there, nothing is returned.
        """
        self._encode(fn, "the function")
        for args in per_rank_args:
            self._check_per_rank(args)
        trace = spans is not None and spans[0].enabled
        msgs = [
            {"op": "call", "fn": fn, "trace": trace, "args": [
                self._encode(a[r], f"argument {i} of rank {r}")
                for i, a in enumerate(per_rank_args)]}
            for r in range(self.size)
        ]
        sinks = [tracer.record for tracer in spans] if trace else None
        if not wait:
            self._queue(msgs, sinks)
            return None
        return [reply["result"] for reply in self._broadcast_wait(msgs, sinks)]

    # -- the all-to-all ------------------------------------------------------

    def rank_transpose(
        self, locals_: Sequence[np.ndarray], pack_axis: int, unpack_axis: int,
        pre: Optional[str] = None, post: Optional[str] = None,
        n: Optional[int] = None, out_dtype=None, fft: Optional[str] = None,
        obs: "Observability | None" = None,
        pack_sizes: Optional[Sequence[int]] = None,
        out: Optional[Sequence[np.ndarray]] = None,
        pairs: Optional[Sequence[tuple[int, int]]] = None, wait: bool = True,
        land: Optional[Sequence[np.ndarray]] = None,
    ) -> list[np.ndarray]:
        """Pre stage + pack -> all-to-all -> unpack + post stage, in the
        workers: the whole slab as one chunk of
        :func:`repro.dist.transpose.chunk_exchange_layout`, bit-identical to
        :func:`repro.dist.transpose.transpose_exchange` and the inline
        stages.  Leading axes (fields ``[field, kz, y, x]``) ride along: one
        exchange per direction.

        ``pack_sizes``: rank r's input has ``pack_sizes[r]`` planes along
        ``unpack_axis``, and the pack splits ``pack_axis`` alike (uneven
        slabs).  ``pairs`` (``post="inv_zx"``) ends the unpack with those
        field pairs' products and their ``fwd_xz``
        (:func:`repro.dist.stages.products`): one spectrum per pair.
        ``locals_``, ``out`` and ``land`` must be :meth:`resident`, as for
        :meth:`each_rank`; an omitted ``out`` is claimed resident, reusing
        the segments of dropped results of its shape.  A post
        stage's input lands in ``land[s]`` when given.  ``wait=False``
        queues the exchange for the next message.  Exchanges alternate ring
        halves; a worker packs exchange k + 2 only past exchange k + 1's
        barrier, which every peer reaches after unpacking exchange k.
        """
        if not self._workers:
            raise RuntimeError(f"{self.name}: communicator is closed")
        for arrays in (locals_, out, land):
            if arrays is not None:
                self._check_per_rank(arrays)
        first, P = locals_[0], self.size
        ps = None if pack_sizes is None else tuple(int(x) for x in pack_sizes)
        if ps is not None and (len(ps) != P or min(ps) < 0):
            raise ValueError(f"{self.name}: pack_sizes {ps} must be {P} extents >= 0")
        for r, loc in enumerate(locals_):
            exp = list(first.shape)
            if ps is not None:
                exp[unpack_axis] = ps[r]
            if list(loc.shape) != exp or loc.dtype != first.dtype:
                raise ValueError(
                    f"{self.name}: rank {r} local {loc.shape}/{loc.dtype} "
                    f"differs from expected {tuple(exp)}/{first.dtype}")
        if pairs is not None and post != "inv_zx":
            raise ValueError("pairs need post='inv_zx' (the products follow it)")
        n = first.shape[pack_axis] if n is None else n
        # Block geometry between the stages follows from the stage table.
        mids, mid_dtype = [tuple(loc.shape) for loc in locals_], first.dtype
        if pre is not None:
            mids = [STAGES[pre].out_shape(shape, n) for shape in mids]
            mid_dtype = STAGES[pre].out_dtype(mid_dtype)
        extent = mids[0][pack_axis]
        if ps is None and extent % P != 0:
            raise ValueError(f"pack axis extent {extent} not divisible by {P}")
        if ps is not None and sum(ps) != extent:
            raise ValueError(f"pack_sizes {ps} sum to {sum(ps)} but the pack "
                             f"axis extent is {extent}")
        # The whole slab is one chunk: each rank's whole unpack extent.
        pack, blocks, windows = chunk_exchange_layout(
            mids, pack_axis, unpack_axis, unpack_axis,
            [slice(0, shape[unpack_axis]) for shape in mids], ps)
        total = sum(shape[unpack_axis] for shape in mids)
        slabs, results = [], []
        for s in range(P):
            slab = list(blocks[0][s])
            slab[unpack_axis] = total
            o_shape, o_dt = slab, mid_dtype
            for stage in (post, "fwd_xz" if pairs is not None else None):
                if stage is not None:
                    o_shape = list(STAGES[stage].out_shape(o_shape, n))
                    o_dt = STAGES[stage].out_dtype(o_dt)
            if pairs is not None:
                o_shape[0] = len(pairs)
            slabs.append(tuple(slab))
            results.append((tuple(o_shape), np.dtype(out_dtype or o_dt)))
        # Every array by its descriptor, before this exchange takes a half.
        srcs = [self._encode(a, f"locals_ of rank {r}") for r, a in enumerate(locals_)]
        lands = ([None] * P if land is None else
                 [self._encode(a, f"land of rank {s}") for s, a in enumerate(land)])
        if out is None:
            out = [self._result_array(*result) for result in results]
        for s, (target, (o_shape, o_dt)) in enumerate(zip(out, results)):
            if target.shape != o_shape or target.dtype != o_dt:
                raise ValueError(
                    f"{self.name}: out[{s}] is {target.shape}/{target.dtype}, "
                    f"the exchange yields {o_shape}/{o_dt}")
        dsts = [self._encode(a, f"out of rank {s}") for s, a in enumerate(out)]

        sizes = [mid_dtype.itemsize * math.prod(b) for row in blocks for b in row]
        stride = _aligned(max(sizes))
        self._ensure_capacity(2 * max(P * stride, 1))
        base, self._half = self._half * self._seg_bytes // 2, 1 - self._half
        obs = obs if obs is not None else NULL_OBS
        sinks = ([partial(obs.spans.record, lane=f"rank{r}.proc") for r in range(P)]
                 if obs.enabled else None)
        common = {"n": int(n), "base": base, "stride": stride, "trace": obs.enabled,
                  "fft": fft if fft is not None else self.fft_backend}
        packs = [{"op": "pack", "src": src, "pre": pre, "pack": pack,
                  "repack": False, **common} for src in srcs]
        unpacks = [
            {"op": "unpack", "out": dsts[s], "land": lands[s], "post": post,
             "pairs": pairs, "shape": slabs[s], "dtype": mid_dtype.str,
             "windows": windows, "blocks": [row[s] for row in blocks], **common}
            for s in range(P)
        ]

        barriers = [{"op": "barrier"}] * P
        self._queue(packs, sinks)
        self._queue(barriers)
        # The barrier is where the collective "happens": draw the fault
        # injector now, in the collective order the in-process comm draws
        # it.  A dropped exchange queues the pack again, alone, and one more
        # barrier — the re-pack/re-post recovery of real MPI retry loops.
        if self.fault_injector is not None:
            def repost(fault) -> None:
                self.fault_retries += 1
                if fault.dropped:
                    self._queue([{**msg, "repack": True} for msg in packs], sinks)
                    self._queue(barriers)

            retry_transient(partial(self.fault_injector.check, "alltoall", self),
                            repost, obs.metrics, obs.spans)
        self._record("alltoall", sizes)

        if wait:
            self._broadcast_wait(unpacks, sinks)
        else:
            self._queue(unpacks, sinks)
        if obs.enabled and self.heartbeat_board is not None:
            # Live per-rank gauges (cpu seconds, heartbeat age, ops) — the
            # cross-process view `repro obs tail` and --report render.
            self.heartbeat_board.export_gauges(obs.metrics)
        return list(out)


# -- factory -------------------------------------------------------------------

COMM_KINDS = ("virtual", "procs")

#: ``make_comm`` kwargs that only the process pool understands.
_PROCS_ONLY = ("fft_backend", "start_method", "heartbeat_interval",
               "stall_timeout")


def make_comm(kind: str, size: int, name: str = "world", **kwargs) -> VirtualComm:
    """Build a communicator backend by name: ``virtual`` — the in-process
    :class:`~repro.dist.virtual_mpi.VirtualComm` (bit-exact reference; the
    process-pool kwargs are accepted and ignored, so one call site serves
    both kinds) — or ``procs`` — :class:`ProcsComm`, one worker process per
    rank (extra kwargs: ``fft_backend``, ``start_method``,
    ``heartbeat_interval``, ``stall_timeout``)."""
    if kind == "virtual":
        extra = {k: v for k, v in kwargs.items() if k not in _PROCS_ONLY}
        if extra:
            raise TypeError(f"unexpected kwargs for virtual comm: {extra}")
        return VirtualComm(size, name=name)
    if kind == "procs":
        return ProcsComm(size, name=name, **kwargs)
    raise ValueError(f"unknown comm kind {kind!r}; choose from {COMM_KINDS}")
