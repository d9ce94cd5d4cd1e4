"""Process-pool comm backend: every rank's data and work in its own process.

:class:`ProcsComm` keeps :class:`VirtualComm`'s collective surface (the
collectives off the hot path are inherited unchanged, which keeps the
``virtual`` vs ``procs`` bit-equality suite meaningful) while each rank
lives in a **worker process**, as in the paper: a rank keeps its slab on its
own device and only the all-to-all crosses ranks.  The driver only conducts,
one message per worker per round:

* **resident arrays** (:meth:`ProcsComm.resident`) are shared-memory
  segments, one per array, unmoved until :meth:`ProcsComm.close`; a message
  names one by a :class:`_Resident` descriptor, never by its bytes;
* :meth:`ProcsComm.each_rank` runs a module-level function on every rank's
  resident arrays in the workers; only small results come back;
* :meth:`ProcsComm.rank_transpose` is the all-to-all: a packing round fills
  each rank's **exchange ring** (a per-worker segment that grows on
  demand), the driver consults the fault injector, and an unpacking round
  copies slot *s* of every peer's ring into rank *s*'s transposed slab.
  The :data:`repro.dist.stages.STAGES` FFTs (and a substage's products)
  ride in those rounds, into buffers each worker claims once.
"""

from __future__ import annotations

import enum
import mmap
import os
import time
import traceback
import weakref
from multiprocessing import get_all_start_methods, get_context
from multiprocessing import shared_memory as _shm
from multiprocessing.reduction import ForkingPickler as _ForkingPickler
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

import numpy as np

from repro.dist.stages import STAGES, products
from repro.dist.virtual_mpi import CollectiveRecord, TransientCommFault, VirtualComm
from repro.obs.flight import current_flight, dump_current_flight
from repro.obs.heartbeat import HeartbeatBoard, HeartbeatWriter
from repro.spectral.pointwise import PointwiseKernel

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["COMM_KINDS", "ProcsComm", "WorkerStallError", "make_comm"]


class WorkerStallError(RuntimeError):
    """A rank worker went silent (dead, or heartbeat older than the stall
    timeout) while the driver was waiting on the barrier for its reply."""

_ALIGN = 64


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


def _window(ndim: int, axis: int, start: int, extent: int) -> tuple:
    index = [slice(None)] * ndim
    index[axis] = slice(start, start + extent)
    return tuple(index)


def _quietly(fn, *args) -> None:
    try:
        fn(*args)
    except Exception:  # pragma: no cover - already gone
        pass


# -- the worker process --------------------------------------------------------


def _attach_segment(name: str, start_method: str) -> _shm.SharedMemory:
    seg = _shm.SharedMemory(name=name)
    # Attaching registers the segment with a resource tracker.  Forked
    # workers share the driver's (started before forking; a set, so the
    # duplicate is harmless).  Spawned workers get private trackers that
    # would unlink driver-owned memory at their exit: drop those.
    if start_method != "fork":  # pragma: no cover - spawn/forkserver only
        from multiprocessing import resource_tracker

        _quietly(resource_tracker.unregister, seg._name, "shared_memory")
    return seg


class _Worker:
    """Rank ``rank``'s side: every rank's exchange ring, the resident
    segments it has attached, and the buffers it claims once per role."""

    def __init__(self, rank: int, start_method: str):
        self.rank = rank
        self.start_method = start_method
        self.rings: list[_shm.SharedMemory] = []
        self.attached: dict[str, _shm.SharedMemory] = {}
        self.claimed: dict[tuple, np.ndarray] = {}
        self.kernels: dict[tuple, PointwiseKernel] = {}

    def array(self, d: _Resident) -> np.ndarray:
        if 0 in d.shape:  # a height-0 rank's slab: nothing to address
            return np.empty(d.shape, d.dtype)
        seg = self.attached.get(d.name)
        if seg is None:
            seg = self.attached[d.name] = _attach_segment(d.name, self.start_method)
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
        if op == "attach":
            for seg in self.rings:
                seg.close()
            self.rings = [_attach_segment(nm, self.start_method) for nm in msg["names"]]
            return None
        if op == "ping":
            return {"pid": os.getpid(), "buffers": len(self.claimed),
                    "segments": len(self.attached) + len(self.rings)}
        raise ValueError(f"unknown op {op!r}")

    def pack(self, msg: dict, lf, spans: list) -> None:
        """The pre stage into a claimed buffer (skipped on a re-pack, which
        reads what the first dispatch left there), then one block per peer
        into this rank's ring."""
        mid = src = self.array(msg["src"])
        pre, t0 = msg["pre"], time.perf_counter()
        if pre is not None:
            stage = STAGES[pre]
            mid = self.claim("mid", stage.out_shape(src.shape, msg["n"]),
                             stage.out_dtype(src.dtype))
            if not msg["repack"]:
                stage.fn(src, msg["n"], lf, out=mid)
                spans.append((f"proc.{pre}", "fft", t0, time.perf_counter()))
        t1, edge = time.perf_counter(), 0
        for dst, ext in enumerate(msg["exts"]):
            block = mid[_window(mid.ndim, msg["axis"], edge, ext)]
            edge += ext
            np.copyto(self.slot(self.rank, dst, block.shape, block.dtype, msg),
                      block)
        spans.append(("proc.pack", "pack", t1, time.perf_counter()))

    def unpack(self, msg: dict, lf, spans: list) -> None:
        """Slot ``rank`` of every peer's ring into its window of the
        transposed slab (claimed once; ``out`` itself without a post
        stage), then the post stage — or the products — into ``out``."""
        out = self.array(msg["out"])
        post, n, axis = msg["post"], msg["n"], msg["axis"]
        block, dtype = list(msg["block"]), msg["dtype"]
        t0, edge, shape = time.perf_counter(), 0, list(block)
        shape[axis] = sum(msg["exts"])
        dst = out if post is None else self.claim("transposed", shape, dtype)
        for src, ext in enumerate(msg["exts"]):
            block[axis] = ext
            np.copyto(dst[_window(dst.ndim, axis, edge, ext)],
                      self.slot(src, self.rank, block, dtype, msg))
            edge += ext
        t1 = time.perf_counter()
        spans.append(("proc.unpack", "pack", t0, t1))
        if post is None:
            return
        stage = STAGES[post]
        if msg["pairs"] is None:
            stage.fn(dst, n, lf, out=out)
        else:
            fields = stage.out_shape(dst.shape, n)
            work = self.claim("work", (fields[0] + 1, *fields[1:]),
                              stage.out_dtype(dst.dtype))
            products(dst, n, lf, out, work, msg["pairs"])
        spans.append((f"proc.{post}", "fft", t1, time.perf_counter()))


def _worker_main(rank: int, size: int, conn, start_method: str,
                 hb_name: Optional[str] = None,
                 hb_interval: float = 0.2) -> None:
    """Worker loop.  A message is the ops queued for this rank since the
    last one, then its own; the reply carries the last op's result.  With a
    heartbeat board, a thread beats this rank's slot every ``hb_interval``
    seconds and every message marks progress (:mod:`repro.obs.heartbeat`)."""
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
    worker = _Worker(rank, start_method)
    while True:
        msg = conn.recv()
        if msg == "exit":
            if heartbeat is not None:
                heartbeat.stop()
            conn.send({"ok": True, "cpu_seconds": time.process_time()})
            break
        try:
            spans, result = [], None
            for op in msg["ops"]:
                result = worker.run(op, resolve_fft, spans)
            if heartbeat is not None:
                heartbeat.mark_progress()
            conn.send({"ok": True, "result": result,
                       "spans": spans if msg["trace"] else []})
        except Exception:
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
    arena_bytes:
        Initial per-worker exchange-ring size, grown on demand.
    start_method:
        ``multiprocessing`` start method; default ``$REPRO_PROCS_START``,
        else ``fork`` (cheap, inherits the imported interpreter) where
        available, else ``spawn``.
    fault_retry_budget:
        Attempts per exchange when a driver-side fault injector raises
        :class:`~repro.dist.virtual_mpi.TransientCommFault`; must exceed
        the plan's ``max_consecutive`` for recovery to be guaranteed.
    heartbeat_interval:
        Worker heartbeat period in seconds (see :mod:`repro.obs.heartbeat`);
        ``None`` disables the telemetry channel entirely.
    stall_timeout:
        Seconds of heartbeat silence (or a dead worker process) after
        which a barrier wait raises :class:`WorkerStallError` — after
        dumping the installed flight recorder — instead of blocking
        forever.  Defaults to ``$REPRO_PROCS_STALL`` or 30 s; ``None``
        restores the old wait-forever behaviour.
    """

    kind = "procs"

    def __init__(
        self, size: int, name: str = "world", fft_backend: str = "numpy",
        arena_bytes: int = 1 << 20, start_method: Optional[str] = None,
        fault_retry_budget: int = 4, heartbeat_interval: Optional[float] = 0.2,
        stall_timeout: Optional[float] = None,
    ):
        super().__init__(size, name=name)
        self.fft_backend = fft_backend
        self.fault_retry_budget = int(fault_retry_budget)
        self.fault_retries = 0
        self.worker_cpu_seconds: list[float] = []
        if stall_timeout is None:
            stall_timeout = float(os.environ.get("REPRO_PROCS_STALL") or 30.0)
        self.stall_timeout = stall_timeout if stall_timeout > 0 else None
        self.stalls_detected = 0
        start_method = start_method or os.environ.get("REPRO_PROCS_START") or (
            "fork" if "fork" in get_all_start_methods() else "spawn")
        self._start_method = start_method
        ctx = get_context(start_method)
        if start_method == "fork":
            # Every worker then inherits the one tracker (see _attach_segment).
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        self._workers: list[tuple] = []
        #: Per rank, ops sent with the next message (``wait=False``).
        self._queued: list[list[dict]] = [[] for _ in range(size)]
        #: The exchange rings, their size, and the half the next exchange
        #: packs into.
        self._segments: list[_shm.SharedMemory] = []
        self._seg_bytes = self._half = 0
        #: Resident segments and, by the id of the driver's own map of
        #: each, its name and base address.
        self._resident_segs: list[_shm.SharedMemory] = []
        self._maps: dict[int, tuple[str, int, mmap.mmap]] = {}
        #: Resident stand-ins for caller arrays that are not resident.
        self._staged: dict[tuple, np.ndarray] = {}
        beating = heartbeat_interval is not None and heartbeat_interval > 0
        self.heartbeat_board = HeartbeatBoard(size) if beating else None
        self._boards = [self.heartbeat_board] if beating else []
        hb_name = self.heartbeat_board.name if beating else None
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, name=f"{name}-rank{rank}",
                               args=(rank, size, child_conn, start_method,
                                     hb_name, heartbeat_interval), daemon=True)
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        self._finalizer = weakref.finalize(
            self, _cleanup, self._workers, self._segments, self._boards,
            self._resident_segs)
        flight = current_flight()
        if flight is not None and self.heartbeat_board is not None:
            flight.add_heartbeat_provider(self.heartbeats)
        self.worker_pids = [reply["pid"] for reply in self.worker_claims()]
        self._ensure_capacity(arena_bytes)

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
        """Raise :class:`WorkerStallError` if the awaited worker is dead or
        its heartbeat older than the stall timeout (a slow worker keeps
        beating), after dumping the installed flight recorder."""
        proc, _ = self._workers[rank]
        board = self.heartbeat_board
        age = board.read_all()[rank]["age_seconds"] if board is not None else None
        dead = not proc.is_alive()
        if not dead and (age is None or self.stall_timeout is None
                         or age <= self.stall_timeout):
            return
        self.stalls_detected += 1
        ages = [f"{a:.1f}s" if a != float("inf") else "never"
                for a in (board.ages() if board is not None else ())]
        reason = "died" if dead else f"heartbeat silent for {age:.1f}s"
        dump_current_flight(f"procs-stall-rank{rank}")
        raise WorkerStallError(
            f"{self.name}: rank {rank} worker {reason} while the driver "
            f"waited on the barrier (per-rank heartbeat ages: {ages})")

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
                f"{self.name}: rank {rank} worker failed:\n{reply.get('error')}")
        return reply

    def _broadcast_wait(self, ops: Sequence[dict]) -> list[dict]:
        """Send one op per worker, behind the ops queued for it, then
        collect every reply (the workers run concurrently).  A broken pipe
        means the worker is gone: surface it as the stall it is."""
        if not self._workers:
            raise RuntimeError(f"{self.name}: communicator is closed")
        # Pickled up front: the writes that wake the workers go back to back.
        payloads = [
            _ForkingPickler.dumps({"ops": [*queue, op], "trace": op.get("trace")})
            for queue, op in zip(self._queued, ops)]
        for queue in self._queued:
            queue.clear()
        for rank, ((_, conn), payload) in enumerate(zip(self._workers, payloads)):
            try:
                conn.send_bytes(payload)
            except (BrokenPipeError, OSError):
                self._stall_check(rank)
                raise
        return [self._reply(r) for r in range(self.size)]

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
        self._queued = [[] for _ in range(self.size)]
        for _, conn in self._workers:
            _quietly(conn.send, "exit")
        for rank, (_, conn) in enumerate(self._workers):
            try:
                # Drain stale replies (of an aborted round) until the exit
                # reply with the final cpu reading arrives.
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
                        self.heartbeat_board.read(rank)["cpu_seconds"])
            self._workers[rank][0].join(timeout=2.0)
        self._finalizer.detach()
        _cleanup(self._workers, self._segments, self._boards, self._resident_segs)
        self._maps.clear()
        self._staged.clear()
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
        call.  ``wait=False`` sends the calls with the next message: they
        run before its op, their errors surface there, nothing is returned.
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
        if not wait:
            for queue, msg in zip(self._queued, msgs):
                queue.append(msg)
            return None
        replies = self._broadcast_wait(msgs)
        if trace:
            for tracer, reply in zip(spans, replies):
                for span in reply["spans"]:
                    tracer.record(*span)
        return [reply["result"] for reply in replies]

    def _addressable(self, role: str, r: int, a: np.ndarray, copy_in: bool):
        """``(descriptor, stand-in)``: ``a``'s own descriptor, or that of a
        resident stand-in claimed once per role, rank, shape and dtype."""
        d = self._descriptor(a)
        if d is not None:
            return d, None
        key = (role, r, a.shape, a.dtype.str)
        stand_in = self._staged.get(key)
        if stand_in is None:
            stand_in = self._staged[key] = self._segment_array(a.shape, a.dtype)
        if copy_in:
            np.copyto(stand_in, a)
        return self._descriptor(stand_in), stand_in

    # -- the all-to-all ------------------------------------------------------

    def rank_transpose(
        self, locals_: Sequence[np.ndarray], pack_axis: int, unpack_axis: int,
        pre: Optional[str] = None, post: Optional[str] = None,
        n: Optional[int] = None, out_dtype=None, fft: Optional[str] = None,
        kind: str = "alltoall", obs: "Observability | None" = None,
        pack_sizes: Optional[Sequence[int]] = None,
        out: Optional[Sequence[np.ndarray]] = None,
        pairs: Optional[Sequence[tuple[int, int]]] = None, wait: bool = True,
    ) -> list[np.ndarray]:
        """Pre stage + pack -> all-to-all -> unpack + post stage, in the
        workers; bit-identical to :func:`repro.dist.transpose.pack_blocks`,
        :meth:`VirtualComm.alltoall` and the inline stages.  Leading axes
        (fields ``[field, kz, y, x]``) ride along: one exchange per direction.

        ``pack_sizes``: rank r's input has ``pack_sizes[r]`` planes along
        ``unpack_axis``, and the pack splits ``pack_axis`` alike (uneven
        slabs).  ``pairs`` (``post="inv_zx"``) ends the unpack with those
        field pairs' products and their ``fwd_xz``
        (:func:`repro.dist.stages.products`): one spectrum per pair.
        Resident ``locals_``/``out`` are used in place, others through
        resident stand-ins.  ``wait=False`` (resident ``out``) queues the
        unpack to run first in the next message; consecutive exchanges use
        alternate ring halves, so it never meets the next pack's bytes.
        """
        if not self._workers:
            raise RuntimeError(f"{self.name}: communicator is closed")
        self._check_per_rank(locals_)
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
        mid_shape, mid_dtype = tuple(first.shape), first.dtype
        if pre is not None:
            mid_shape = STAGES[pre].out_shape(mid_shape, n)
            mid_dtype = STAGES[pre].out_dtype(mid_dtype)
        if ps is None:
            if mid_shape[pack_axis] % P != 0:
                raise ValueError(f"pack axis extent {mid_shape[pack_axis]} not "
                                 f"divisible by {P}")
            pack_exts = (mid_shape[pack_axis] // P,) * P
            unpack_exts = (mid_shape[unpack_axis],) * P
        elif sum(ps) != mid_shape[pack_axis]:
            raise ValueError(f"pack_sizes {ps} sum to {sum(ps)} but the pack "
                             f"axis extent is {mid_shape[pack_axis]}")
        else:
            pack_exts = unpack_exts = ps
        # The r -> s block is base_bytes x s's pack x r's unpack extent.
        base_bytes = mid_dtype.itemsize * int(np.prod(
            [e for ax, e in enumerate(mid_shape) if ax not in (pack_axis, unpack_axis)]))
        stride = _aligned(base_bytes * max(unpack_exts) * max(pack_exts))
        self._ensure_capacity(2 * max(P * stride, 1))
        base, self._half = self._half * self._seg_bytes // 2, 1 - self._half

        trace = obs is not None and obs.enabled
        common = {"n": int(n), "base": base, "stride": stride, "trace": trace,
                  "fft": fft if fft is not None else self.fft_backend}
        packs = [
            {"op": "pack", "src": self._addressable("in", r, loc, True)[0],
             "pre": pre, "axis": pack_axis, "exts": pack_exts, "repack": False,
             **common}
            for r, loc in enumerate(locals_)
        ]
        unpacks, staged = [], []
        for s in range(P):
            block = list(mid_shape)
            block[pack_axis] = pack_exts[s]
            o_shape, o_dt = list(block), mid_dtype
            o_shape[unpack_axis] = sum(unpack_exts)
            for stage in (post, "fwd_xz" if pairs is not None else None):
                if stage is not None:
                    o_shape = list(STAGES[stage].out_shape(o_shape, n))
                    o_dt = STAGES[stage].out_dtype(o_dt)
            if pairs is not None:
                o_shape[0] = len(pairs)
            o_dt = np.dtype(out_dtype or o_dt)
            target = out[s] if out is not None else np.empty(o_shape, o_dt)
            if target.shape != tuple(o_shape) or target.dtype != o_dt:
                raise ValueError(
                    f"{self.name}: out[{s}] is {target.shape}/{target.dtype}, "
                    f"the exchange yields {tuple(o_shape)}/{o_dt}")
            d, stand_in = self._addressable("out", s, target, copy_in=False)
            staged.append((stand_in, target))
            unpacks.append(
                {"op": "unpack", "out": d, "post": post, "pairs": pairs,
                 "block": tuple(block), "dtype": mid_dtype.str,
                 "axis": unpack_axis, "exts": unpack_exts, **common})

        rounds = [self._broadcast_wait(packs)]
        # The barrier between pack and unpack is where the collective
        # "happens": consult the fault injector here, exactly where the
        # in-process comm does.  A dropped exchange re-dispatches the pack
        # alone — the re-pack/re-post recovery real MPI retry loops perform.
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
                    rounds.append(self._broadcast_wait(
                        [{**msg, "repack": True} for msg in packs]))
        sizes = [base_bytes * unpack_exts[r] * pack_exts[s]
                 for r in range(P) for s in range(P)]
        self.stats.records.append(CollectiveRecord(
            kind, total_bytes=sum(sizes), p2p_bytes=max(sizes), ranks=P,
            p2p_min_bytes=min(sizes), p2p_max_bytes=max(sizes),
            messages=len(sizes)))

        if wait or any(stand_in is not None for stand_in, _ in staged):
            rounds.append(self._broadcast_wait(unpacks))
        else:
            for queue, msg in zip(self._queued, unpacks):
                queue.append(msg)
        for stand_in, target in staged:
            if stand_in is not None:
                np.copyto(target, stand_in)
        if trace:
            for replies in rounds:
                for r, reply in enumerate(replies):
                    for span in reply["spans"]:
                        obs.spans.record(*span, lane=f"rank{r}.proc")
            if self.heartbeat_board is not None:
                # Live per-rank gauges (cpu seconds, heartbeat age, ops) —
                # the cross-process view `repro obs tail` and --report render.
                self.heartbeat_board.export_gauges(obs.metrics)
        return [target for _, target in staged]


# -- factory -------------------------------------------------------------------

COMM_KINDS = ("virtual", "procs")

#: ``make_comm`` kwargs that only the process pool understands.
_PROCS_ONLY = ("fft_backend", "arena_bytes", "start_method",
               "heartbeat_interval", "stall_timeout")


def make_comm(kind: str, size: int, name: str = "world", **kwargs) -> VirtualComm:
    """Build a communicator backend by name: ``virtual`` — the in-process
    :class:`~repro.dist.virtual_mpi.VirtualComm` (bit-exact reference; the
    process-pool kwargs are accepted and ignored, so one call site serves
    both kinds) — or ``procs`` — :class:`ProcsComm`, one worker process per
    rank (extra kwargs: ``fft_backend``, ``arena_bytes``, ``start_method``,
    ``heartbeat_interval``, ``stall_timeout``)."""
    if kind == "virtual":
        extra = {k: v for k, v in kwargs.items() if k not in _PROCS_ONLY}
        if extra:
            raise TypeError(f"unexpected kwargs for virtual comm: {extra}")
        return VirtualComm(size, name=name)
    if kind == "procs":
        return ProcsComm(size, name=name, **kwargs)
    raise ValueError(f"unknown comm kind {kind!r}; choose from {COMM_KINDS}")
