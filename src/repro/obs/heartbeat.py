"""Cross-process heartbeat channel over one small shared-memory board.

The PR 6 :class:`~repro.mpi.procs.ProcsComm` workers are separate address
spaces: until now the driver learned nothing about them between dispatch
and reply — a wedged worker meant a barrier that never returned and a
blank terminal.  This module is the fix: a tiny fixed-layout shared-memory
segment (the **board**) with one 64-byte slot per rank, written by a
daemon thread inside each worker (the **writer**) and read at will by the
driver (no locks, no syscalls, no pickles on the hot path).

Each slot is six little float64 fields guarded by a seqlock::

    [seq | wall_ts | cpu_seconds | ops_completed | beats | last_progress_ts]

* ``seq`` — odd while a write is in flight; readers retry on odd or
  changed sequence numbers, so torn reads are detected, not locked away;
* ``wall_ts`` — ``time.time()`` of the last beat: its age is the liveness
  signal (a worker wedged in C code without releasing the GIL stops its
  heartbeat thread, and the age grows);
* ``cpu_seconds`` — ``time.process_time()`` of the worker, streamed live
  (the driver exports it as a ``rank<r>.cpu_seconds`` gauge instead of
  waiting for ``close()``);
* ``ops_completed`` / ``last_progress_ts`` — bumped after every completed
  stage dispatch: distinguishes *alive but idle* from *making progress*.

The board is driver-owned: the driver creates and unlinks the segment;
workers attach it as they attach the data rings, registering it with the
driver's own resource tracker (see :class:`repro.mpi.procs._Worker`).
"""

from __future__ import annotations

import threading
import time
from multiprocessing import shared_memory as _shm
from typing import Callable, Optional

import numpy as np

__all__ = ["HeartbeatBoard", "HeartbeatWriter", "SLOT_FIELDS"]

#: Field names, in slot order.
SLOT_FIELDS = ("seq", "wall_ts", "cpu_seconds", "ops_completed", "beats",
               "last_progress_ts")
_SLOT_FLOATS = 8  # six fields + padding to one 64-byte cache line
_SLOT_BYTES = _SLOT_FLOATS * 8


class HeartbeatBoard:
    """Driver side: create the board, read slots, detect stalls."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("board needs at least one rank slot")
        self.size = int(size)
        self._shm = _shm.SharedMemory(create=True,
                                      size=self.size * _SLOT_BYTES)
        self._slots = np.ndarray((self.size, _SLOT_FLOATS), dtype=np.float64,
                                 buffer=self._shm.buf)
        self._slots[:] = 0.0

    @property
    def name(self) -> str:
        """Segment name workers attach their writers to."""
        return self._shm.name

    # -- reading ------------------------------------------------------------

    def read(self, rank: int, retries: int = 8) -> dict:
        """One rank's latest consistent heartbeat record."""
        slot = self._slots[rank]
        for _ in range(retries):
            s1 = slot[0]
            values = slot[1:len(SLOT_FIELDS)].copy()
            s2 = slot[0]
            if s1 == s2 and int(s1) % 2 == 0:
                break
        rec = dict(zip(SLOT_FIELDS[1:], (float(v) for v in values)))
        rec["rank"] = rank
        rec["seq"] = int(s2)
        return rec

    def read_all(self, now: Optional[float] = None) -> list[dict]:
        """Every rank's record, each with a derived ``age_seconds``.

        ``age_seconds`` is ``inf`` for a rank that never beat — brand-new
        workers that die before their first beat must look stalled, not
        freshly alive.
        """
        now = time.time() if now is None else now
        out = []
        for rank in range(self.size):
            rec = self.read(rank)
            rec["age_seconds"] = (
                now - rec["wall_ts"] if rec["beats"] > 0 else float("inf")
            )
            out.append(rec)
        return out

    def ages(self, now: Optional[float] = None) -> list[float]:
        return [rec["age_seconds"] for rec in self.read_all(now=now)]

    def stalled(self, threshold: float, now: Optional[float] = None) -> list[int]:
        """Ranks whose heartbeat is older than ``threshold`` seconds."""
        return [
            rec["rank"] for rec in self.read_all(now=now)
            if rec["age_seconds"] > threshold
        ]

    def cpu_seconds(self) -> list[float]:
        """Live per-rank worker CPU seconds (0.0 before the first beat)."""
        return [self.read(rank)["cpu_seconds"] for rank in range(self.size)]

    def export_gauges(self, metrics, now: Optional[float] = None) -> None:
        """Publish per-rank gauges into a metrics registry.

        ``rank<r>.cpu_seconds`` / ``rank<r>.heartbeat_age_seconds`` /
        ``rank<r>.ops_completed`` — the live cross-process view the tail
        and report commands render.
        """
        for rec in self.read_all(now=now):
            r = rec["rank"]
            metrics.gauge(f"rank{r}.cpu_seconds").set(rec["cpu_seconds"])
            age = rec["age_seconds"]
            metrics.gauge(f"rank{r}.heartbeat_age_seconds").set(
                age if age != float("inf") else -1.0
            )
            metrics.gauge(f"rank{r}.ops_completed").set(rec["ops_completed"])

    # -- lifecycle ----------------------------------------------------------

    def close(self, unlink: bool = True) -> None:
        """Release (and by default unlink) the segment; idempotent."""
        if self._shm is None:
            return
        self._slots = None
        try:
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        self._shm = None


class HeartbeatWriter:
    """Worker side: beat one slot periodically and on every progress mark.

    Parameters
    ----------
    name:
        Board segment name (from :attr:`HeartbeatBoard.name`).
    rank:
        Slot to write (never touches other ranks' cache lines).
    interval:
        Background beat period in seconds.
    cpu_clock / wall_clock:
        Injectable time sources for deterministic tests.
    """

    def __init__(
        self,
        name: str,
        rank: int,
        interval: float = 0.2,
        cpu_clock: Callable[[], float] = time.process_time,
        wall_clock: Callable[[], float] = time.time,
    ):
        self.rank = int(rank)
        self.interval = float(interval)
        self.cpu_clock = cpu_clock
        self.wall_clock = wall_clock
        self._shm = _shm.SharedMemory(name=name)
        self._slot = np.ndarray(
            (_SLOT_FLOATS,), dtype=np.float64, buffer=self._shm.buf,
            offset=self.rank * _SLOT_BYTES,
        )
        self._lock = threading.Lock()
        self._ops = 0
        self._beats = 0
        self._last_progress = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def beat(self) -> None:
        """Write one consistent heartbeat (seqlock write protocol)."""
        with self._lock:
            slot = self._slot
            if slot is None:  # pragma: no cover - beat after stop
                return
            self._beats += 1
            seq = int(slot[0])
            slot[0] = seq + 1  # odd: write in flight
            slot[1] = self.wall_clock()
            slot[2] = self.cpu_clock()
            slot[3] = self._ops
            slot[4] = self._beats
            slot[5] = self._last_progress
            slot[0] = seq + 2  # even: consistent

    def mark_progress(self, ops: int = 1) -> None:
        """Record completed work (one stage dispatch) and beat."""
        self._ops += int(ops)
        self._last_progress = self.wall_clock()
        self.beat()

    def start(self) -> "HeartbeatWriter":
        """Start the periodic background beat thread (daemon)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=f"heartbeat-rank{self.rank}",
                daemon=True,
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        self.beat()
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self) -> None:
        """Final beat, stop the thread, detach from the board; idempotent."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        if self._shm is not None:
            self.beat()
            with self._lock:
                self._slot = None
                self._shm.close()
                self._shm = None
