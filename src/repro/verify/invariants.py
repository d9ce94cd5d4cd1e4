"""Runtime invariant checking for the out-of-core buffer discipline.

The paper's pipeline correctness rests on resource discipline the event
graph is supposed to enforce: the 27 persistent device buffers are claimed
once and recycled across batches, and a ring slot must never be rewritten
while an earlier batch's operations on it are still in flight.
:class:`InvariantMonitor` turns those rules into assertions evaluated
*during* fuzzed runs, via hooks on :class:`repro.cuda.arena.DeviceArena`,
the views of its :class:`repro.cuda.arena.PencilRings`, and (through
:class:`repro.verify.fuzz.FuzzBackend`) every stream operation:

* a buffer is never leased twice concurrently from the arena;
* arena ``in_use`` never exceeds capacity, and nothing stays leased once
  the engine holding the ring has closed;
* a ring slot is never re-viewed for item *j* while operations of the
  previous occupant *i = j - window* are still live;
* no two items further than the in-flight window apart run concurrently.

The monitor keeps *strong references* to live buffers, so a
recycled ``id()`` can never alias a dead buffer into a false positive.
All hooks take one lock and append violations; with
``raise_on_violation=True`` (the default) the first violation raises
:class:`InvariantViolation` inside the offending operation — poisoning the
fuzzed pipeline exactly where the discipline broke.
"""

from __future__ import annotations

import threading
from typing import Optional

__all__ = ["InvariantMonitor", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A buffer-discipline or scheduling invariant was broken."""


class InvariantMonitor:
    """Assertion hooks shared by arena, rings, and fuzzed streams."""

    def __init__(self, window: Optional[int] = None, raise_on_violation: bool = True):
        self.window = window
        self.raise_on_violation = raise_on_violation
        self.violations: list[str] = []
        self.checks = 0
        self._lock = threading.RLock()
        # id -> strong ref: prevents id() recycling from confusing the maps.
        self._arena_live: dict[int, object] = {}
        # (role, slot) -> (item, live-op count snapshot key)
        self._ring_slots: dict[tuple[str, int], int] = {}
        # item -> number of currently-running stream ops tagged with it
        self._live_ops: dict[int, int] = {}
        self.max_in_use = 0
        self.max_concurrent_items = 0

    # -- plumbing ------------------------------------------------------------

    def configure(self, window: Optional[int] = None) -> None:
        """Late-bind parameters the owner only knows at construction time."""
        if window is not None:
            self.window = int(window)

    def _violate(self, message: str) -> None:
        self.violations.append(message)
        if self.raise_on_violation:
            raise InvariantViolation(message)

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- DeviceArena hooks ---------------------------------------------------

    def on_arena_allocate(self, buf, nbytes: int, in_use: int, capacity: int) -> None:
        with self._lock:
            self.checks += 1
            key = id(buf)
            if key in self._arena_live:
                self._violate(
                    f"arena leased buffer 0x{key:x} ({nbytes} B) twice "
                    "without an intervening free"
                )
            self._arena_live[key] = buf
            self.max_in_use = max(self.max_in_use, in_use)
            if in_use > capacity:
                self._violate(
                    f"arena in_use {in_use} exceeds capacity {capacity}"
                )

    def on_arena_free(self, buf, in_use: int) -> None:
        with self._lock:
            self.checks += 1
            key = id(buf)
            if key not in self._arena_live:
                self._violate(
                    f"arena freed buffer 0x{key:x} it does not hold live"
                )
            else:
                del self._arena_live[key]
            if in_use < 0:
                self._violate(f"arena in_use went negative ({in_use})")

    # -- PencilRings hooks ---------------------------------------------------

    def on_ring_view(self, role: str, slot: int, item: int) -> None:
        with self._lock:
            self.checks += 1
            prev = self._ring_slots.get((role, slot))
            if prev is not None and prev != item:
                # Re-viewing the slot for a new item is the recycling the
                # window exists for — but only once the previous occupant's
                # operations have all completed.
                if self._live_ops.get(prev, 0) > 0:
                    self._violate(
                        f"ring slot {role}[{slot}] re-viewed for item {item} "
                        f"while item {prev} still has "
                        f"{self._live_ops[prev]} operation(s) in flight"
                    )
            self._ring_slots[(role, slot)] = item

    # -- stream-op hooks (via FuzzBackend) -----------------------------------

    def on_op_begin(self, stream: str, name: str, item: int) -> None:
        with self._lock:
            self.checks += 1
            self._live_ops[item] = self._live_ops.get(item, 0) + 1
            live_items = [i for i, n in self._live_ops.items() if n > 0]
            self.max_concurrent_items = max(
                self.max_concurrent_items, len(live_items)
            )
            if self.window is not None:
                for other in live_items:
                    if other <= item - self.window:
                        self._violate(
                            f"op {name!r} on stream {stream!r} began for item "
                            f"{item} while item {other} is still live — "
                            f"violates in-flight window {self.window}"
                        )

    def on_op_end(self, stream: str, name: str, item: int) -> None:
        with self._lock:
            self.checks += 1
            n = self._live_ops.get(item, 0) - 1
            if n <= 0:
                self._live_ops.pop(item, None)
                if n < 0:
                    self._violate(
                        f"op {name!r} ended for item {item} that had no "
                        "running operations"
                    )
            else:
                self._live_ops[item] = n

    # -- end-of-run assertions -----------------------------------------------

    def assert_quiescent(self) -> None:
        """After a run's engine closed: every lease returned (the ring's
        included), every operation completed."""
        with self._lock:
            if self._arena_live:
                self._violate(
                    f"{len(self._arena_live)} arena buffer(s) still leased "
                    "at quiescence"
                )
            live = {i: n for i, n in self._live_ops.items() if n > 0}
            if live:
                self._violate(
                    f"operations still live at quiescence: {live}"
                )

    def summary(self) -> dict:
        with self._lock:
            return {
                "checks": self.checks,
                "violations": list(self.violations),
                "max_in_use": self.max_in_use,
                "max_concurrent_items": self.max_concurrent_items,
            }
