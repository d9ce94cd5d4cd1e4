"""Inline (synchronous) execution backend — the bit-exact reference oracle.

Every :meth:`SyncStream.submit` runs its operation immediately on the
calling thread, so a schedule executed here performs *exactly* the same
NumPy operations in submission order with zero concurrency.  The threaded
backend must produce bit-identical arrays to this one (asserted by the
determinism suite) — same ops, same data, different interleaving.

Spans are still recorded per stream lane, so even a synchronous run renders
one timeline row per logical stream (they just never overlap).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exec.api import Event, ExecBackend, ExecError, Stream
from repro.obs import NULL_OBS

__all__ = ["SyncBackend", "SyncEvent", "SyncStream"]


class SyncEvent(Event):
    """Already-completed event (inline ops finish inside ``submit``)."""

    __slots__ = ("_exception",)

    def __init__(self, exception: Optional[BaseException] = None):
        self._exception = exception

    @property
    def done(self) -> bool:
        return True

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def wait(self, timeout: Optional[float] = None) -> None:
        if self._exception is not None:
            raise self._exception


class SyncStream(Stream):
    __slots__ = ("name", "lane", "_spans")

    def __init__(self, name: str, lane: str, spans):
        self.name = name
        self.lane = lane
        self._spans = spans

    def submit(
        self,
        name: str,
        category: str,
        fn: Optional[Callable[[], object]] = None,
        **meta: object,
    ) -> Event:
        if fn is not None:
            with self._spans.span(name, category=category, **meta):
                fn()
        return SyncEvent()

    def wait_event(self, event: Event) -> None:
        # Inline execution completes each op inside submit(): a pending
        # event here means the schedule references work never submitted.
        if not event.done:
            raise ExecError(
                f"stream {self.name!r}: wait on an event that cannot "
                "complete under inline execution"
            )
        if event.exception is not None:
            raise event.exception

    def synchronize(self) -> None:
        return None


class SyncBackend(ExecBackend):
    """Streams that execute inline on the calling thread."""

    __slots__ = ("obs", "_streams", "_children")

    kind = "sync"

    def __init__(self, obs=None):
        self.obs = obs if obs is not None else NULL_OBS
        self._streams: dict[str, SyncStream] = {}
        self._children: dict[str, object] = {}

    def stream(self, name: str) -> SyncStream:
        if name not in self._streams:
            lane = f"stream.{name}"
            child = self.obs.spans.child(lane)
            self._children[name] = child
            self._streams[name] = SyncStream(name, lane, child)
        return self._streams[name]

    def synchronize(self) -> None:
        return None

    def drain_obs(self) -> None:
        if not self.obs.enabled:
            return
        for child in self._children.values():
            self.obs.spans.merge(child)
            child.clear()

    def reset(self) -> None:
        return None

    def shutdown(self) -> None:
        self.drain_obs()
        self._streams.clear()
        self._children.clear()
