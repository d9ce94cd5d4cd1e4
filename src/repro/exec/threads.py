"""Host-thread-backed streams: real NumPy work, genuine overlap.

One daemon worker thread per stream drains a FIFO of operations — exactly a
CUDA stream's contract.  Because NumPy's pocketfft transforms and
``np.copyto`` release the GIL for the bulk of their work, operations on
*different* streams (copy-in of pencil ``ip+1``, transform of ``ip``,
copy-out of ``ip-1``) execute concurrently on real cores, which is what
turns the paper's Fig. 4 schedule from a model into a measurement.

Failure semantics: an operation that raises poisons its stream — its own
event completes carrying the exception, and every subsequent operation on
that stream completes immediately with :class:`DependencyFailed` without
running.  A ``wait_event`` on a failed event likewise poisons the waiting
stream.  All events therefore always fire (no deadlock on error) and
:meth:`ThreadBackend.synchronize` re-raises the root cause.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Optional

from repro.exec.api import DependencyFailed, Event, ExecBackend, Stream
from repro.obs import NULL_OBS

__all__ = ["ThreadBackend", "ThreadEvent", "ThreadStream"]

_STOP = object()


class ThreadEvent(Event):
    """Completion flag set by the worker; carries the op's exception."""

    __slots__ = ("_flag", "_exception", "name")

    def __init__(self, name: str = "op"):
        self._flag = threading.Event()
        self._exception: Optional[BaseException] = None
        self.name = name

    @property
    def done(self) -> bool:
        return self._flag.is_set()

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def wait(self, timeout: Optional[float] = None) -> None:
        if not self._flag.wait(timeout):
            raise TimeoutError(f"event {self.name!r} not done after {timeout}s")
        if self._exception is not None:
            raise self._exception

    # -- worker side ---------------------------------------------------------

    def _complete(self, exception: Optional[BaseException] = None) -> None:
        self._exception = exception
        self._flag.set()


class _Op:
    __slots__ = ("name", "category", "fn", "meta", "event", "dep")

    def __init__(self, name, category, fn, meta, event, dep=None):
        self.name = name
        self.category = category
        self.fn = fn
        self.meta = meta
        self.event = event
        self.dep = dep


class ThreadStream(Stream):
    """FIFO of operations drained by one dedicated worker thread."""

    __slots__ = ("name", "lane", "_spans", "_queue", "_worker", "_poison")

    def __init__(self, name: str, lane: str, spans):
        self.name = name
        self.lane = lane
        self._spans = spans
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._poison: Optional[BaseException] = None
        self._worker = threading.Thread(
            target=self._run, name=f"exec-{lane}", daemon=True
        )
        self._worker.start()

    # -- submission (any thread) --------------------------------------------

    def submit(
        self,
        name: str,
        category: str,
        fn: Optional[Callable[[], object]] = None,
        **meta: object,
    ) -> ThreadEvent:
        event = ThreadEvent(name)
        self._queue.put(_Op(name, category, fn, meta, event))
        return event

    def wait_event(self, event: Event) -> None:
        self._queue.put(_Op(f"wait[{getattr(event, 'name', 'event')}]",
                            "sync", None, {}, ThreadEvent("wait"), dep=event))

    def synchronize(self) -> None:
        marker = self.submit("synchronize", "sync")
        marker.wait()

    def stop(self) -> None:
        self._queue.put(_STOP)
        self._worker.join(timeout=30.0)

    # -- worker loop ---------------------------------------------------------

    def _run(self) -> None:
        while True:
            op = self._queue.get()
            if op is _STOP:
                return
            if op.dep is not None:  # a cross-stream wait barrier
                dep = op.dep
                if isinstance(dep, ThreadEvent):
                    dep._flag.wait()
                else:  # foreign (e.g. sync) events are complete by contract
                    try:
                        dep.wait()
                    except BaseException:  # noqa: BLE001 - read below
                        pass
                exc = dep.exception
                if exc is not None and self._poison is None:
                    self._poison = DependencyFailed(
                        f"stream {self.name!r}: dependency "
                        f"{getattr(op.dep, 'name', 'event')!r} failed"
                    )
                    self._poison.__cause__ = exc
                op.event._complete(self._poison)
                continue
            if self._poison is not None or op.fn is None:
                op.event._complete(self._poison)
                continue
            try:
                with self._spans.span(op.name, category=op.category, **op.meta):
                    op.fn()
            except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
                self._poison = exc
                op.event._complete(exc)
            else:
                op.event._complete(None)


class ThreadBackend(ExecBackend):
    """One worker thread per named stream; spans per stream lane."""

    __slots__ = ("obs", "_streams")

    kind = "threads"

    def __init__(self, obs=None):
        self.obs = obs if obs is not None else NULL_OBS
        self._streams: dict[str, ThreadStream] = {}

    def stream(self, name: str) -> ThreadStream:
        if name not in self._streams:
            self.obs.spans.ensure_epoch()
            lane = f"stream.{name}"
            self._streams[name] = ThreadStream(
                name, lane, self.obs.spans.child(lane)
            )
        return self._streams[name]

    def synchronize(self) -> None:
        errors: list[BaseException] = []
        for stream in self._streams.values():
            try:
                stream.synchronize()
            except BaseException as exc:  # noqa: BLE001 - collected below
                errors.append(exc)
        if errors:
            # Prefer the root cause over cascaded DependencyFailed wrappers.
            for exc in errors:
                if not isinstance(exc, DependencyFailed):
                    raise exc
            raise errors[0]

    def drain_obs(self) -> None:
        if not self.obs.enabled:
            return
        for stream in self._streams.values():
            self.obs.spans.merge(stream._spans)
            stream._spans.clear()

    def reset(self) -> None:
        """Replace poisoned streams with fresh ones (same names)."""
        poisoned = [n for n, s in self._streams.items() if s._poison is not None]
        for name in poisoned:
            self._streams.pop(name).stop()

    def shutdown(self) -> None:
        self.drain_obs()
        for stream in self._streams.values():
            stream.stop()
        self._streams.clear()
