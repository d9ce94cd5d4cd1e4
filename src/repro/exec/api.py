"""Backend-neutral stream/event execution interface (paper Sec. 3.4).

The paper schedules its out-of-core pencil batches on two CUDA streams with
events enforcing cross-stream order (Fig. 4).  This module defines that
vocabulary — :class:`Stream` (a FIFO of operations), :class:`Event`
(record / wait) — *independently of what executes the operations*, so the
same schedule runs on:

* worker threads doing real NumPy work (:mod:`repro.exec.threads` —
  FFTs and ``np.copyto`` release the GIL, so different pencils' copy-in,
  compute, and copy-out genuinely overlap);
* the calling thread, inline (:mod:`repro.exec.sync` — the bit-exact
  reference oracle: identical operations, fully serialized).

The performance model (:mod:`repro.core.executor`) writes the same schedule
as simulation processes of its own; the two planes share the span
categories (``h2d`` / ``fft`` / ``d2h`` / ``mpi``) and nothing else — see
DESIGN.md section 10.

Semantics (mirroring the CUDA model reproduced in :mod:`repro.cuda.runtime`):

* operations submitted to one stream run in order, one at a time;
* operations in different streams may overlap;
* cross-stream ordering exists only where :meth:`Stream.wait_event` names
  an :class:`Event` returned by an earlier :meth:`Stream.submit`.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = [
    "DependencyFailed",
    "Event",
    "ExecBackend",
    "ExecError",
    "Stream",
]


class ExecError(RuntimeError):
    """Structural error in the execution runtime (misuse, failed op)."""


class DependencyFailed(ExecError):
    """An operation was skipped because an operation it waited on failed."""


class Event:
    """Completion marker for one submitted operation.

    ``done`` says whether the operation finished (successfully *or* with an
    error); ``wait()`` blocks until then and re-raises the operation's
    exception, if any.
    """

    __slots__ = ()

    @property
    def done(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def exception(self) -> Optional[BaseException]:  # pragma: no cover
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None) -> None:  # pragma: no cover
        raise NotImplementedError


class Stream:
    """An in-order queue of operations on one executor lane.

    ``lane`` is the obs/trace lane name; every operation submitted here is
    recorded as a span on that lane, which is what makes exported timelines
    show one row per stream.
    """

    __slots__ = ()

    name: str
    lane: str

    def submit(
        self,
        name: str,
        category: str,
        fn: Optional[Callable[[], object]] = None,
        **meta: object,
    ) -> Event:  # pragma: no cover - interface
        """Append an operation; returns its completion event.

        The backend executes ``fn`` (a zero-argument callable; ``None`` is
        a pure ordering marker).  ``meta`` rides into the recorded span.
        """
        raise NotImplementedError

    def wait_event(self, event: Event) -> None:  # pragma: no cover
        """Subsequent operations on this stream wait for ``event``."""
        raise NotImplementedError

    def synchronize(self) -> None:  # pragma: no cover - interface
        """Block until every submitted operation completed; re-raise errors."""
        raise NotImplementedError


class ExecBackend:
    """Factory and lifecycle owner for a set of named streams."""

    __slots__ = ()

    #: "threads" | "sync" (a verify wrapper reports the backend it wraps).
    kind: str

    def stream(self, name: str) -> Stream:  # pragma: no cover - interface
        """Get or create the named stream (stable identity per name)."""
        raise NotImplementedError

    def synchronize(self) -> None:  # pragma: no cover - interface
        """Drain every stream; raises the first operation error."""
        raise NotImplementedError

    def drain_obs(self) -> None:
        """Fold per-stream span lanes back into the shared tracer (no-op
        unless the backend records spans into child tracers)."""

    def reset(self) -> None:
        """Discard poisoned streams so the backend can be reused after an
        operation error (fresh FIFOs, same backend object)."""

    def shutdown(self) -> None:
        """Release worker resources; the backend must not be used after."""
