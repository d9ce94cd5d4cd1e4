"""Bulk-synchronous virtual MPI: collectives over per-rank NumPy arrays.

A :class:`VirtualComm` of size P represents P ranks living in one process.
Rank-local data is held as a list indexed by rank; collectives are pure
functions from per-rank inputs to per-rank outputs.  This gives exact
bit-level reproducibility and lets tests inspect global state freely, while
keeping the code structured exactly like its message-passing counterpart
(pack -> alltoall -> unpack).

Byte accounting: every collective records the total bytes exchanged and the
true per-peer message sizes (min/max over every (src, dst) pair, not just
``send[0][0]``), so the functional layer can be cross-checked against the
cost model's message-size bookkeeping (:mod:`repro.mpi.costmodel`) even for
uneven decompositions.

Aliasing contract: collectives return *independent* per-rank results.  An
in-place edit on one rank's ``allreduce`` / ``alltoall`` result never
mutates another rank's — the semantics every real MPI has (each rank owns
its receive buffer), and the contract the process-pool backend
(:mod:`repro.mpi.procs`) enforces physically with separate address spaces.

Transient faults: both engines' exchanges recover through one loop,
:func:`retry_transient`, with one budget, :data:`EXCHANGE_ATTEMPTS`.
"""

from __future__ import annotations

import copy as _copy
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = [
    "EXCHANGE_ATTEMPTS",
    "CollectiveRecord",
    "CommFaultInjector",
    "PendingAlltoall",
    "TransientCommFault",
    "VirtualComm",
    "call_rank",
    "retry_transient",
]

T = TypeVar("T")


def call_rank(fn: Callable, per_rank_args: Sequence[Sequence], r: int, spans=None):
    """Rank ``r``'s share of an ``each_rank`` call, in this process: ``fn``
    on the ``r``-th entry of every argument, inside one ``pointwise`` span
    on ``spans[r]`` when tracers are given."""
    args = [a[r] for a in per_rank_args]
    if spans is None:
        return fn(*args)
    with spans[r].span(fn.__name__.lstrip("_"), category="pointwise"):
        return fn(*args)


class TransientCommFault(RuntimeError):
    """A collective failed in a way a retry can recover from.

    ``dropped`` distinguishes the two injected failure shapes of the
    verification subsystem (:mod:`repro.verify.faults`): a *dropped* chunk
    means the posted send evaporated — the caller must re-pack and re-post
    the exchange; a *late* chunk (``dropped=False``) means the request is
    still live — waiting the same handle again succeeds.
    """

    def __init__(self, message: str, dropped: bool = False):
        super().__init__(message)
        self.dropped = dropped


#: Attempts of one exchange under transient faults: the first and three
#: retries.  A :class:`repro.verify.faults.CommFaultPlan` fails at most
#: ``max_consecutive`` (default 2) times in a row, so it always recovers.
EXCHANGE_ATTEMPTS = 4
#: The first backoff between attempts, in seconds, doubled per retry.
_RETRY_BACKOFF = 0.002


def retry_transient(attempt: Callable[[], T],
                    on_fault: Callable[[TransientCommFault], None],
                    metrics, spans) -> T:
    """``attempt()`` until it returns, at most :data:`EXCHANGE_ATTEMPTS` times.

    A :class:`TransientCommFault` counts ``comm.faults.transient`` on
    ``metrics`` (the last attempt's propagates); ``on_fault(fault)`` then
    re-posts what it lost (a dropped exchange is packed again, a late one
    only waited again), a backoff doubled per retry sleeps in a
    ``verify.retry`` span on ``spans``, and ``comm.retries`` counts the
    retry.  A success after faults counts ``comm.faults.recovered``.
    """
    delay, tries = _RETRY_BACKOFF, 1
    while True:
        try:
            result = attempt()
        except TransientCommFault as fault:
            metrics.counter("comm.faults.transient").inc()
            if tries == EXCHANGE_ATTEMPTS:
                raise
            on_fault(fault)
            with spans.span("verify.retry", category="verify",
                            attempt=tries, dropped=fault.dropped):
                time.sleep(delay)
            delay, tries = delay * 2.0, tries + 1
            metrics.counter("comm.retries").inc()
            continue
        if tries > 1:
            metrics.counter("comm.faults.recovered").inc()
        return result


class CommFaultInjector:
    """Hook interface consulted by :class:`VirtualComm` before collectives.

    The default implementation injects nothing; the verification subsystem
    registers a seeded :class:`repro.verify.faults.CommFaultPlan` on
    ``comm.fault_injector`` to make exchanges fail transiently.
    """

    def check(self, kind: str, comm: "VirtualComm") -> None:
        """Called before a collective of ``kind`` moves bytes; may raise
        :class:`TransientCommFault` to make this attempt fail."""


@dataclass(frozen=True)
class CollectiveRecord:
    """One logged collective operation.

    ``p2p_bytes`` is the *largest* per-peer message (for balanced exchanges
    every message has this size, preserving the historical meaning);
    ``p2p_min_bytes`` / ``p2p_max_bytes`` bound the true per-peer sizes so
    uneven decompositions are accounted honestly, and ``messages`` counts
    the point-to-point messages behind the collective.
    """

    kind: str
    total_bytes: int
    p2p_bytes: int
    ranks: int
    p2p_min_bytes: int = 0
    p2p_max_bytes: int = 0
    messages: int = 0

    @property
    def uniform(self) -> bool:
        """True when every per-peer message had the same size."""
        return self.p2p_min_bytes == self.p2p_max_bytes


def _copy_result(value: T) -> T:
    """An independent copy of one rank's collective result.

    ndarrays are copied with NumPy (cheap, exact); other objects take a
    ``deepcopy``, mirroring what a real MPI's pickle round trip would
    produce.  Immutable builtins round-trip to themselves.
    """
    if isinstance(value, np.ndarray):
        return np.array(value, copy=True)  # type: ignore[return-value]
    return _copy.deepcopy(value)


@dataclass
class _CommStats:
    records: list[CollectiveRecord] = field(default_factory=list)

    def count(self, kind: str | None = None) -> int:
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r.kind == kind)


class PendingAlltoall:
    """Handle for a posted non-blocking all-to-all (``MPI_IALLTOALL``).

    Mirrors the request-object contract the paper's production code relies
    on to overlap communication with pencil transforms: ``post`` captures
    the send buffers (they must stay untouched until completion, exactly as
    MPI requires), :meth:`wait` completes the exchange and returns the
    received blocks.  Completion is idempotent; bytes are accounted to the
    communicator's stats at completion time under kind ``"ialltoall"``.
    With ``recv`` the blocks land in the caller's receive windows (see
    :meth:`VirtualComm.ialltoall`) and :meth:`wait` returns those.
    """

    __slots__ = ("_comm", "_send", "_recv", "_windows")

    def __init__(
        self,
        comm: "VirtualComm",
        send: Sequence[Sequence[np.ndarray]],
        recv: Sequence[Sequence[np.ndarray]] | None = None,
    ):
        comm._check_alltoall(send, recv)
        self._comm = comm
        self._send: Sequence[Sequence[np.ndarray]] | None = send
        self._windows = recv
        self._recv: Sequence[Sequence[np.ndarray]] | None = None

    @property
    def complete(self) -> bool:
        return self._recv is not None

    def wait(self) -> Sequence[Sequence[np.ndarray]]:
        """Complete the exchange; ``recv[s][r] = send[r][s]`` (copies)."""
        if self._recv is None:
            assert self._send is not None
            self._recv = self._comm._exchange(
                self._send, kind="ialltoall", recv=self._windows
            )
            self._send = None  # send buffers may be reused from here on
        return self._recv


class VirtualComm:
    """A communicator over ``size`` in-process virtual ranks."""

    def __init__(self, size: int, name: str = "world"):
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = size
        self.name = name
        self.stats = _CommStats()
        #: Optional :class:`CommFaultInjector`; consulted before exchanges.
        self.fault_injector: CommFaultInjector | None = None

    def _record(self, kind: str, sizes: Sequence[int]) -> None:
        """Log a collective from the bytes of its point-to-point messages:
        their true min/max, not ``send[0][0]``'s (uneven slabs differ), so
        the cost model's message-size bookkeeping can be cross-checked."""
        self.stats.records.append(CollectiveRecord(
            kind, total_bytes=sum(sizes), p2p_bytes=max(sizes), ranks=self.size,
            p2p_min_bytes=min(sizes), p2p_max_bytes=max(sizes),
            messages=len(sizes)))

    def _check_per_rank(self, data: Sequence) -> None:
        if len(data) != self.size:
            raise ValueError(
                f"{self.name}: expected {self.size} per-rank entries, got {len(data)}"
            )

    # -- collectives -----------------------------------------------------------

    def _check_alltoall(
        self,
        send: Sequence[Sequence[np.ndarray]],
        recv: Sequence[Sequence[np.ndarray]] | None = None,
    ) -> None:
        for per_rank in (send, recv) if recv is not None else (send,):
            self._check_per_rank(per_rank)
            for r, bufs in enumerate(per_rank):
                if len(bufs) != self.size:
                    raise ValueError(
                        f"{self.name}: rank {r} provided {len(bufs)} blocks, "
                        f"expected {self.size}"
                    )
        if recv is None:
            return
        sent = [b for bufs in send for b in bufs]
        for s, windows in enumerate(recv):
            for r, window in enumerate(windows):
                block = send[r][s]
                if window.shape != block.shape or window.dtype != block.dtype:
                    raise ValueError(
                        f"{self.name}: rank {s}'s receive window for rank {r} "
                        f"is {window.shape}/{window.dtype} but rank {r} sends "
                        f"{block.shape}/{block.dtype}"
                    )
                if any(np.shares_memory(window, b) for b in sent):
                    raise ValueError(
                        f"{self.name}: rank {s}'s receive window for rank {r} "
                        "overlaps a send block (MPI forbids aliased buffers)"
                    )

    def _exchange(
        self,
        send: Sequence[Sequence[np.ndarray]],
        kind: str,
        recv: Sequence[Sequence[np.ndarray]] | None = None,
    ) -> Sequence[Sequence[np.ndarray]]:
        # Fault injection happens *before* any byte moves, so a failed
        # attempt leaves no partial state and the same exchange can be
        # retried (late chunk) or re-posted (dropped chunk).
        if self.fault_injector is not None:
            self.fault_injector.check(kind, self)
        if recv is None:
            recv = [
                [_copy_result(send[r][s]) for r in range(self.size)]
                for s in range(self.size)
            ]
        else:
            for s, windows in enumerate(recv):
                for r, window in enumerate(windows):
                    np.copyto(window, send[r][s])
        self._record(kind, [int(b.nbytes) for bufs in send for b in bufs])
        return recv

    def alltoall(self, send: Sequence[Sequence[np.ndarray]]) -> list[list[np.ndarray]]:
        """All-to-all: ``send[r][s]`` travels from rank r to rank s.

        Returns ``recv`` with ``recv[s][r] = send[r][s]`` (copies, so later
        in-place edits on either side cannot alias).
        """
        self._check_alltoall(send)
        return self._exchange(send, kind="alltoall")

    def ialltoall(
        self,
        send: Sequence[Sequence[np.ndarray]],
        recv: Sequence[Sequence[np.ndarray]] | None = None,
    ) -> PendingAlltoall:
        """Post a non-blocking all-to-all; complete it with ``.wait()``.

        The send blocks must not be modified (or reused) until :meth:`PendingAlltoall.wait` returns — the same aliasing
        contract as a real ``MPI_IALLTOALL`` request.

        ``recv`` hands over the receive side, in NumPy's ``out=`` sense:
        ``recv[s][r]`` is the (possibly strided) window of rank ``s``'s own
        memory where rank ``r``'s block lands, so nothing is allocated and
        nothing needs unpacking afterwards.  A window whose shape or dtype
        differs from its block, or that overlaps any send block, is a
        ``ValueError`` at post time, before any byte moves.
        """
        return PendingAlltoall(self, send, recv)

    def allreduce(self, values: Sequence[T]) -> list[T]:
        """All-reduce by addition; every rank gets the sum.

        Every rank receives an *independent copy* of the reduction — an
        in-place edit on one rank's result leaves the others (and the
        inputs) untouched, exactly as with per-process receive buffers.
        """
        self._check_per_rank(values)
        acc = values[0]
        for v in values[1:]:
            acc = acc + v
        self._record("allreduce", [int(getattr(v, "nbytes", 0)) for v in values])
        return [_copy_result(acc) for _ in range(self.size)]
