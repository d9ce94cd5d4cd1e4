"""Fault-capable communication shim for :class:`repro.dist.VirtualComm`.

The paper's chunked all-to-all overlaps communication with compute; the
failure modes that matter there are a chunk arriving *late* (the wait must
simply be reissued on the same handle) and a chunk being *dropped* (the
exchange must be re-packed and re-posted from the unchanged source pencils).
:class:`CommFaultPlan` injects both, seeded, by raising
:class:`~repro.dist.virtual_mpi.TransientCommFault` from
``VirtualComm._exchange`` *before any bytes move* — so a retry observes a
pristine exchange, which is what makes the one retry/backoff loop,
:func:`repro.dist.virtual_mpi.retry_transient`, sound for both engines.

``max_consecutive`` bounds how many times in a row the plan will fail, so
every injected fault is genuinely transient as long as the retries exceed
it (:data:`~repro.dist.virtual_mpi.EXCHANGE_ATTEMPTS` is 4: 3 retries > the
default bound 2).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.dist.virtual_mpi import CommFaultInjector, TransientCommFault

__all__ = ["CommFaultPlan"]


class CommFaultPlan(CommFaultInjector):
    """Seeded drop/late fault plan attached via ``comm.fault_injector``.

    Parameters
    ----------
    seed:
        Generator seed; draws happen in collective-call order, which the
        out-of-core engine makes deterministic (one FIFO comm stream).
    drop_rate / late_rate:
        Per-call probabilities.  A *drop* (``dropped=True``) means the
        posted exchange is lost — the caller must re-pack and re-post; a
        *late* fault (``dropped=False``) means the wait timed out — the
        caller re-waits the same handle.
    kinds:
        Which collective kinds can fault (default: only the non-blocking
        ``ialltoall`` path the pipeline uses).
    max_consecutive:
        Hard bound on back-to-back failures, guaranteeing transience.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_rate: float = 0.0,
        late_rate: float = 0.0,
        kinds: tuple[str, ...] = ("ialltoall",),
        max_consecutive: int = 2,
    ):
        self.drop_rate = float(drop_rate)
        self.late_rate = float(late_rate)
        self.kinds = tuple(kinds)
        self.max_consecutive = int(max_consecutive)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._consecutive = 0
        self.injected = 0
        self.dropped = 0
        self.late = 0

    # The plan must cross process boundaries (the process-pool backend can
    # ship comm state to spawned workers, and schedule-exploration manifests
    # serialize plans).  Locks don't pickle; the Generator does — bit-exact,
    # so a round-tripped plan replays the identical fault sequence.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def check(self, kind: str, comm) -> None:
        if kind not in self.kinds:
            return
        with self._lock:
            if self._consecutive >= self.max_consecutive:
                # Forced success: every fault sequence terminates.
                self._consecutive = 0
                return
            u = float(self._rng.random())
            if u < self.drop_rate:
                self._consecutive += 1
                self.injected += 1
                self.dropped += 1
                raise TransientCommFault(
                    f"injected dropped {kind} exchange "
                    f"({comm.size} ranks, #{self.injected})",
                    dropped=True,
                )
            if u < self.drop_rate + self.late_rate:
                self._consecutive += 1
                self.injected += 1
                self.late += 1
                raise TransientCommFault(
                    f"injected late {kind} completion "
                    f"({comm.size} ranks, #{self.injected})",
                    dropped=False,
                )
            self._consecutive = 0
