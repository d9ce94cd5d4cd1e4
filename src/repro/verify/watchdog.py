"""Deadlock watchdog for fuzzed and schedule-explored runs.

A scheduling bug in the event graph shows up as a *hang*, not an exception
— a worker blocked forever on an event nobody will set.  Tests can't afford
to hang CI, so :func:`watchdog` bounds any block of code with a hard
wall-clock limit, implemented with a timer thread that interrupts the main
thread (``_thread.interrupt_main``) and converts the resulting
``KeyboardInterrupt`` into :class:`DeadlockTimeout`.

This works even when the main thread is blocked in
``threading.Event.wait()`` (as the exec backends are during
``synchronize``), because CPython checks for pending interrupts when the
wait's internal lock acquisition returns — the waits used by the backends
are all timeout-sliced internally or interruptible on the main thread.

There is a tiny residual race: if the timer fires in the same instant the
protected block exits normally, the interrupt can land just after the
``with`` block.  The guard flag confines that window to the context
manager's own ``finally``, where it is absorbed.
"""

from __future__ import annotations

import _thread
import threading
from contextlib import contextmanager

__all__ = ["DeadlockTimeout", "watchdog"]


class DeadlockTimeout(RuntimeError):
    """The watchdog expired: the protected block is presumed deadlocked."""


@contextmanager
def watchdog(seconds: float, label: str = "fuzzed run"):
    """Interrupt the main thread if the block runs longer than ``seconds``.

    Must be used from the main thread (``interrupt_main`` targets it).
    ``seconds`` must be positive: a timer that fires as it starts leaves
    nothing to bound.
    """
    if not seconds > 0:
        raise ValueError(f"watchdog seconds must be positive, got {seconds!r}")
    state = {"expired": False, "done": False}
    lock = threading.Lock()

    def fire():
        with lock:
            if state["done"]:
                return
            state["expired"] = True
        _thread.interrupt_main()

    timer = threading.Timer(seconds, fire)
    timer.daemon = True
    try:
        # Inside the try: a timer that fires while its thread starts must
        # still surface as DeadlockTimeout.
        timer.start()
        yield
    except KeyboardInterrupt:
        if state["expired"]:
            # The run is presumed hung: leave a post-mortem (ring of recent
            # spans, open spans, heartbeat ages) before surfacing the
            # timeout.  The dump runs on the main thread *after* the
            # interrupt landed, so it cannot deadlock on the hung state.
            from repro.obs.flight import dump_current_flight

            dump_current_flight(f"deadlock-{label.replace(' ', '-')}")
            raise DeadlockTimeout(
                f"{label} exceeded {seconds:.1f}s watchdog — presumed deadlock"
            ) from None
        raise
    finally:
        with lock:
            state["done"] = True
        timer.cancel()
