"""Deterministic discrete-event simulation engine.

The engine maintains a priority queue of timestamped callbacks and a notion of
*processes*: Python generators that model concurrent activities by yielding
wait conditions.  This is the same execution model as SimPy, implemented here
from scratch (the reproduction builds every substrate it depends on) and kept
deliberately small: the CUDA-stream and MPI models only need timeouts,
one-shot signals and conjunction/disjunction waits.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Interrupt",
    "Process",
    "Signal",
    "SimulationError",
    "Timeout",
]


class SimulationError(RuntimeError):
    """Raised for structural errors in a simulation (deadlock, reuse, ...)."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupts."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Wait condition: resume the yielding process after ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"negative timeout {delay!r}")
        self.delay = float(delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeout({self.delay:g})"


class Signal:
    """A one-shot event that processes can wait on.

    A :class:`Signal` starts *pending*; calling :meth:`fire` makes it
    *triggered* and resumes every waiter.  Firing twice is an error — this
    mirrors CUDA events, MPI request completion and similar one-shot
    happenings.  A signal may carry a ``value`` delivered to waiters.
    """

    __slots__ = ("engine", "name", "_fired", "value", "_waiters", "fire_time")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.name = name
        self._fired = False
        self.value: Any = None
        self.fire_time: Optional[float] = None
        self._waiters: list[Callable[["Signal"], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    def fire(self, value: Any = None) -> None:
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self.value = value
        self.fire_time = self.engine.now
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(self)

    def add_callback(self, callback: Callable[["Signal"], None]) -> None:
        """Invoke ``callback(self)`` when fired (immediately if already fired)."""
        if self._fired:
            callback(self)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self._fired else "pending"
        return f"Signal({self.name!r}, {state})"


class AllOf:
    """Wait condition satisfied when every child signal has fired."""

    __slots__ = ("signals",)

    def __init__(self, signals: Iterable[Signal]):
        self.signals = tuple(signals)


class AnyOf:
    """Wait condition satisfied when at least one child signal has fired."""

    __slots__ = ("signals",)

    def __init__(self, signals: Iterable[Signal]):
        self.signals = tuple(signals)
        if not self.signals:
            raise ValueError("AnyOf requires at least one signal")


ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running simulation process wrapping a generator.

    The generator may yield:

    * :class:`Timeout` — sleep for simulated seconds;
    * :class:`Signal` — wait until the signal fires (``.value`` is sent in);
    * :class:`AllOf` / :class:`AnyOf` — composite waits;
    * another :class:`Process` — wait for it to finish (its return value is
      sent in);
    * ``None`` — yield control, resume in the same timestep (after already
      scheduled events at the current time).

    A process completing normally fires :attr:`done` with its return value.
    An uncaught exception in a process propagates out of :meth:`Engine.run`.
    """

    __slots__ = ("engine", "name", "generator", "done", "_alive", "_wait_id")

    def __init__(self, engine: "Engine", generator: ProcessGenerator, name: str = ""):
        self.engine = engine
        self.name = name or getattr(generator, "__name__", "process")
        self.generator = generator
        self.done = Signal(engine, name=f"{self.name}.done")
        self._alive = True
        # Monotonic wait token: resume callbacks capture the token current
        # when the wait was installed, so a stale wake-up (e.g. the timeout
        # of a wait that an interrupt cancelled) is ignored.
        self._wait_id = 0
        engine._schedule(0.0, self._resume, None)

    @property
    def alive(self) -> bool:
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self._alive:
            return
        self.engine._schedule(0.0, self._throw, Interrupt(cause))

    # -- internal ---------------------------------------------------------

    def _throw(self, exc: BaseException) -> None:
        if not self._alive:
            return
        self._wait_id += 1  # cancel whatever the process was waiting on
        try:
            yielded = self.generator.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt:
            # Process chose not to handle the interrupt: treat as completion.
            self._finish(None)
            return
        self._handle_yield(yielded)

    def _resume(self, send_value: Any, wait_id: Optional[int] = None) -> None:
        if not self._alive:
            return
        if wait_id is not None and wait_id != self._wait_id:
            return  # stale wake-up from a cancelled wait
        try:
            yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._handle_yield(yielded)

    def _finish(self, value: Any) -> None:
        self._alive = False
        self.done.fire(value)

    def _handle_yield(self, yielded: Any) -> None:
        engine = self.engine
        self._wait_id += 1
        wid = self._wait_id

        def resume(value: Any) -> None:
            self._resume(value, wid)

        if yielded is None:
            engine._schedule(0.0, resume, None)
        elif isinstance(yielded, Timeout):
            engine._schedule(yielded.delay, resume, None)
        elif isinstance(yielded, Signal):
            yielded.add_callback(lambda sig: resume(sig.value))
        elif isinstance(yielded, Process):
            yielded.done.add_callback(lambda sig: resume(sig.value))
        elif isinstance(yielded, AllOf):
            self._wait_all(yielded.signals, resume)
        elif isinstance(yielded, AnyOf):
            self._wait_any(yielded.signals, resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {yielded!r}"
            )

    def _wait_all(
        self, signals: tuple[Signal, ...], resume: Callable[[Any], None]
    ) -> None:
        remaining = sum(1 for s in signals if not s.fired)
        if remaining == 0:
            self.engine._schedule(
                0.0, lambda _: resume([s.value for s in signals]), None
            )
            return
        state = {"remaining": remaining}

        def on_fire(_sig: Signal) -> None:
            state["remaining"] -= 1
            if state["remaining"] == 0:
                resume([s.value for s in signals])

        for s in signals:
            if not s.fired:
                s.add_callback(on_fire)

    def _wait_any(
        self, signals: tuple[Signal, ...], resume: Callable[[Any], None]
    ) -> None:
        state = {"done": False}

        def on_fire(sig: Signal) -> None:
            if state["done"]:
                return
            state["done"] = True
            resume(sig.value)

        for s in signals:
            s.add_callback(on_fire)
            if state["done"]:
                return

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, alive={self._alive})"


class Engine:
    """The simulation clock and event queue.

    Examples
    --------
    >>> eng = Engine()
    >>> def proc():
    ...     yield Timeout(1.5)
    ...     return "finished"
    >>> p = eng.process(proc())
    >>> eng.run()
    >>> eng.now
    1.5
    >>> p.done.value
    'finished'
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._counter = itertools.count()
        self._running = False

    # -- public API --------------------------------------------------------

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Launch ``generator`` as a new simulation process."""
        return Process(self, generator, name=name)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot :class:`Signal` bound to this engine."""
        return Signal(self, name=name)

    def timeout_signal(self, delay: float, name: str = "") -> Signal:
        """A signal that fires automatically after ``delay`` seconds."""
        sig = Signal(self, name=name)
        self._schedule(delay, lambda _=None: sig.fire(), None)
        return sig

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute simulated time ``when`` (>= now)."""
        if when < self.now:
            raise SimulationError(f"call_at({when}) is in the past (now={self.now})")
        self._schedule(when - self.now, lambda _=None: callback(), None)

    def call_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` simulated seconds."""
        self._schedule(delay, lambda _=None: callback(), None)

    def run(self, until: Optional[float] = None) -> None:
        """Execute events until the queue drains or ``until`` is reached."""
        if self._running:
            raise SimulationError("engine.run() re-entered")
        self._running = True
        try:
            while self._queue:
                when, _seq, callback, arg = self._queue[0]
                if until is not None and when > until:
                    self.now = until
                    return
                heapq.heappop(self._queue)
                if when < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event scheduled in the past")
                self.now = when
                callback(arg)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    # -- internal ----------------------------------------------------------

    def _schedule(self, delay: float, callback: Callable[[Any], None], arg: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heapq.heappush(
            self._queue, (self.now + delay, next(self._counter), callback, arg)
        )
