"""Schedule exploration: replay the pipeline's event graph in many orders.

Fuzzing (:mod:`repro.verify.fuzz`) perturbs *timing* and lets the OS pick
the interleaving; this module removes the OS from the picture entirely.
:class:`ReplayBackend` is an :class:`~repro.exec.ExecBackend` that *records*
every submitted operation and ``wait_event`` edge instead of running it,
reconstructing the exact dependency DAG the schedule declared — per-stream
FIFO edges plus the Fig. 4 cross-stream event arrows plus the in-flight
window gates.  At ``synchronize()`` it checks the recorded graph
(acyclic, all dependencies resolvable — a cycle or an unsatisfiable wait is
a guaranteed deadlock, reported as :class:`ScheduleDeadlock` instead of a
hang), then executes the operations inline in a chosen **linear extension**
of the DAG: submission order, or a seeded uniformly-sampled topological
order.  Because any legal interleaving of the real pipeline corresponds to
some linear extension, bit-exact results across sampled extensions verify
the determinism contract over the whole space the event graph permits —
including orders the thread scheduler would essentially never produce.

:class:`ScheduleGraph` additionally supports exhaustive enumeration of
linear extensions for small graphs and direct structural checks (e.g.
:meth:`ScheduleGraph.verify_window`: every item's first operation really is
gated on item ``i - window``'s final operation).

:func:`replay_orders` is the explorer stage of ``repro verify``: the
out-of-core engine of the verified spec — its partition and copy strategy
included — replayed in sampled orders against the sync engine, over a
round trip and the solver's substage.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from repro.exec.api import Event, ExecBackend, ExecError, Stream

__all__ = ["ReplayBackend", "ReplayEvent", "ReplayStream", "ScheduleDeadlock",
           "ScheduleGraph", "replay_orders"]


class ScheduleDeadlock(ExecError):
    """The recorded event graph cannot be scheduled (cycle / lost wakeup)."""


class _RecordedOp:
    __slots__ = (
        "index", "stream", "name", "category", "fn", "meta", "deps",
        "executed", "error",
    )

    def __init__(self, index, stream, name, category, fn, meta, deps):
        self.index = index
        self.stream = stream
        self.name = name
        self.category = category
        self.fn = fn
        self.meta = meta
        self.deps: list[_RecordedOp] = deps
        self.executed = False
        self.error: Optional[BaseException] = None

    @property
    def item(self):
        return self.meta.get("item")

    def __repr__(self):
        return f"<op {self.index}:{self.name} on {self.stream}>"


class ReplayEvent(Event):
    """Event bound to a recorded op; completes when the replay executes it."""

    __slots__ = ("op",)

    def __init__(self, op: _RecordedOp):
        self.op = op

    @property
    def done(self) -> bool:
        return self.op.executed

    @property
    def exception(self) -> Optional[BaseException]:
        return self.op.error

    def wait(self, timeout: Optional[float] = None) -> None:
        if not self.op.executed:
            raise ScheduleDeadlock(
                f"wait on {self.op!r} before the replay executed it — a "
                "blocking wait inside a recorded epoch cannot complete"
            )
        if self.op.error is not None:
            raise self.op.error


class ReplayStream(Stream):
    """Records submissions and event edges; executes nothing."""

    def __init__(self, backend: "ReplayBackend", name: str):
        self._backend = backend
        self.name = name
        self.lane = f"stream.{name}"
        self._last: Optional[_RecordedOp] = None
        self._pending_deps: list[_RecordedOp] = []

    def submit(
        self,
        name: str,
        category: str,
        fn: Optional[Callable[[], object]] = None,
        **meta: object,
    ) -> Event:
        deps: list[_RecordedOp] = []
        if self._last is not None and not self._last.executed:
            deps.append(self._last)  # per-stream FIFO edge
        deps.extend(self._pending_deps)
        self._pending_deps = []
        op = _RecordedOp(
            len(self._backend._ops), self.name, name, category, fn, meta, deps
        )
        self._backend._ops.append(op)
        self._last = op
        return ReplayEvent(op)

    def wait_event(self, event: Event) -> None:
        if isinstance(event, ReplayEvent):
            if not event.op.executed:
                self._pending_deps.append(event.op)
            return
        if getattr(event, "done", False):
            return  # already-complete foreign event: no edge needed
        raise ScheduleDeadlock(
            f"stream {self.name!r} waits on a foreign, incomplete event "
            f"{event!r} the replay can never satisfy"
        )

    def synchronize(self) -> None:
        self._backend.synchronize()


class ScheduleGraph:
    """The dependency DAG of one recorded epoch, with order machinery."""

    def __init__(self, ops: list[_RecordedOp]):
        self.ops = list(ops)
        in_epoch = set(id(op) for op in self.ops)
        #: per-op dependency indices, restricted to this epoch (deps on ops
        #: executed in an earlier epoch are already satisfied).
        self.dep_idx: list[list[int]] = []
        index_of = {id(op): i for i, op in enumerate(self.ops)}
        for op in self.ops:
            idxs = []
            for dep in op.deps:
                if id(dep) in in_epoch:
                    idxs.append(index_of[id(dep)])
                elif not dep.executed:
                    raise ScheduleDeadlock(
                        f"{op!r} depends on {dep!r} which is neither in "
                        "this epoch nor already executed"
                    )
            self.dep_idx.append(idxs)

    def __len__(self) -> int:
        return len(self.ops)

    def _successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in self.ops]
        for i, deps in enumerate(self.dep_idx):
            for d in deps:
                succ[d].append(i)
        return succ

    def assert_schedulable(self) -> None:
        """Raise :class:`ScheduleDeadlock` unless a topological order exists."""
        order = self.sample_order(rng=None)
        if len(order) != len(self.ops):
            scheduled = set(order)
            stuck = [self.ops[i] for i in range(len(self.ops)) if i not in scheduled]
            raise ScheduleDeadlock(
                f"dependency cycle: {len(stuck)} operation(s) can never run, "
                f"first {stuck[0]!r}"
            )

    def sample_order(
        self, rng: Optional[np.random.Generator]
    ) -> list[int]:
        """One linear extension: Kahn's algorithm, ties broken by ``rng``
        (uniform over the ready set) or by submission index when ``rng`` is
        None (which reproduces submission order exactly — every dep points
        to an earlier submission).  Returns fewer than ``len(self)`` indices
        iff there is a cycle.
        """
        indeg = [len(d) for d in self.dep_idx]
        succ = self._successors()
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order: list[int] = []
        while ready:
            if rng is None:
                pick = ready.index(min(ready))
            else:
                pick = int(rng.integers(0, len(ready)))
            node = ready.pop(pick)
            order.append(node)
            for s in succ[node]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        return order

    def enumerate_orders(self, limit: int = 10000) -> Iterator[list[int]]:
        """All linear extensions, backtracking (small graphs only: the count
        grows factorially).  Stops silently after ``limit`` orders."""
        indeg = [len(d) for d in self.dep_idx]
        succ = self._successors()
        order: list[int] = []
        emitted = 0

        def backtrack() -> Iterator[list[int]]:
            nonlocal emitted
            if emitted >= limit:
                return
            if len(order) == len(self.ops):
                emitted += 1
                yield list(order)
                return
            for i in range(len(self.ops)):
                if indeg[i] != 0 or i in chosen:
                    continue
                chosen.add(i)
                order.append(i)
                for s in succ[i]:
                    indeg[s] -= 1
                yield from backtrack()
                for s in succ[i]:
                    indeg[s] += 1
                order.pop()
                chosen.remove(i)

        chosen: set[int] = set()
        yield from backtrack()

    def count_orders(self, limit: int = 10000) -> int:
        return sum(1 for _ in self.enumerate_orders(limit=limit))

    def verify_window(self, window: int) -> None:
        """Structural check of the in-flight gate: for every item ``i`` with
        ``i - window`` in this epoch, item ``i``'s first operation must
        depend (directly) on item ``i - window``'s final operation.
        """
        first: dict[int, int] = {}
        last: dict[int, int] = {}
        for idx, op in enumerate(self.ops):
            item = op.item
            if item is None:
                continue
            first.setdefault(item, idx)
            last[item] = idx
        for item, fidx in first.items():
            gated = item - window
            if gated not in last:
                continue
            if last[gated] not in self.dep_idx[fidx]:
                raise ScheduleDeadlock(
                    f"item {item}'s first op {self.ops[fidx]!r} lacks the "
                    f"window gate on item {gated}'s final op "
                    f"{self.ops[last[gated]]!r}"
                )


class ReplayBackend(ExecBackend):
    """Record-then-replay executor for schedule exploration.

    ``order="submission"`` replays exactly the submitted order (the sync
    oracle's schedule); ``order="random"`` executes a seeded
    uniformly-sampled linear extension of the recorded DAG.  Each
    ``synchronize()`` closes one *epoch*: the graph is validated, an order
    chosen, the operations run inline, and the epoch's
    :class:`ScheduleGraph` appended to ``graphs`` for structural checks.
    """

    def __init__(self, order: str = "random", seed: int = 0):
        if order not in ("random", "submission"):
            raise ValueError(f"unknown replay order {order!r}")
        self.order = order
        self._rng = np.random.default_rng([seed, 0xD1CE]) if order == "random" else None
        self._streams: dict[str, ReplayStream] = {}
        self._ops: list[_RecordedOp] = []
        self.graphs: list[ScheduleGraph] = []
        self.orders_run: list[list[int]] = []
        self.ops_run = 0

    kind = "replay"

    def stream(self, name: str) -> ReplayStream:
        if name not in self._streams:
            self._streams[name] = ReplayStream(self, name)
        return self._streams[name]

    def synchronize(self) -> None:
        if not self._ops:
            return
        ops, self._ops = self._ops, []
        for s in self._streams.values():
            s._last = None
            s._pending_deps = []
        graph = ScheduleGraph(ops)
        graph.assert_schedulable()
        order = graph.sample_order(self._rng)
        self.graphs.append(graph)
        self.orders_run.append(order)
        error: Optional[BaseException] = None
        for idx in order:
            op = graph.ops[idx]
            if error is not None:
                # Mirror worker poisoning: everything after the first
                # failure is skipped but still marked complete.
                op.error = error
                op.executed = True
                continue
            try:
                if op.fn is not None:
                    op.fn()
                self.ops_run += 1
            except BaseException as exc:  # noqa: BLE001 - recorded + re-raised
                op.error = exc
                error = exc
            op.executed = True
        if error is not None:
            raise error

    def reset(self) -> None:
        self._ops = []
        for s in self._streams.values():
            s._last = None
            s._pending_deps = []


def replay_orders(spec, orders: int) -> Iterator[int]:
    """Replay the out-of-core engine of ``spec`` (a
    :class:`~repro.serve.spec.JobSpec`: ranks, pencils, window, copy
    strategy, partition) in ``orders`` linear extensions, the submission
    order first, and yield each order's op count.  An order runs a seeded
    field's round trip and the solver's substage, landing in a lent buffer.

    Raises when an order's results are not bit-identical to the sync
    engine's (which lands in its own slab) or a recorded graph breaks the
    in-flight window gate.
    """
    from repro.dist.decomp import SlabDecomposition
    from repro.dist.outofcore import OutOfCoreSlabFFT
    from repro.dist.virtual_mpi import VirtualComm
    from repro.spectral.grid import SpectralGrid
    from repro.spectral.pointwise import PRODUCT_PAIRS

    grid, P = SpectralGrid(spec.n), spec.ranks
    d = SlabDecomposition.partition(spec.n, P, spec.heights, spec.skew)
    rng = np.random.default_rng(99)
    coeffs = [(rng.standard_normal(s) + 1j * rng.standard_normal(s)).astype(
        grid.cdtype) for s in [(3, *d.local_spectral_shape(r)) for r in range(P)]]

    def run(land, **kw) -> tuple:
        with OutOfCoreSlabFFT(grid, VirtualComm(P), spec.npencils or 1,
                              copy_strategy=spec.copy_strategy,
                              heights=d.heights, **kw) as fft:
            phys = fft.inverse([c[0] for c in coeffs])
            return fft, (phys, fft.forward(phys), fft.product_spectra(
                coeffs, PRODUCT_PAIRS, land=land))

    _, want = run(None, pipeline="sync")
    for k in range(orders):
        backend = ReplayBackend(order="submission" if k == 0 else "random",
                                seed=k)
        fft, got = run([np.empty_like(c) for c in coeffs], backend=backend,
                       inflight=spec.inflight)
        for name, a, b in zip(("inverse", "forward", "product_spectra"),
                              got, want):
            if not all(map(np.array_equal, a, b)):
                raise AssertionError(f"replay order {k} diverged in {name}")
        for graph in backend.graphs:
            graph.verify_window(fft.inflight)
        yield backend.ops_run
