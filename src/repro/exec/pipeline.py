"""The Fig. 4 pencil schedule over backend-neutral streams and events.

:class:`PencilPipeline` runs a sequence of per-item *stages* (typically
H2D -> compute -> D2H -> comm) over ``nitems`` work items with:

* one stream per stage, so stage ``k`` of item ``i+1`` can execute while
  stage ``k+1`` of item ``i`` is still in flight (the paper's two-stream
  schedule generalized to one lane per stage);
* an event per (item, stage) enforcing the only real dependencies — stage
  ``k`` of item ``i`` waits for stage ``k-1`` of item ``i`` (the Fig. 4
  cross-stream arrows);
* a bounded in-flight window: the first stage of item ``i`` additionally
  waits for item ``i - window`` to fully retire, which is what lets a ring
  of ``window`` pre-claimed device buffers be reused safely (the paper's
  persistent-buffer discipline, Sec. 3.5).

With the window at 3 this is exactly the paper's triple buffering: D2H of
pencil ``ip-1`` overlaps compute on ``ip`` while the all-to-all for ``ip-2``
is still posting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.exec.api import Event, ExecBackend

__all__ = ["PencilPipeline", "PipelineStage"]


@dataclass(frozen=True)
class PipelineStage:
    """One per-item stage of the schedule.

    Parameters
    ----------
    name, stream, category:
        Span name prefix, stream (lane) the stage runs on, and span
        category (defaults to ``name``) — the categories are the cost
        plane's too, so exported timelines are directly comparable.
    fn:
        ``fn(i)`` performs the work for item ``i``.
    cost:
        ``cost(i)`` is item ``i``'s weight on the
        :class:`~repro.exec.dlb.DlbPolicy` lane clocks (1.0 when absent);
        no backend reads it.
    when:
        Optional filter: the stage is submitted only for items where
        ``when(i)`` is true (e.g. one comm operation per pencil when items
        are (pencil, rank) pairs).
    owner:
        Optional ``owner(i) -> lane``: the stage runs on per-lane streams
        named ``"{stream}[{lane}]"`` instead of the single shared stream.
        By default an item is pinned to its owner's lane; with a
        :class:`~repro.exec.dlb.DlbPolicy` on the pipeline the lane is the
        policy's lend/reclaim assignment.  The per-item event chain and the
        in-flight window are identical either way, so results match the
        single-stream schedule bit-for-bit.
    """

    name: str
    stream: str
    category: Optional[str] = None
    fn: Optional[Callable[[int], object]] = None
    cost: Optional[Callable[[int], float]] = None
    when: Optional[Callable[[int], bool]] = None
    owner: Optional[Callable[[int], int]] = None


class PencilPipeline:
    """Submit items through the staged schedule on an exec backend."""

    def __init__(
        self,
        backend: ExecBackend,
        stages: list[PipelineStage],
        window: int = 2,
        name: str = "pipeline",
        dlb=None,
    ):
        if not stages:
            raise ValueError("pipeline needs at least one stage")
        if window < 1:
            raise ValueError(f"in-flight window must be >= 1, got {window}")
        self.backend = backend
        self.stages = list(stages)
        self.window = int(window)
        self.name = name
        #: Optional :class:`repro.exec.dlb.DlbPolicy` deciding the lane of
        #: every owned stage submission (lend/reclaim); None pins owned
        #: stages to their owner's lane.
        self.dlb = dlb

    def run(self, nitems: int) -> None:
        """Submit all items, drain every stream, propagate the first error.

        On any failure the backend is reset (poisoned streams discarded) so
        the pipeline object can be reused; obs spans recorded before the
        failure are still drained into the shared tracer.
        """
        backend = self.backend
        streams = {st.stream: backend.stream(st.stream) for st in self.stages}
        final_events: list[Optional[Event]] = []
        error: Optional[BaseException] = None
        try:
            for i in range(nitems):
                prev_event: Optional[Event] = None
                gate = (
                    final_events[i - self.window]
                    if i >= self.window
                    else None
                )
                for stage in self.stages:
                    if stage.when is not None and not stage.when(i):
                        continue
                    if stage.owner is not None:
                        lane = int(stage.owner(i))
                        if self.dlb is not None:
                            weight = (float(stage.cost(i))
                                      if stage.cost is not None else 1.0)
                            lane = self.dlb.assign(i, lane, weight)
                        stream = backend.stream(f"{stage.stream}[{lane}]")
                    else:
                        stream = streams[stage.stream]
                    if gate is not None:
                        stream.wait_event(gate)
                        gate = None  # only the item's first stage gates
                    if prev_event is not None:
                        stream.wait_event(prev_event)
                    fn = None
                    if stage.fn is not None:
                        fn = (lambda f=stage.fn, j=i: f(j))
                    prev_event = stream.submit(
                        f"{stage.name}[{i}]",
                        stage.category or stage.name,
                        fn,
                        item=i,
                    )
                final_events.append(prev_event)
        except BaseException as exc:  # noqa: BLE001 - re-raised after drain
            error = exc
        try:
            backend.synchronize()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if error is None:
                error = exc
        backend.drain_obs()
        if error is not None:
            backend.reset()
            raise error
