"""Backend-neutral async stream/event execution runtime.

The paper's defining optimization — pencils pipelined through the GPU on
concurrent streams with events enforcing cross-stream order (Fig. 4) — as a
reusable runtime with two interchangeable executors:

* :mod:`repro.exec.api` — the :class:`Stream` / :class:`Event` vocabulary;
* :mod:`repro.exec.threads` — real NumPy work on worker threads (GIL
  released inside FFTs and copies, so stages genuinely overlap);
* :mod:`repro.exec.sync` — the same operations inline: the bit-exact
  reference oracle;
* :mod:`repro.exec.pipeline` — :class:`PencilPipeline`, the Fig. 4
  schedule (bounded in-flight window, per-stage streams, event edges).
"""

from repro.exec.api import (
    DependencyFailed,
    Event,
    ExecBackend,
    ExecError,
    Stream,
)
from repro.exec.dlb import DlbPolicy
from repro.exec.pipeline import PencilPipeline, PipelineStage
from repro.exec.sync import SyncBackend, SyncEvent, SyncStream
from repro.exec.threads import ThreadBackend, ThreadEvent, ThreadStream

__all__ = [
    "DependencyFailed",
    "DlbPolicy",
    "Event",
    "ExecBackend",
    "ExecError",
    "PencilPipeline",
    "PipelineStage",
    "Stream",
    "SyncBackend",
    "SyncEvent",
    "SyncStream",
    "ThreadBackend",
    "ThreadEvent",
    "ThreadStream",
    "make_backend",
]


def make_backend(kind: str, obs=None, fuzz=None, monitor=None) -> ExecBackend:
    """Build an execution backend by name (``"sync"`` or ``"threads"``).

    With ``fuzz`` (a :class:`repro.verify.fuzz.FuzzProfile`) the backend is
    wrapped in a :class:`~repro.verify.fuzz.FuzzBackend` that injects seeded
    delays (and a profile's rank imbalance) at stream-op boundaries;
    ``monitor`` (a
    :class:`repro.verify.invariants.InvariantMonitor`) additionally makes
    every operation report begin/end so buffer-reuse invariants can be
    checked under adversarial timing.
    """
    if kind == "sync":
        backend: ExecBackend = SyncBackend(obs=obs)
    elif kind == "threads":
        backend = ThreadBackend(obs=obs)
    else:
        raise ValueError(
            f"unknown exec backend {kind!r} (use 'sync' or 'threads')"
        )
    if fuzz is not None or monitor is not None:
        # Imported lazily: repro.verify depends on repro.exec, not the
        # other way around (the hook is the only coupling point).
        from repro.verify.fuzz import FuzzBackend

        backend = FuzzBackend(backend, profile=fuzz, obs=obs, monitor=monitor)
    return backend
