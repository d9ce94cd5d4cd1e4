"""Layer spans recorded from outside the program.

A :class:`Tracer` rebinds the entry points listed in :data:`LAYERS` on the
live ``repro`` classes and modules, for the traced part of a run only, and
:meth:`Tracer.restore` puts every attribute back exactly as it was.  Each
call through a rebound entry point becomes one :class:`Span` (name, start,
end, the span that caused it, the thread it ran on); spans stay in memory
until the workload turns them into per-layer metrics.

A span's *self time* is its duration minus the time of the spans it
directly encloses on its own thread, so the self times of everything under
one root span add up to that root's duration.  Operations handed to another
thread (``repro.exec`` stream ops) name the submitting span as their cause
but are not subtracted from it: the submitter was not waiting for them
unless a ``exec.sync`` span says so.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from time import perf_counter
from typing import Callable, NamedTuple, Optional

__all__ = ["LAYERS", "Span", "Tracer"]

_ABSENT = object()


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    self_s: float
    thread: int
    nbytes: int
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dst_nbytes(args) -> int:
    """``CopyEngine.h2d/d2h(self, dst, src, ...)``: bytes landed in dst."""
    return int(args[1].nbytes)


def _algorithm_name(args, kwargs) -> str:
    """``simulate_step(cfg, machine, ...)``: one span name per Algorithm."""
    return f"core.simulate_step.{args[0].algorithm.value}"


#: layer -> entry points as (module, class or None, attribute, span name,
#: options).  Functions imported by name are listed once per module that
#: holds a binding, because rebinding one module's name leaves the others.
LAYERS: dict[str, tuple[tuple, ...]] = {
    "spectral": (
        ("repro.spectral.workspace", "SpectralWorkspace", "fft3d", "spectral.fft", {}),
        ("repro.spectral.workspace", "SpectralWorkspace", "ifft3d", "spectral.fft", {}),
        ("repro.spectral.solver", "NavierStokesSolver", "step", "spectral.step", {}),
        ("repro.spectral.solver", None, "kinetic_energy", "spectral.diag", {}),
        ("repro.spectral.solver", None, "dissipation_rate", "spectral.diag", {}),
    ),
    "dist": (
        ("repro.dist.dist_solver", "DistributedNavierStokesSolver", "step", "dist.step", {}),
        ("repro.dist.slab_fft", "SlabDistributedFFT", "forward", "dist.fft", {}),
        ("repro.dist.slab_fft", "SlabDistributedFFT", "inverse", "dist.fft", {}),
        ("repro.dist.outofcore", "OutOfCoreSlabFFT", "forward", "dist.fft", {}),
        ("repro.dist.outofcore", "OutOfCoreSlabFFT", "inverse", "dist.fft", {}),
        ("repro.dist.transpose", None, "pack_blocks", "dist.pack", {}),
        ("repro.dist.transpose", None, "unpack_blocks", "dist.unpack", {}),
        ("repro.dist.transpose", None, "complete_chunk_exchange", "dist.unpack", {}),
        ("repro.dist.outofcore", None, "complete_chunk_exchange", "dist.unpack", {}),
        ("repro.dist.virtual_mpi", "VirtualComm", "alltoall", "dist.a2a", {}),
        ("repro.dist.virtual_mpi", "PendingAlltoall", "wait", "dist.a2a", {}),
    ),
    "mpi": (
        ("repro.mpi.procs", "ProcsComm", "rank_transpose", "mpi.procs.transpose", {}),
    ),
    "ooc": (
        ("repro.cuda.copyengine", "CopyEngine", "h2d", "ooc.h2d", {"nbytes": _dst_nbytes}),
        ("repro.cuda.copyengine", "CopyEngine", "d2h", "ooc.d2h", {"nbytes": _dst_nbytes}),
    ),
    "exec": (
        ("repro.exec.pipeline", "PencilPipeline", "run", "exec.run", {}),
        ("repro.exec.sync", "SyncBackend", "synchronize", "exec.sync", {}),
        ("repro.exec.threads", "ThreadBackend", "synchronize", "exec.sync", {}),
        ("repro.exec.sync", "SyncStream", "submit", "exec.op", {"kind": "submit"}),
        ("repro.exec.threads", "ThreadStream", "submit", "exec.op", {"kind": "submit"}),
    ),
    "serve": (
        ("repro.serve.http_api", "ServeHandler", "do_POST", "serve.handler", {}),
        ("repro.serve.store", "JobStore", "submit", "serve.store_submit", {}),
        ("repro.plan.admission", "AdmissionPricer", "quote", "serve.admission", {}),
        ("repro.serve.runner", None, "run_job", "serve.run_job", {}),
    ),
    "plan": (
        ("repro.plan.capacity", "CapacityPlanner", "quote", "plan.quote", {}),
        ("repro.plan.capacity", None, "simulate_step", "core.simulate_step",
         {"name_of": _algorithm_name}),
        ("repro.experiments.table3", None, "simulate_step", "core.simulate_step",
         {"name_of": _algorithm_name}),
    ),
}


class Tracer:
    """Records spans and owns the attribute rebindings that produce them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def current(self) -> Optional[int]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def call(self, name: str, fn: Callable, args=(), kwargs=None,
             nbytes: int = 0, cause: Optional[int] = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``cause`` names the causing span when there is no enclosing span on
        this thread (an operation submitted from another thread).
        """
        stack = self._stack()
        parent = stack[-1][0] if stack else cause
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        failed = True
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            failed = False
            return result
        finally:
            end = perf_counter()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            self.spans.append(Span(
                frame[0], parent, name, start, end, end - start - frame[1],
                threading.get_ident(), nbytes, failed,
            ))

    # -- rebinding ----------------------------------------------------------

    def rebind(self, owner: object, attr: str, name: str,
               nbytes: Optional[Callable] = None,
               name_of: Optional[Callable] = None, kind: str = "call") -> None:
        """Replace ``owner.attr`` by a recording wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _ABSENT)
        tracer = self

        if kind == "submit":
            # Stream.submit(self, name, category, fn, ...): time the operation
            # where it executes (the stream's thread), caused by the submitter.
            def wrapper(stream, op_name, category, fn=None, *args, **kwargs):
                if fn is not None:
                    fn = functools.partial(
                        tracer.call, f"{name}.{category}", fn,
                        cause=tracer.current(),
                    )
                return original(stream, op_name, category, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(
                    name_of(args, kwargs) if name_of else name,
                    original, args, kwargs,
                    nbytes=nbytes(args) if nbytes else 0,
                )

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._rebound.append((owner, attr, own))

    def install(self, layers) -> "Tracer":
        """Rebind every entry point of the named layers."""
        for layer in layers:
            for module, cls, attr, name, opts in LAYERS[layer]:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                self.rebind(owner, attr, name, **opts)
        return self

    def restore(self) -> None:
        """Undo every rebinding, newest first; safe to call twice."""
        while self._rebound:
            owner, attr, own = self._rebound.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading ------------------------------------------------------------

    def named(self, prefix: str) -> list[Span]:
        """Spans called ``prefix`` or ``prefix.<anything>``."""
        dotted = prefix + "."
        return [s for s in self.spans
                if s.name == prefix or s.name.startswith(dotted)]

    def total(self, prefix: str) -> float:
        return sum(s.end - s.start for s in self.named(prefix))

    def self_total(self, prefix: str) -> float:
        return sum(s.self_s for s in self.named(prefix))

    def count(self, prefix: str) -> int:
        return len(self.named(prefix))

    def nbytes(self, prefix: str) -> int:
        return sum(s.nbytes for s in self.named(prefix))

    def failed(self, prefix: str) -> int:
        return sum(1 for s in self.named(prefix) if s.failed)

    def covered(self) -> float:
        """Seconds of the calling thread under a span with no cause (the top
        of the layer tree): the numerator of ``trace.coverage_frac``."""
        thread = threading.get_ident()
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and s.thread == thread)

    def layer_metrics(self, units: int) -> dict[str, float]:
        """The per-layer metrics that follow from spans alone, per unit of
        work (RK step, job).  A layer never entered reads 0."""
        def per(total: float) -> float:
            return total / units if units else 0.0

        return {
            "spectral.fft_s": per(self.total("spectral.fft")),
            "spectral.fft_calls": per(self.count("spectral.fft")),
            "spectral.pointwise_s": per(self.self_total("spectral.step")),
            "spectral.diagnostics_s": per(self.total("spectral.diag")),
            "dist.linefft_s": per(self.self_total("dist.fft")),
            "dist.pack_s": per(self.total("dist.pack")),
            "dist.unpack_s": per(self.self_total("dist.unpack")),
            "dist.a2a_s": per(self.total("dist.a2a")),
            "dist.driver_self_s": per(self.self_total("dist.step")),
            "mpi.procs.transpose_wait_s": per(self.total("mpi.procs.transpose")),
            "mpi.procs.dispatches": per(self.count("mpi.procs.transpose")),
            "ooc.h2d_s": per(self.total("ooc.h2d")),
            "ooc.d2h_s": per(self.total("ooc.d2h")),
            "ooc.h2d_bytes": per(self.nbytes("ooc.h2d")),
            "ooc.d2h_bytes": per(self.nbytes("ooc.d2h")),
            "ooc.fft_s": per(self.total("exec.op.fft")),
            "ooc.comm_s": per(self.total("exec.op.mpi")),
            "ooc.comm_retries": per(self.failed("dist.a2a")),
            "exec.ops": per(self.count("exec.op")),
            "exec.submit_s": per(self.self_total("exec.run")),
            "exec.sync_wait_s": per(self.total("exec.sync")),
        }
