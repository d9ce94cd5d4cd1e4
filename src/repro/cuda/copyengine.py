"""Executable strided-copy engines + runtime autotuner (paper Sec. 4.2).

:mod:`repro.cuda.memcpy` prices the paper's three host<->device movement
strategies analytically (Fig. 7); this module makes them *executable* so the
out-of-core pipeline can actually move its pencils three different ways and
measure which one wins on the layout at hand:

``PerChunkEngine``
    One virtual ``cudaMemcpyAsync`` per contiguous run — a Python-level
    loop issuing one ``np.copyto`` per chunk.  Faithfully slow at small
    chunks (per-call overhead dominates), exactly the paper's observation.
``Batched2DEngine``
    The ``cudaMemcpy2DAsync`` analogue: a single strided-descriptor copy
    (one ``np.copyto`` over the full strided view; NumPy's copy loop walks
    the rows like the GPU copy engine walks a 2-D descriptor).
``ZeroCopyEngine``
    The zero-copy gather kernel emulated by block-partitioned workers: the
    leading axis is split into ``blocks`` ranges copied concurrently on a
    small thread pool (Fig. 8's thread blocks reading pinned host memory).
    Writes are disjoint, so results are bit-identical to the other engines
    regardless of scheduling.

All three share the :class:`CopyEngine` interface — ``h2d(dst, src)`` /
``d2h(dst, src)`` with an optional per-stream span tracer — emit
``arena.h2d`` / ``arena.d2h`` spans plus per-strategy byte/chunk counters
through :mod:`repro.obs`, and price themselves with the Fig. 7 cost models
(each recorded span's ``model_cost``, and what decides in the planner's
model-priced mode, kind ``"sim"``).

:class:`CopyAutotuner` closes the loop: it probes every engine on the
actual (shape, strides, dtype) of the first pencil with a given layout —
copying the live arrays, so probing is free of side effects — caches the
winner keyed by ``(shape, strides, dtype, backend kind)``, and re-probes
automatically when ``npencils`` or the grid change the layout.  In the
planner's model-priced mode (kind ``"sim"``, what :class:`CapacityPlanner`
builds its engines with) the choice falls back to the analytic models,
making it deterministic.  :class:`AutoEngine` wraps the tuner
behind the same ``CopyEngine`` interface (the ``--copy-strategy auto``
path of the ``dns`` CLI and the ``repro tune`` subcommand).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cuda.memcpy import (
    CopyStrategy,
    StridedCopySpec,
    time_memcpy2d_async,
    time_memcpy_async_per_chunk,
    time_zero_copy_kernel,
)
from repro.machine.spec import GpuSpec
from repro.obs import NULL_OBS, NULL_SPAN

__all__ = [
    "AutoEngine",
    "Batched2DEngine",
    "ChunkLayout",
    "CopyAutotuner",
    "CopyEngine",
    "ENGINE_NAMES",
    "PerChunkEngine",
    "ProbeResult",
    "ZeroCopyEngine",
    "make_engine",
]

#: CLI-facing strategy names, in probe order.
ENGINE_NAMES = ("per_chunk", "zero_copy", "memcpy2d")


def _contiguous_tail(a: np.ndarray) -> int:
    """Number of trailing axes of ``a`` forming one contiguous block.

    Extent-1 axes are stride-agnostic and always extend the run; an empty
    array is treated as fully contiguous (there is nothing to walk).
    """
    if a.size == 0:
        return a.ndim
    expected = a.itemsize
    tail = 0
    for k in range(a.ndim - 1, -1, -1):
        if a.shape[k] == 1:
            tail += 1
            continue
        if a.strides[k] == expected:
            expected *= a.shape[k]
            tail += 1
        else:
            break
    return tail


def _drop_unit_lead(dst, src):
    """Leading extent-1 axes carry no chunks: copy the arrays under them,
    so a one-field pencil has the layout of the field's own pencil."""
    while dst.ndim > 1 and dst.shape[0] == 1 and src.shape[:1] == (1,):
        dst, src = dst[0], src[0]
    return dst, src


@dataclass(frozen=True)
class ChunkLayout:
    """The chunk decomposition shared by both sides of a strided copy.

    ``shape[:lead_ndim]`` indexes the contiguous runs; ``shape[lead_ndim:]``
    is one run of ``chunk_elems`` elements (``chunk_bytes`` bytes).  A
    virtual per-chunk ``cudaMemcpyAsync`` needs *both* sides of a run to be
    contiguous, so the layout of a (dst, src) pair takes the shorter
    contiguous tail of the two.
    """

    shape: tuple[int, ...]
    lead_ndim: int
    chunk_elems: int
    itemsize: int

    @classmethod
    def of(cls, *arrays: np.ndarray) -> "ChunkLayout":
        base = arrays[0]
        for a in arrays[1:]:
            if a.shape != base.shape:
                raise ValueError(
                    f"copy shape mismatch: {a.shape} vs {base.shape}"
                )
            if a.dtype.itemsize != base.dtype.itemsize:
                raise ValueError(
                    f"copy itemsize mismatch: {a.dtype} vs {base.dtype}"
                )
        tail = min(_contiguous_tail(a) for a in arrays)
        lead = base.ndim - tail
        chunk_elems = math.prod(base.shape[lead:])
        return cls(
            shape=tuple(base.shape),
            lead_ndim=lead,
            chunk_elems=chunk_elems,
            itemsize=base.dtype.itemsize,
        )

    @property
    def nchunks(self) -> int:
        return math.prod(self.shape[: self.lead_ndim])

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_elems * self.itemsize

    @property
    def total_bytes(self) -> int:
        return self.nchunks * self.chunk_bytes

    def spec(self) -> StridedCopySpec:
        """The Fig. 7 cost-model geometry (clamped to the model's domain)."""
        return StridedCopySpec(
            chunk_bytes=float(max(self.chunk_bytes, 1)),
            nchunks=max(self.nchunks, 1),
        )


class CopyEngine:
    """One executable strategy for moving strided data host<->device.

    Subclasses implement :meth:`_execute` (the real copy) and
    :meth:`price` (the Fig. 7 cost model).
    ``h2d``/``d2h`` record an ``arena.h2d``/``arena.d2h`` span on the given
    tracer (pass the owning stream's child tracer when calling from a
    pipeline stage — span tracers are single-threaded) and maintain
    ``copy.<strategy>.{h2d_bytes,d2h_bytes,chunks,calls}`` counters.
    """

    #: CLI / cache name of the strategy.
    name: str = "abstract"
    #: The Fig. 7 strategy enum this engine realizes.
    strategy: Optional[CopyStrategy] = None

    def __init__(self, obs=None, gpu: Optional[GpuSpec] = None):
        self.obs = obs if obs is not None else NULL_OBS
        if gpu is None:
            from repro.machine.summit import summit_gpu

            gpu = summit_gpu()
        self.gpu = gpu
        # Instruments are created eagerly on the constructing thread so
        # stream workers only ever mutate existing counters.
        if self.obs.enabled:
            m = self.obs.metrics
            self._m_h2d = m.counter(f"copy.{self.name}.h2d_bytes")
            self._m_d2h = m.counter(f"copy.{self.name}.d2h_bytes")
            self._m_chunks = m.counter(f"copy.{self.name}.chunks")
            self._m_calls = m.counter(f"copy.{self.name}.calls")
        else:
            self._m_h2d = self._m_d2h = None
            self._m_chunks = self._m_calls = None

    # -- public API ----------------------------------------------------------

    def h2d(self, dst: np.ndarray, src: np.ndarray, spans=None) -> None:
        """Copy a (possibly strided) host view into a device buffer."""
        self._copy(*_drop_unit_lead(dst, src), "h2d", spans)

    def d2h(self, dst: np.ndarray, src: np.ndarray, spans=None) -> None:
        """Copy a device buffer back into (possibly strided) host memory."""
        self._copy(*_drop_unit_lead(dst, src), "d2h", spans)

    def price(self, layout: ChunkLayout) -> float:
        """Virtual seconds for this copy (the Fig. 7 model)."""
        raise NotImplementedError  # pragma: no cover - interface

    def close(self) -> None:
        """Release worker resources (no-op for loop-based engines)."""

    # -- machinery -----------------------------------------------------------

    def _copy(self, dst, src, direction: str, spans) -> None:
        layout = ChunkLayout.of(dst, src)
        tracer = spans if spans is not None else self.obs.spans
        # The Fig. 7 model runs only for a span somebody will read: the
        # pencil path makes hundreds of copies a step.
        span = NULL_SPAN if not tracer.enabled else tracer.span(
            f"arena.{direction}",
            category=direction,
            engine=self.name,
            nbytes=layout.total_bytes,
            model_cost=self.price(layout),
        )
        with span:
            self._execute(dst, src, layout)
        if self._m_calls is not None:
            self._m_calls.inc()
            self._m_chunks.inc(layout.nchunks)
            (self._m_h2d if direction == "h2d" else self._m_d2h).inc(
                layout.total_bytes
            )

    def _execute(self, dst, src, layout: ChunkLayout) -> None:
        raise NotImplementedError  # pragma: no cover - interface


class PerChunkEngine(CopyEngine):
    """Strategy 1: one virtual ``cudaMemcpyAsync`` per contiguous chunk."""

    name = "per_chunk"
    strategy = CopyStrategy.MEMCPY_ASYNC_PER_CHUNK

    def price(self, layout: ChunkLayout) -> float:
        return time_memcpy_async_per_chunk(layout.spec(), self.gpu)

    def _execute(self, dst, src, layout: ChunkLayout) -> None:
        if dst.size == 0:
            return
        lead = layout.lead_ndim
        if lead == 0:
            np.copyto(dst, src)
            return
        for idx in np.ndindex(*layout.shape[:lead]):
            # Plain assignment, not np.copyto: when the run is a single
            # element (lead == ndim) dst[idx] is a scalar, which copyto
            # rejects.
            dst[idx] = src[idx]


class Batched2DEngine(CopyEngine):
    """Strategy 3: one strided/2-D descriptor copy (``cudaMemcpy2DAsync``)."""

    name = "memcpy2d"
    strategy = CopyStrategy.MEMCPY_2D_ASYNC

    def price(self, layout: ChunkLayout) -> float:
        return time_memcpy2d_async(layout.spec(), self.gpu)

    def _execute(self, dst, src, layout: ChunkLayout) -> None:
        np.copyto(dst, src)


class ZeroCopyEngine(CopyEngine):
    """Strategy 2: block-partitioned gather over "pinned host memory".

    The leading axis is split into up to ``blocks`` ranges; with
    ``workers > 1`` the ranges are copied concurrently on a private thread
    pool (the kernel's thread blocks), each range being one strided
    sub-copy.  Destinations are disjoint, so the result is bit-identical
    to a single monolithic copy no matter how the workers interleave.
    """

    name = "zero_copy"
    strategy = CopyStrategy.ZERO_COPY_KERNEL

    def __init__(self, obs=None, gpu=None, blocks: int = 16, workers: int = 4):
        super().__init__(obs=obs, gpu=gpu)
        if blocks < 1:
            raise ValueError("zero-copy engine needs at least one block")
        if workers < 1:
            raise ValueError("zero-copy engine needs at least one worker")
        self.blocks = int(blocks)
        self.workers = int(workers)
        self._pool = None

    def price(self, layout: ChunkLayout) -> float:
        return time_zero_copy_kernel(layout.spec(), self.gpu, blocks=self.blocks)

    def _pool_get(self):
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="zero-copy"
            )
        return self._pool

    def _execute(self, dst, src, layout: ChunkLayout) -> None:
        if dst.size == 0:
            return
        if layout.lead_ndim == 0 or layout.shape[0] < 2 or self.workers == 1:
            np.copyto(dst, src)
            return
        edges = np.linspace(
            0, layout.shape[0], min(self.blocks, layout.shape[0]) + 1
        ).astype(int)
        ranges = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        if len(ranges) < 2:
            np.copyto(dst, src)
            return
        pool = self._pool_get()
        futures = [
            pool.submit(np.copyto, dst[a:b], src[a:b]) for a, b in ranges
        ]
        for f in futures:
            f.result()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


@dataclass(frozen=True)
class ProbeResult:
    """One (layout, strategy) measurement taken by the autotuner."""

    key: tuple
    strategy: str
    seconds: float
    bandwidth: float
    chunk_bytes: int
    nchunks: int
    total_bytes: int
    mode: str  # "measured" | "model"
    winner: bool = False

    def record(self) -> dict:
        """JSON-serializable form (``repro tune --json``)."""
        return {
            "shape": list(self.key[0]),
            "dtype": self.key[1],
            "backend": self.key[2],
            "strategy": self.strategy,
            "seconds": self.seconds,
            "bandwidth": self.bandwidth,
            "chunk_bytes": self.chunk_bytes,
            "nchunks": self.nchunks,
            "total_bytes": self.total_bytes,
            "mode": self.mode,
            "winner": self.winner,
        }


class CopyAutotuner:
    """Measurement-driven strategy selection, cached per copy layout.

    ``choose(dst, src, kind)`` returns the winning engine for the pair's
    layout.  On a cache miss with a real backend kind it *probes*: every
    candidate engine performs the actual copy ``repeats`` times while being
    timed — all engines move identical bytes, so probing on the live
    arrays is bit-exact and side-effect-free (the destination ends up with
    precisely the data the caller asked for).  With ``kind="sim"`` (the
    planner's model-priced mode) there is no wall time to measure, so the
    Fig. 7 cost models decide instead.  Winners are cached keyed by
    ``(shape, strides-signature, dtype, kind)`` — a new grid or pencil
    count produces new layouts and therefore fresh probes.
    """

    def __init__(
        self,
        engines: Optional[Sequence[CopyEngine]] = None,
        obs=None,
        gpu: Optional[GpuSpec] = None,
        repeats: int = 2,
        clock=time.perf_counter,
    ):
        self.obs = obs if obs is not None else NULL_OBS
        if engines is None:
            engines = [
                PerChunkEngine(obs=self.obs, gpu=gpu),
                ZeroCopyEngine(obs=self.obs, gpu=gpu),
                Batched2DEngine(obs=self.obs, gpu=gpu),
            ]
        self.engines = list(engines)
        if repeats < 1:
            raise ValueError("autotuner needs at least one probe repeat")
        self.repeats = int(repeats)
        self.clock = clock
        self.cache: dict[tuple, CopyEngine] = {}
        self.results: list[ProbeResult] = []
        # h2d and d2h stages run on different stream workers; the lock keeps
        # a shared layout from being probed twice (and the results list
        # consistent) when both miss the cache at once.
        self._lock = threading.Lock()
        self._default = next(
            (e for e in self.engines if e.name == "memcpy2d"), self.engines[-1]
        )
        if self.obs.enabled:
            self._m_probes = self.obs.metrics.counter("copy.autotune.probes")
        else:
            self._m_probes = None

    @staticmethod
    def layout_key(dst: np.ndarray, src: np.ndarray, kind: str) -> tuple:
        layout = ChunkLayout.of(dst, src)
        return (
            layout.shape,
            str(src.dtype),
            kind,
            layout.chunk_elems,
            layout.lead_ndim,
        )

    def choose(
        self, dst: np.ndarray, src: np.ndarray, kind: str = "sync"
    ) -> CopyEngine:
        key = self.layout_key(dst, src, kind)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        with self._lock:
            hit = self.cache.get(key)
            if hit is not None:
                return hit
            layout = ChunkLayout.of(dst, src)
            if layout.total_bytes == 0:
                # Nothing to move: any engine works; don't pollute results.
                self.cache[key] = self._default
                return self._default
            if kind == "sim":
                # No wall clock to measure (model-priced mode): the Fig. 7
                # models decide, deterministically.
                winner = self._choose_model(key, layout)
            else:
                winner = self._probe(key, dst, src, layout)
            self.cache[key] = winner
            if self._m_probes is not None:
                self._m_probes.inc()
            return winner

    def _choose_model(self, key: tuple, layout: ChunkLayout) -> CopyEngine:
        timed = [(e.price(layout), e) for e in self.engines]
        best = min(t for t, _ in timed)
        winner = next(e for t, e in timed if t == best)
        for t, e in timed:
            self.results.append(
                ProbeResult(
                    key=key[:3],
                    strategy=e.name,
                    seconds=t,
                    bandwidth=layout.total_bytes / t if t > 0 else 0.0,
                    chunk_bytes=layout.chunk_bytes,
                    nchunks=layout.nchunks,
                    total_bytes=layout.total_bytes,
                    mode="model",
                    winner=e is winner,
                )
            )
        return winner

    def _probe(
        self, key: tuple, dst: np.ndarray, src: np.ndarray, layout: ChunkLayout
    ) -> CopyEngine:
        timed: list[tuple[float, CopyEngine]] = []
        for engine in self.engines:
            t0 = self.clock()
            for _ in range(self.repeats):
                engine._execute(dst, src, layout)
            timed.append(((self.clock() - t0) / self.repeats, engine))
        best = min(t for t, _ in timed)
        winner = next(e for t, e in timed if t == best)
        for t, e in timed:
            self.results.append(
                ProbeResult(
                    key=key[:3],
                    strategy=e.name,
                    seconds=t,
                    bandwidth=layout.total_bytes / t if t > 0 else 0.0,
                    chunk_bytes=layout.chunk_bytes,
                    nchunks=layout.nchunks,
                    total_bytes=layout.total_bytes,
                    mode="measured",
                    winner=e is winner,
                )
            )
        return winner

    def records(self) -> list[dict]:
        return [r.record() for r in self.results]

    def report(self) -> str:
        """Human-readable probe table (the ``repro tune`` output)."""
        lines = [
            f"{'layout':<28} {'chunk':>9} {'nchunks':>8} "
            f"{'strategy':<10} {'GB/s':>8} {'mode':>9}"
        ]
        for r in self.results:
            shape = "x".join(map(str, r.key[0])) + f" {r.key[1]}"
            mark = " <- winner" if r.winner else ""
            lines.append(
                f"{shape:<28} {r.chunk_bytes / 1024:7.1f}KB {r.nchunks:>8} "
                f"{r.strategy:<10} {r.bandwidth / 1e9:8.2f} {r.mode:>9}"
                f"{mark}"
            )
        if not self.results:
            lines.append("  (no layouts probed)")
        return "\n".join(lines)

    def close(self) -> None:
        for engine in self.engines:
            engine.close()


class AutoEngine(CopyEngine):
    """The ``--copy-strategy auto`` engine: a tuner behind the interface.

    Every copy consults :class:`CopyAutotuner` for the pair's layout; the
    first pencil with a new layout pays a probe (each candidate performs
    the real copy once per repeat), after which the cached winner handles
    all subsequent pencils of that layout.
    """

    name = "auto"
    strategy = None

    def __init__(self, obs=None, gpu=None, tuner=None, kind: str = "sync"):
        super().__init__(obs=obs, gpu=gpu)
        self.tuner = (
            tuner
            if tuner is not None
            else CopyAutotuner(obs=self.obs, gpu=self.gpu)
        )
        self.kind = kind

    def price(self, layout: ChunkLayout) -> float:
        return min(e.price(layout) for e in self.tuner.engines)

    def h2d(self, dst, src, spans=None) -> None:
        dst, src = _drop_unit_lead(dst, src)
        self.tuner.choose(dst, src, self.kind).h2d(dst, src, spans=spans)

    def d2h(self, dst, src, spans=None) -> None:
        dst, src = _drop_unit_lead(dst, src)
        self.tuner.choose(dst, src, self.kind).d2h(dst, src, spans=spans)

    def close(self) -> None:
        self.tuner.close()


def make_engine(
    name: str,
    obs=None,
    gpu: Optional[GpuSpec] = None,
    kind: str = "sync",
    tuner: Optional[CopyAutotuner] = None,
) -> CopyEngine:
    """Build a copy engine by CLI name (``auto`` wires up the autotuner).

    ``kind`` is the autotuner's cache key and probe mode: an exec backend
    kind (``"sync"`` / ``"threads"``) probes by wall time; ``"sim"`` is
    :class:`repro.plan.CapacityPlanner`'s model-priced selection.
    """
    if name == "auto":
        return AutoEngine(obs=obs, gpu=gpu, tuner=tuner, kind=kind)
    if name == "per_chunk":
        return PerChunkEngine(obs=obs, gpu=gpu)
    if name == "memcpy2d":
        return Batched2DEngine(obs=obs, gpu=gpu)
    if name == "zero_copy":
        return ZeroCopyEngine(obs=obs, gpu=gpu)
    raise ValueError(
        f"unknown copy strategy {name!r} "
        f"(use auto, per_chunk, memcpy2d, or zero_copy)"
    )
