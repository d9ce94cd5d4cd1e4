"""Payload-vs-metadata parity validator for the out-of-core pipeline.

The capacity planner prices Summit-scale runs from the metadata cost plane
alone, so the whole scheme stands on one claim: running the out-of-core
pipeline over :class:`~repro.core.payload.ArrayDescriptor` geometry emits
*exactly* the accounting the real payload path emits — same spans, same
priced copy costs, same byte counters, same collective records, same arena
high-water.  This module asserts that claim executably at sizes where the
payload path is cheap (<= 64^3), by running the identical Fig. 4 schedule
under both policies and diffing every observable.

What is compared (and what deliberately is not):

* copy spans — (name, engine, nbytes, model_cost) per span.  Under the
  ``auto`` strategy only (name, nbytes) are compared: the payload autotuner
  picks by wall-clock probe while the metadata path picks by the Fig. 7
  model, so the winning *engine label* may differ while the bytes cannot.
* metric counters — everything except ``pool.*`` (the metadata path never
  touches the host staging pool; descriptors are born without backing) and
  ``copy.autotune.probes`` (probes are measurement, not accounting).
* collective records — the full (kind, bytes, p2p min/max, messages) tuple
  stream from :class:`~repro.dist.virtual_mpi.VirtualComm`.
* arena high-water — the byte-budget gauge of the device arena.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.payload import ArrayDescriptor, PayloadPolicy, is_descriptor
from repro.dist.outofcore import OutOfCoreSlabFFT
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import Observability
from repro.spectral.grid import SpectralGrid
from repro.spectral.pointwise import PRODUCT_PAIRS

__all__ = ["ParityReport", "RunCapture", "capture_run", "validate_parity"]

#: Counters excluded from parity: the metadata path allocates descriptors
#: instead of pool buffers (``pool.*``), and autotune probes are timing
#: experiments, not data-plane accounting.
EXCLUDED_COUNTERS = ("pool.",)
EXCLUDED_EXACT = ("copy.autotune.probes",)


def _counter_included(name: str) -> bool:
    if name in EXCLUDED_EXACT:
        return False
    return not any(name.startswith(p) for p in EXCLUDED_COUNTERS)


@dataclass(frozen=True)
class RunCapture:
    """Every parity-relevant observable of one pipeline run."""

    policy: str
    copy_spans: tuple  # ((name, engine, nbytes, model_cost), ...)
    counters: dict  # name -> value (exclusions applied)
    records: tuple  # CollectiveRecord tuples
    high_water: float
    output_shapes: tuple

    @property
    def span_bytes(self) -> tuple:
        """(name, nbytes) per copy span — the strategy-blind comparison."""
        return tuple((s[0], s[2]) for s in self.copy_spans)

    @property
    def total_copy_bytes(self) -> int:
        return sum(s[2] for s in self.copy_spans)


@dataclass(frozen=True)
class ParityReport:
    """Outcome of one payload-vs-metadata comparison."""

    n: int
    ranks: int
    npencils: int
    copy_strategy: str
    pipeline: str
    payload: RunCapture
    metadata: RunCapture
    mismatches: list = field(default_factory=list)

    @property
    def matched(self) -> bool:
        return not self.mismatches

    def report(self) -> str:
        head = (
            f"parity N={self.n} ranks={self.ranks} np={self.npencils} "
            f"{self.copy_strategy}/{self.pipeline}: "
        )
        if self.matched:
            return head + (
                f"OK ({len(self.payload.copy_spans)} copy spans, "
                f"{len(self.payload.records)} collectives, "
                f"high-water {int(self.payload.high_water)} B)"
            )
        return head + "MISMATCH\n  " + "\n  ".join(self.mismatches)


def capture_run(
    n: int,
    ranks: int,
    npencils: int,
    copy_strategy: str = "memcpy2d",
    pipeline: str = "sync",
    policy: "PayloadPolicy | str" = PayloadPolicy.PAYLOAD,
) -> RunCapture:
    """Run forward+inverse and one velocity substage (three fields into the
    six product spectra) through the out-of-core pipeline, capture all
    parity observables.

    The payload path runs on zero fields (values are irrelevant to
    accounting); the metadata path runs on descriptors of the same
    per-rank slabs.
    """
    policy = PayloadPolicy.coerce(policy)
    grid = SpectralGrid(n)
    comm = VirtualComm(ranks)
    obs = Observability.create()
    ooc = OutOfCoreSlabFFT(
        grid,
        comm,
        npencils=npencils,
        obs=obs,
        pipeline=pipeline,
        copy_strategy=copy_strategy,
        payload_policy=policy,
    )
    try:
        locals_ = ooc.decomp.scatter_physical(np.zeros(grid.physical_shape))
        if not policy.moves_bytes:
            locals_ = [ArrayDescriptor.of(x) for x in locals_]
        outputs = ooc.inverse(ooc.forward(locals_))
        fields = [(3, *ooc.decomp.local_spectral_shape(r)) for r in range(ranks)]
        fields = [
            np.zeros(shape, grid.cdtype) if policy.moves_bytes
            else ArrayDescriptor.empty(shape, grid.cdtype)
            for shape in fields
        ]
        outputs += ooc.product_spectra(fields, PRODUCT_PAIRS)
        if not policy.moves_bytes and not all(
            is_descriptor(o) for o in outputs
        ):
            raise AssertionError("metadata run leaked a real array")
        high_water = ooc.arena.high_water
    finally:
        ooc.close()

    spans = tuple(
        (
            a.name,
            a.meta.get("engine"),
            int(a.meta["nbytes"]),
            float(a.meta["model_cost"]),
        )
        for a in obs.spans.activities
        if "nbytes" in a.meta and "model_cost" in a.meta
    )
    counters = {
        rec["name"]: rec["value"]
        for rec in obs.metrics.snapshot()
        if rec["type"] == "counter"
        and _counter_included(rec["name"])
        and rec.get("value")
    }
    records = tuple(
        (
            r.kind,
            r.total_bytes,
            r.p2p_bytes,
            r.ranks,
            r.p2p_min_bytes,
            r.p2p_max_bytes,
            r.messages,
        )
        for r in comm.stats.records
    )
    return RunCapture(
        policy=policy.value,
        copy_spans=spans,
        counters=counters,
        records=records,
        high_water=high_water,
        output_shapes=tuple(tuple(o.shape) for o in outputs),
    )


def validate_parity(
    n: int = 32,
    ranks: int = 2,
    npencils: int = 2,
    copy_strategy: str = "memcpy2d",
    pipeline: str = "sync",
) -> ParityReport:
    """Run both policies and diff every observable.

    Spans are compared as sorted multisets (the threads pipeline interleaves
    lanes nondeterministically; the *set* of copies is deterministic).  The
    ``auto`` strategy is compared bytes-blind (see module docstring).
    """
    pay = capture_run(n, ranks, npencils, copy_strategy, pipeline,
                      PayloadPolicy.PAYLOAD)
    meta = capture_run(n, ranks, npencils, copy_strategy, pipeline,
                       PayloadPolicy.METADATA)

    mismatches: list[str] = []
    if copy_strategy == "auto":
        if sorted(pay.span_bytes) != sorted(meta.span_bytes):
            mismatches.append(
                f"copy spans (bytes-level): {len(pay.span_bytes)} payload "
                f"vs {len(meta.span_bytes)} metadata"
            )
    else:
        if sorted(pay.copy_spans) != sorted(meta.copy_spans):
            mismatches.append(
                f"copy spans: {len(pay.copy_spans)} payload vs "
                f"{len(meta.copy_spans)} metadata"
            )
    def _counter_view(counters):
        # Under "auto" the per-engine copy counters may attribute the same
        # bytes to different winning engines; everything else stays exact.
        if copy_strategy != "auto":
            return counters
        return {k: v for k, v in counters.items() if not k.startswith("copy.")}

    if _counter_view(pay.counters) != _counter_view(meta.counters):
        diff_keys = {
            k
            for k in set(_counter_view(pay.counters))
            | set(_counter_view(meta.counters))
            if _counter_view(pay.counters).get(k)
            != _counter_view(meta.counters).get(k)
        }
        mismatches.append(f"counters differ: {sorted(diff_keys)}")
    if copy_strategy == "auto" and pay.total_copy_bytes != meta.total_copy_bytes:
        mismatches.append(
            f"total copy bytes: {pay.total_copy_bytes} vs "
            f"{meta.total_copy_bytes}"
        )
    if pay.records != meta.records:
        mismatches.append(
            f"collective records: {len(pay.records)} payload vs "
            f"{len(meta.records)} metadata"
        )
    if pay.high_water != meta.high_water:
        mismatches.append(
            f"arena high-water: {pay.high_water} vs {meta.high_water}"
        )
    if pay.output_shapes != meta.output_shapes:
        mismatches.append(
            f"output shapes: {pay.output_shapes} vs {meta.output_shapes}"
        )
    return ParityReport(
        n=n,
        ranks=ranks,
        npencils=npencils,
        copy_strategy=copy_strategy,
        pipeline=pipeline,
        payload=pay,
        metadata=meta,
        mismatches=mismatches,
    )


def validate_matrix(
    grids: Sequence[int] = (24, 32),
    ranks: Sequence[int] = (2, 4),
    copy_strategies: Sequence[str] = ("memcpy2d", "per_chunk", "zero_copy"),
    pipeline: str = "sync",
) -> list[ParityReport]:
    """The full parity matrix; every report must come back matched."""
    reports = []
    for n in grids:
        for p in ranks:
            if n % p != 0:
                continue
            for strategy in copy_strategies:
                npencils = 2 if n % 2 == 0 else 3
                reports.append(
                    validate_parity(n, p, npencils, strategy, pipeline)
                )
    return reports
