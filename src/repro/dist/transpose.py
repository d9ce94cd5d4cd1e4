"""Global transposes: pack -> all-to-all -> unpack (paper Figs. 2 and 4).

The pack step splits a rank's local array into per-peer blocks along one
axis; the all-to-all exchanges them; the unpack step concatenates the
received blocks along another axis.  These three steps are exactly what the
production code implements with strided GPU copies + ``MPI_(I)ALLTOALL`` —
here they move real NumPy data so correctness can be asserted.

Every engine's exchange is stated by :func:`chunk_exchange_layout`: for one
chunk of the slab, which planes of a source go to which peer, the shape of
each send block, and the strided window of the destination's transposed
slab each block lands in.  The in-process engine runs one chunk per pencil
(Fig. 4, bottom): its D2H copies write the send blocks,
``VirtualComm.ialltoall(send, recv=windows)`` moves them into place, and
:func:`complete_chunk_exchange` waits the request.  Over a process pool
``ProcsComm.rank_transpose`` runs the whole slab as one chunk, its
workers packing and unpacking by the same layout.

:func:`transpose_exchange` is the monolithic reference beside it, in
process only: one bulk-synchronous exchange of the whole array (the
baseline of paper Fig. 4, top) — :func:`pack_blocks` copies the per-peer
blocks into contiguous staging, the collective copies them, and
:func:`unpack_blocks` concatenates what arrived.  No engine calls it; it is
the plain statement of a transpose that both engines' exchanges are checked
against, block for block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.dist.virtual_mpi import PendingAlltoall, VirtualComm
from repro.obs import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = [
    "chunk_exchange_layout",
    "complete_chunk_exchange",
    "pack_blocks",
    "transpose_exchange",
    "unpack_blocks",
]

def pack_blocks(
    local: np.ndarray,
    axis: int,
    parts: int,
    sizes: Optional[Sequence[int]] = None,
) -> list[np.ndarray]:
    """Split ``local`` into ``parts`` contiguous blocks along ``axis``.

    This is the whole-slab "pack" of the paper's Sec. 3.3: the blocks are
    made contiguous in host staging.  (On the pencil path packing and the
    device-to-host move are a single operation — the out-of-core engine's
    D2H writes the send blocks directly and never calls this.)

    By default the blocks are equal (``extent % parts`` must be 0); with
    ``sizes`` each block ``p`` gets ``sizes[p]`` planes — the alltoallv-style
    pack for uneven slab decompositions.  Zero-size blocks are legal (a
    height-0 peer still receives an array, just an empty one).
    """
    extent = local.shape[axis]
    if sizes is not None:
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) != parts:
            raise ValueError(f"expected {parts} pack sizes, got {len(sizes)}")
        if any(s < 0 for s in sizes):
            raise ValueError(f"pack sizes must be >= 0, got {sizes}")
        if sum(sizes) != extent:
            raise ValueError(
                f"pack sizes {sizes} sum to {sum(sizes)} but axis extent "
                f"is {extent} — the per-peer blocks must partition the axis"
            )
    elif extent % parts != 0:
        raise ValueError(f"axis extent {extent} not divisible by {parts}")
    cuts = parts if sizes is None else np.cumsum(sizes[:-1])
    return [np.ascontiguousarray(b) for b in np.split(local, cuts, axis=axis)]


def unpack_blocks(blocks: Sequence[np.ndarray], axis: int) -> np.ndarray:
    """Concatenate per-peer blocks along ``axis`` (the "unpack" step)."""
    return np.concatenate(blocks, axis=axis)


def transpose_exchange(
    comm: VirtualComm,
    locals_: Sequence[np.ndarray],
    pack_axis: int,
    unpack_axis: int,
    obs: "Observability | None" = None,
    pack_sizes: Optional[Sequence[int]] = None,
) -> list[np.ndarray]:
    """One full distributed transpose over ``comm``.

    Each rank packs its local array into ``comm.size`` blocks along
    ``pack_axis``, exchanges them all-to-all, and unpacks the received
    blocks along ``unpack_axis``.  With ``obs``, the pack / all-to-all /
    unpack phases record wall-clock spans and the exchanged bytes feed the
    ``transpose.bytes_moved`` counter.  ``pack_sizes`` gives peer ``r``'s
    block extent along ``pack_axis`` (uneven slab heights); omitted, the
    pack is the balanced even split.
    """
    obs = obs if obs is not None else NULL_OBS
    spans = obs.spans
    with spans.span("transpose.pack", category="pack"):
        send = [
            pack_blocks(loc, pack_axis, comm.size, sizes=pack_sizes)
            for loc in locals_
        ]
    with spans.span("transpose.a2a", category="mpi"):
        recv = comm.alltoall(send)
    with spans.span("transpose.unpack", category="pack"):
        out = [unpack_blocks(blocks, unpack_axis) for blocks in recv]
    if obs.enabled:
        rec = comm.stats.records[-1]
        obs.metrics.counter("transpose.count").inc()
        obs.metrics.counter("transpose.bytes_moved").inc(rec.total_bytes)
    return out


# -- chunked non-blocking exchange (the paper's batched all-to-all) -----------


def chunk_exchange_layout(
    shapes: Sequence[Sequence[int]],
    pack_axis: int,
    unpack_axis: int,
    chunk_axis: int,
    chunks: Sequence[slice],
    pack_sizes: Optional[Sequence[int]] = None,
) -> tuple[list[tuple], list[list[tuple[int, ...]]], list[tuple]]:
    """Where one chunk of a chunked transpose leaves from and lands.

    ``shapes[r]`` is source rank ``r``'s local shape, ``chunks[r]`` its
    slice of ``chunk_axis`` for this chunk (the same slice on every rank
    unless the chunked axis is the unpack axis of uneven slabs, where each
    rank cuts its own extent), ``pack_sizes[s]`` peer ``s``'s share of
    ``pack_axis`` (default: the even split).  Returns ``(pack, blocks,
    windows)``:

    * ``pack[s]`` indexes, within any source's chunk, the planes bound for
      peer ``s``;
    * ``blocks[r][s]`` is the shape of the ``r -> s`` send block (zero-size
      for an empty chunk or a height-0 peer);
    * ``windows[r]`` indexes, within any destination's transposed array,
      where source ``r``'s block lands: at ``r``'s cumulative offset on
      ``unpack_axis`` and the chunk's position on ``chunk_axis`` — or, when
      the two coincide, at offset + chunk (a sub-range of ``r``'s
      contribution).
    """
    size, ndim = len(shapes), len(shapes[0])
    if pack_sizes is None:
        pack_sizes = (shapes[0][pack_axis] // size,) * size

    def index(axis: int, start: int, extent: int) -> list:
        sl = [slice(None)] * ndim
        sl[axis] = slice(start, start + extent)
        return sl

    pack, off = [], 0
    for extent in pack_sizes:
        pack.append(tuple(index(pack_axis, off, extent)))
        off += extent
    blocks, windows, off = [], [], 0
    for shape, chunk in zip(shapes, chunks):
        block = list(shape)
        block[chunk_axis] = chunk.stop - chunk.start
        blocks.append([
            tuple(block[:pack_axis] + [extent] + block[pack_axis + 1:])
            for extent in pack_sizes
        ])
        if chunk_axis == unpack_axis:
            window = index(unpack_axis, off + chunk.start, block[chunk_axis])
        else:
            window = index(unpack_axis, off, shape[unpack_axis])
            window[chunk_axis] = chunk
        windows.append(tuple(window))
        off += shape[unpack_axis]
    return pack, blocks, windows


def complete_chunk_exchange(handle: PendingAlltoall) -> int:
    """Wait one posted chunk exchange; returns the exchanged bytes.

    The request was posted with receive windows, so when it completes the
    chunk already sits in every destination's transposed slab.
    """
    return sum(b.nbytes for blocks in handle.wait() for b in blocks)
