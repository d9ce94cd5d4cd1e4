"""Distributed 3-D FFT with the paper's 1-D slab decomposition.

Transform order matches the production code (paper Sec. 3.3): going from
Fourier to physical space the order is **y, z, x** — 1-D complex FFTs in y
while the data sits in kz-slabs, one global transpose, then z and finally
the complex-to-real x transform on unit-stride lines; physical to Fourier
reverses this (x, z, transpose, y).

One all-to-all per 3-D transform — the defining property of the slab
decomposition that lets the paper send fewer, larger messages.

The 1-D line transforms go through the pluggable providers of
:func:`repro.spectral.workspace.resolve_fft`; when the communicator is
a process-pool backend (:class:`repro.mpi.procs.ProcsComm`) the whole
stage sequence is *fused* into the workers' packing and unpacking rounds via
``comm.rank_transpose`` — FFTs run in the process that owns the slab, on a
provider resolved there, and a substage's fields cross in one exchange per
direction.  Both paths index the same :data:`repro.dist.stages.STAGES`
kernels, so results are bit-equal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.dist.decomp import SlabDecomposition
from repro.dist.stages import STAGES
from repro.dist.transpose import (
    slab_transpose_physical_to_spectral,
    slab_transpose_spectral_to_physical,
)
from repro.dist.virtual_mpi import VirtualComm
from repro.obs import NULL_OBS
from repro.spectral.grid import SpectralGrid
from repro.spectral.workspace import resolve_fft

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs import Observability

__all__ = ["SlabDistributedFFT"]

_KZ_AXIS, _Y_AXIS = 0, 1


class SlabDistributedFFT:
    """Forward/inverse 3-D transforms over slab-decomposed virtual ranks.

    Normalization matches :mod:`repro.spectral.transforms`: forward carries
    1/N^3; a forward/inverse round trip is the identity.

    ``fft_backend`` selects the 1-D line-transform provider (``numpy`` /
    ``scipy`` / ``auto``) used on both the inline and the fused
    process-pool path.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.dist import VirtualComm
    >>> from repro.spectral import SpectralGrid
    >>> g = SpectralGrid(16); comm = VirtualComm(4)
    >>> fft = SlabDistributedFFT(g, comm)
    >>> u = np.random.default_rng(0).standard_normal(g.physical_shape)
    >>> locs = fft.decomp.scatter_physical(u)
    >>> hat_locs = fft.forward(locs)
    >>> back = fft.decomp.gather_physical(fft.inverse(hat_locs))
    >>> bool(np.allclose(back, u))
    True
    """

    def __init__(
        self,
        grid: SpectralGrid,
        comm: VirtualComm,
        obs: "Observability | None" = None,
        fft_backend: str = "numpy",
        heights: "Sequence[int] | None" = None,
    ):
        self.grid = grid
        self.comm = comm
        hs = tuple(int(h) for h in heights) if heights is not None else None
        self.decomp = SlabDecomposition(grid.n, comm.size, heights=hs)
        self.obs = obs if obs is not None else NULL_OBS
        self.fft_backend = fft_backend
        self._lf = resolve_fft(fft_backend)  # fails fast when unavailable
        #: Per rank, what :meth:`product_spectra` claims on first use: in
        #: process the physical fields and the product being formed, over a
        #: process pool the product spectra between the two exchanges.
        self._fields: list[np.ndarray] = []

    def resident(self, shapes: Sequence[Sequence[int]], dtype) -> list[np.ndarray]:
        """Per-rank arrays where rank ``r``'s work addresses them: in its
        worker's shared memory over a process pool, plain arrays in process."""
        return self.comm.resident(shapes, dtype)

    def each_rank(self, fn: Callable, *per_rank_args: Sequence, spans=None,
                  wait: bool = True) -> "list | None":
        """``fn(*(a[r] for a in per_rank_args))`` for every rank where the
        rank lives — in rank order on the calling thread in process, in the
        rank's worker over a process pool (``fn`` then module-level, its
        arrays :meth:`resident`); returns the per-rank results.
        ``wait=False``: the results are not wanted, and a process pool may
        send the calls with its next message."""
        return self.comm.each_rank(fn, *per_rank_args, spans=spans, wait=wait)

    @property
    def _fused(self) -> bool:
        """Whether the comm offers the fused worker-side transpose."""
        return getattr(self.comm, "rank_transpose", None) is not None

    @property
    def _heights(self) -> "tuple[int, ...] | None":
        """Per-rank slab extents to thread through exchanges (None = even)."""
        return None if self.decomp.heights is None else self.decomp.rank_heights

    def _stage(
        self, name: str, locals_: Sequence[np.ndarray], out=None
    ) -> list[np.ndarray]:
        """One :data:`~repro.dist.stages.STAGES` kernel over every rank's
        block, into ``out[r]`` when the caller owns the results."""
        stage = STAGES[name]
        outs = out if out is not None else [None] * len(locals_)
        with self.obs.spans.span(stage.span, category="fft"):
            return [
                stage.fn(loc, self.grid.n, self._lf, out=o)
                for loc, o in zip(locals_, outs)
            ]

    def _transform(
        self, locals_, shape_of, pre, post, transpose, pack_axis, unpack_axis,
        out, out_shape_of, out_dtype,
    ) -> list[np.ndarray]:
        """``pre`` stage, the one global transpose, ``post`` stage."""
        self.decomp.check_locals(locals_, shape_of)
        if out is not None:
            self.decomp.check_locals(out, out_shape_of, out_dtype)
        if self._fused:
            kwargs = {} if self._heights is None else {"pack_sizes": self._heights}
            out = self.comm.rank_transpose(
                locals_,
                pack_axis=pack_axis,
                unpack_axis=unpack_axis,
                pre=pre,
                post=post,
                n=self.grid.n,
                out_dtype=out_dtype,
                fft=self.fft_backend,
                obs=self.obs,
                out=out,
                **kwargs,
            )
        else:
            work = transpose(
                self.comm, self._stage(pre, locals_), obs=self.obs,
                heights=self._heights,
            )
            out = [
                o.astype(out_dtype, copy=False)
                for o in self._stage(post, work, out)
            ]
        if self.obs.enabled:
            self.obs.metrics.counter("fft.calls").inc()
        return out

    def inverse(
        self, spectral_locals: Sequence[np.ndarray], out=None
    ) -> list[np.ndarray]:
        """kz-slabs of coefficients -> y-slabs of the real field: 1-D
        inverse FFTs in y (kz-slabs hold complete y lines), the global
        transpose to y-slabs, then z and the complex-to-real x transform.
        ``out`` hands over the per-rank result arrays (NumPy's ``out=``,
        shape- and dtype-checked); omitted, fresh ones are returned."""
        return self._transform(
            spectral_locals, self.decomp.local_spectral_shape,
            "inv_y", "inv_zx", slab_transpose_spectral_to_physical,
            _Y_AXIS, _KZ_AXIS,
            out, self.decomp.local_physical_shape, self.grid.dtype,
        )

    def forward(
        self, physical_locals: Sequence[np.ndarray], out=None
    ) -> list[np.ndarray]:
        """y-slabs of the real field -> kz-slabs of coefficients (x, z,
        transpose, y — the reverse order).  ``out`` as for :meth:`inverse`."""
        return self._transform(
            physical_locals, self.decomp.local_physical_shape,
            "fwd_xz", "fwd_y", slab_transpose_physical_to_spectral,
            _KZ_AXIS, _Y_AXIS,
            out, self.decomp.local_spectral_shape, self.grid.cdtype,
        )

    def product_spectra(
        self,
        coeffs: Sequence[np.ndarray],
        pairs: Sequence[tuple[int, int]],
        out=None,
        wait: bool = True,
    ) -> list[np.ndarray]:
        """Field spectra in, product spectra out — the contract of
        :meth:`repro.dist.outofcore.OutOfCoreSlabFFT.product_spectra`.

        ``coeffs[r]`` holds rank ``r``'s fields ``[field, kz, y, x]``;
        ``out[r][p]`` receives the transform of ``u_i u_j`` for ``pairs[p]
        = (i, j)`` and may share memory with ``coeffs``.

        Over a process pool every field of one direction crosses in one
        exchange: the y-FFTs of all fields and their all-to-all, then in
        each worker the z/x transforms, the products and their x/z
        transforms into resident spectra; then those spectra's all-to-all
        and y-FFTs into ``out``.  In process it is one whole-slab transform
        (and all-to-all) per field and per product — the bit-equal reference.

        ``wait=False`` lets a process pool send the last unpack with its
        next message: ``out`` is then complete only once the next rank call
        or exchange has run (in process it is complete on return).
        """
        d, nfields = self.decomp, coeffs[0].shape[0]
        self.decomp.check_locals(
            coeffs, lambda r: (nfields, *d.local_spectral_shape(r)))
        if out is None:
            out = self.resident([(len(pairs), *d.local_spectral_shape(r))
                                 for r in range(self.comm.size)], self.grid.cdtype)
        if self._fused:
            return self._worker_products(coeffs, pairs, out, wait)
        if not self._fields or self._fields[0].shape[0] < nfields + 1:
            self._fields = [
                np.empty((nfields + 1, *d.local_physical_shape(r)), self.grid.dtype)
                for r in range(self.comm.size)
            ]
        fields = self._fields
        for f in range(nfields):
            self.inverse([c[f] for c in coeffs], out=[u[f] for u in fields])
        for p, (i, j) in enumerate(pairs):
            with self.obs.spans.span("nl.products", category="nonlinear"):
                for u in fields:
                    np.multiply(u[i], u[j], out=u[-1])
            self.forward([u[-1] for u in fields], out=[o[p] for o in out])
        return out

    def _worker_products(self, coeffs, pairs, out, wait) -> list[np.ndarray]:
        """:meth:`product_spectra` as two batched ``rank_transpose`` calls,
        in three rounds: the first exchange's unpack (and products) rides
        with the second exchange's pack."""
        d, npairs = self.decomp, len(pairs)
        shapes = [(npairs, self.grid.n, d.height(r), self.grid.n // 2 + 1)
                  for r in range(self.comm.size)]
        if not self._fields or self._fields[0].shape[0] < npairs:
            self._fields = self.resident(shapes, self.grid.cdtype)
        spectra = [f[:npairs] for f in self._fields]
        kwargs = dict(n=self.grid.n, fft=self.fft_backend, obs=self.obs)
        if self._heights is not None:
            kwargs["pack_sizes"] = self._heights
        self.comm.rank_transpose(
            coeffs, pack_axis=1 + _Y_AXIS, unpack_axis=1 + _KZ_AXIS,
            pre="inv_y", post="inv_zx", pairs=tuple(pairs), out=spectra,
            wait=False, **kwargs)
        self.comm.rank_transpose(
            spectra, pack_axis=1 + _KZ_AXIS, unpack_axis=1 + _Y_AXIS,
            post="fwd_y", out=out, wait=wait, **kwargs)
        if self.obs.enabled:
            self.obs.metrics.counter("fft.calls").inc(2)
        return out
