"""Distributed 3-D FFT with the paper's 1-D slab decomposition, fused into
the workers of a process pool.

Transform order matches the production code (paper Sec. 3.3): going from
Fourier to physical space the order is **y, z, x** — 1-D complex FFTs in y
while the data sits in kz-slabs, one global transpose, then z and finally
the complex-to-real x transform on unit-stride lines; physical to Fourier
reverses this (x, z, transpose, y).

One all-to-all per 3-D transform — the defining property of the slab
decomposition that lets the paper send fewer, larger messages.

This engine runs only over a communicator that offers
``comm.rank_transpose`` (:class:`repro.mpi.procs.ProcsComm`): the whole
stage sequence is *fused* into the workers' packs and unpacks — FFTs run
in the process that owns the slab, on a provider resolved there, and a
substage's fields cross in one exchange per direction.  In process,
the whole slab is the out-of-core engine's one-pencil case
(:class:`repro.dist.outofcore.OutOfCoreSlabFFT` with ``npencils=1``).  Both
index the same :data:`repro.dist.stages.STAGES` kernels, so results are
bit-equal.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.dist.decomp import SlabDecomposition
from repro.obs import NULL_OBS
from repro.spectral.grid import SpectralGrid
from repro.spectral.workspace import resolve_fft

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.procs import ProcsComm
    from repro.obs import Observability

__all__ = ["SlabDistributedFFT"]

_KZ_AXIS, _Y_AXIS = 0, 1


class SlabDistributedFFT:
    """Forward/inverse 3-D transforms over the slabs of worker-process ranks.

    Normalization matches :mod:`repro.spectral.transforms`: forward carries
    1/N^3; a forward/inverse round trip is the identity.

    ``comm`` must offer ``rank_transpose`` (a
    :class:`~repro.mpi.procs.ProcsComm`); any other communicator is a
    ``ValueError`` naming the in-process engine.  ``fft_backend`` selects
    the 1-D line-transform provider (``numpy`` / ``scipy`` / ``auto``) the
    workers resolve.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mpi.procs import ProcsComm
    >>> from repro.spectral import SpectralGrid
    >>> g = SpectralGrid(16)
    >>> with ProcsComm(2) as comm:
    ...     fft = SlabDistributedFFT(g, comm)
    ...     u = np.random.default_rng(0).standard_normal(g.physical_shape)
    ...     hat_locs = fft.forward(fft.decomp.scatter_physical(u))
    ...     back = fft.decomp.gather_physical(fft.inverse(hat_locs))
    >>> bool(np.allclose(back, u))
    True
    """

    def __init__(
        self,
        grid: SpectralGrid,
        comm: "ProcsComm",
        obs: "Observability | None" = None,
        fft_backend: str = "numpy",
        heights: "Sequence[int] | None" = None,
    ):
        if getattr(comm, "rank_transpose", None) is None:
            raise ValueError(
                f"SlabDistributedFFT fuses its stages into worker processes "
                f"and needs a comm with rank_transpose (comm='procs'), not "
                f"{type(comm).__name__}; in process the whole slab is "
                f"OutOfCoreSlabFFT(npencils=1)"
            )
        self.grid = grid
        self.comm = comm
        hs = tuple(int(h) for h in heights) if heights is not None else None
        self.decomp = SlabDecomposition(grid.n, comm.size, heights=hs)
        self.obs = obs if obs is not None else NULL_OBS
        self.fft_backend = fft_backend
        resolve_fft(fft_backend)  # fails fast when unavailable
        #: Per rank, the product spectra between :meth:`product_spectra`'s
        #: two exchanges, in the worker's shared memory; claimed on first use.
        self._fields: list[np.ndarray] = []

    def resident(self, shapes: Sequence[Sequence[int]], dtype) -> list[np.ndarray]:
        """Per-rank arrays in each rank's worker's shared memory."""
        return self.comm.resident(shapes, dtype)

    def each_rank(self, fn: Callable, *per_rank_args: Sequence, spans=None,
                  wait: bool = True) -> "list | None":
        """``fn(*(a[r] for a in per_rank_args))`` in every rank's worker
        (``fn`` module-level, its arrays :meth:`resident`); returns the
        per-rank results.  ``wait=False``: the results are not wanted, and
        the calls may go with the pool's next message."""
        return self.comm.each_rank(fn, *per_rank_args, spans=spans, wait=wait)

    def _kwargs(self) -> dict:
        """What every ``rank_transpose`` call carries: grid, provider,
        telemetry and the per-rank slab extents of an uneven split."""
        kwargs = dict(n=self.grid.n, fft=self.fft_backend, obs=self.obs)
        if self.decomp.heights is not None:
            kwargs["pack_sizes"] = self.decomp.rank_heights
        return kwargs

    def _transform(
        self, locals_, shape_of, pre, post, pack_axis, unpack_axis, out, out_dtype,
    ) -> list[np.ndarray]:
        """``pre`` stage, the one global transpose, ``post`` stage — all in
        the workers' pack and unpack, which checks ``out`` per rank."""
        self.decomp.check_locals(locals_, shape_of)
        out = self.comm.rank_transpose(
            locals_, pack_axis=pack_axis, unpack_axis=unpack_axis, pre=pre,
            post=post, out_dtype=out_dtype, out=out, **self._kwargs())
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
        shape- and dtype-checked, :meth:`resident`); omitted, resident ones
        are claimed."""
        return self._transform(
            spectral_locals, self.decomp.local_spectral_shape,
            "inv_y", "inv_zx", _Y_AXIS, _KZ_AXIS, out, self.grid.dtype,
        )

    def forward(
        self, physical_locals: Sequence[np.ndarray], out=None
    ) -> list[np.ndarray]:
        """y-slabs of the real field -> kz-slabs of coefficients (x, z,
        transpose, y — the reverse order).  ``out`` as for :meth:`inverse`."""
        return self._transform(
            physical_locals, self.decomp.local_physical_shape,
            "fwd_xz", "fwd_y", _KZ_AXIS, _Y_AXIS, out, self.grid.cdtype,
        )

    def product_spectra(
        self,
        coeffs: Sequence[np.ndarray],
        pairs: Sequence[tuple[int, int]],
        out=None,
        wait: bool = True,
        land=None,
    ) -> list[np.ndarray]:
        """Field spectra in, product spectra out — the contract of
        :meth:`repro.dist.outofcore.OutOfCoreSlabFFT.product_spectra`.

        ``coeffs[r]`` holds rank ``r``'s fields ``[field, kz, y, x]``;
        ``out[r][p]`` receives the transform of ``u_i u_j`` for ``pairs[p]
        = (i, j)`` and may share memory with ``coeffs`` (omitted, it is
        claimed resident); the first exchange lands in ``land[r]`` when
        given.  Every array is :meth:`resident`.

        Two batched ``rank_transpose`` calls, queued as one message per
        worker: the y-FFTs of all fields and their all-to-all, then in each
        worker the z/x transforms, the products and their x/z transforms
        into resident spectra; then those spectra's all-to-all and y-FFTs
        into ``out``.  The workers meet at a barrier per exchange.

        ``wait=False`` leaves both exchanges queued for the pool's next
        message: ``out`` is then complete only once a later call that
        waits has returned.
        """
        d, nfields, npairs = self.decomp, coeffs[0].shape[0], len(pairs)
        d.check_locals(coeffs, lambda r: (nfields, *d.local_spectral_shape(r)))
        if not self._fields or self._fields[0].shape[0] < npairs:
            self._fields = self.resident(
                [(npairs, self.grid.n, d.height(r), self.grid.n // 2 + 1)
                 for r in range(self.comm.size)], self.grid.cdtype)
        spectra = [f[:npairs] for f in self._fields]
        if land is not None:
            land = d.y_slabs(land, nfields, self.grid.cdtype)
        kwargs = self._kwargs()
        self.comm.rank_transpose(
            coeffs, pack_axis=1 + _Y_AXIS, unpack_axis=1 + _KZ_AXIS,
            pre="inv_y", post="inv_zx", pairs=tuple(pairs), out=spectra,
            wait=False, land=land, **kwargs)
        out = self.comm.rank_transpose(
            spectra, pack_axis=1 + _KZ_AXIS, unpack_axis=1 + _Y_AXIS,
            post="fwd_y", out=out, wait=wait, **kwargs)
        if self.obs.enabled:
            self.obs.metrics.counter("fft.calls").inc(2)
        return out
