"""The four 1-D stages of the slab transform, declared once.

The paper's 3-D transform (Sec. 3.3) is y, transpose, z, x going to
physical space and x, z, transpose, y coming back: two stages either side
of the one all-to-all.  Both engines index :data:`STAGES` — the compute
stage of :class:`~repro.dist.outofcore.OutOfCoreSlabFFT` (in process, the
whole slab is its one-pencil case) and the packing and unpacking rounds of
the :class:`~repro.mpi.procs.ProcsComm` workers behind
:class:`~repro.dist.slab_fft.SlabDistributedFFT` — so the operations, their
order and the normalization exist in one place and the engines stay
bit-equal by construction.  The independent oracle they are checked
against is the serial :func:`~repro.spectral.transforms.fft3d`.

A kernel is ``fn(a, n, lf, out=None)``: ``a`` a ``[..., kz, y, x]`` block
holding complete lines along the transformed axes (leading axes, if any,
index fields and are batched into the same calls), ``n`` the grid size, ``lf`` a
:func:`~repro.spectral.workspace.resolve_fft` provider.  With ``out`` the
result lands there (``out`` may be ``a`` when the stage keeps shape and
dtype), and no kernel allocates a block-sized temporary: the normalization
rides inside the transforms — every forward axis carries its own ``1/N``
and every inverse axis is unscaled (``norm="forward"`` on both sides) — so
no scaling pass sits between them.  The out-of-core engine's ring slots
are the only pencil storage it has.

:func:`products` is the middle of the paper's RK substage (Sec. 3.3): on a
y-slab block of the velocity it runs ``inv_zx``, forms the pairwise
products in physical space and runs ``fwd_xz`` on each, so the physical
field never leaves the block it was formed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["STAGES", "Stage", "products"]

_KZ_AXIS, _Y_AXIS, _X_AXIS = -3, -2, -1


def _inv_y(a, n, lf, out=None):
    """Inverse stage 1: 1-D inverse FFTs in y on the kz-slab."""
    return lf.ifft(a, _Y_AXIS, out=out, norm="forward")


def _inv_zx(a, n, lf, out=None):
    """Inverse stage 2: z, then complex-to-real x, on the y-slab.

    Overwrites ``a`` with the z-transformed intermediate; callers hand it
    a buffer they own (a ring slot, the worker's transposed slab,
    the post-transpose work list).
    """
    lf.ifft(a, _KZ_AXIS, out=a, norm="forward")
    return lf.irfft(a, n, _X_AXIS, out=out, norm="forward")


def _fwd_xz(a, n, lf, out=None):
    """Forward stage 1: real-to-complex x, then z, on the y-slab."""
    out = lf.rfft(a, _X_AXIS, out=out, norm="forward")
    return lf.fft(out, _KZ_AXIS, out=out, norm="forward")


def _fwd_y(a, n, lf, out=None):
    """Forward stage 2: y FFTs, the last of the three 1/N factors."""
    return lf.fft(a, _Y_AXIS, out=out, norm="forward")


@dataclass(frozen=True)
class Stage:
    """One kernel, its span name, and which side of the r2c/c2r pair it
    sits on — from which the output shape and dtype follow."""

    fn: Callable
    span: str
    real_in: bool = False
    real_out: bool = False

    def out_shape(self, shape, n: int) -> tuple[int, ...]:
        """Shape ``fn`` returns for a ``[..., kz, y, x]`` input of ``shape``."""
        *lead, x = shape
        if self.real_in:
            x = x // 2 + 1
        elif self.real_out:
            x = n
        return (*lead, x)

    def out_dtype(self, dtype) -> np.dtype:
        """Dtype ``fn`` returns for an input of ``dtype`` (same precision)."""
        dtype = np.dtype(dtype)
        if self.real_in:
            return np.result_type(dtype, np.complex64)
        if self.real_out:
            return np.finfo(dtype).dtype
        return dtype


def products(a, n, lf, out, work, pairs):
    """Product spectra of ``pairs`` from the fields' y-transformed spectra.

    ``a`` is ``[field, kz, y, x]`` after the y stage of the inverse;
    ``work`` holds one real block per field plus one for the product being
    formed; ``out[p]`` receives ``fwd_xz(a_i a_j)`` for ``pairs[p] = (i,
    j)``.  ``a`` is overwritten, and ``out`` may share its memory: every
    field is in physical space before the first product lands.
    """
    fields, prod = work[:-1], work[-1]
    _inv_zx(a, n, lf, out=fields)
    for p, (i, j) in enumerate(pairs):
        np.multiply(fields[i], fields[j], out=prod)
        _fwd_xz(prod, n, lf, out=out[p])
    return out


STAGES: dict[str, Stage] = {
    "inv_y": Stage(_inv_y, "fft.y"),
    "inv_zx": Stage(_inv_zx, "fft.zx", real_out=True),
    "fwd_xz": Stage(_fwd_xz, "fft.xz", real_in=True),
    "fwd_y": Stage(_fwd_y, "fft.y"),
}
