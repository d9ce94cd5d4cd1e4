"""The four 1-D stages of the slab transform, declared once.

The paper's 3-D transform (Sec. 3.3) is y, transpose, z, x going to
physical space and x, z, transpose, y coming back: two stages either side
of the one all-to-all.  Every engine indexes :data:`STAGES` — the inline
path of :class:`~repro.dist.slab_fft.SlabDistributedFFT`, the ``stage1`` /
``stage2`` ops of the :class:`~repro.mpi.procs.ProcsComm` workers and the
compute stage of :class:`~repro.dist.outofcore.OutOfCoreSlabFFT` — so the
operations, their order and the normalization exist in one place and the
engines stay bit-equal by construction.

A kernel is ``fn(a, n, lf, out=None)``: ``a`` a ``[kz, y, x]`` block holding
complete lines along the transformed axes, ``n`` the grid size, ``lf`` a
:func:`~repro.spectral.workspace.resolve_line_fft` provider.  With ``out``
the result lands there (``out`` may be ``a`` when the stage keeps shape and
dtype) and intermediates are written into a buffer the kernel was handed,
so a kernel never holds two block-sized temporaries at once — the
out-of-core engine's ring slots are the only pencil storage it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["STAGES", "Stage"]

_KZ_AXIS, _Y_AXIS, _X_AXIS = 0, 1, 2


def _inv_y(a, n, lf, out=None):
    """Inverse stage 1: 1-D inverse FFTs in y on the kz-slab."""
    return np.multiply(lf.ifft(a, axis=_Y_AXIS), n, out=out)


def _inv_zx(a, n, lf, out=None):
    """Inverse stage 2: z, then complex-to-real x, on the y-slab.

    Overwrites ``a`` with the z-transformed intermediate; callers hand it
    a buffer they own (a ring slot, the worker's gathered concatenation,
    the post-transpose work list).
    """
    np.multiply(lf.ifft(a, axis=_KZ_AXIS), n, out=a)
    return np.multiply(lf.irfft(a, n=n, axis=_X_AXIS), n, out=out)


def _fwd_xz(a, n, lf, out=None):
    """Forward stage 1: real-to-complex x, then z, on the y-slab."""
    if out is None:
        return lf.fft(lf.rfft(a, axis=_X_AXIS), axis=_KZ_AXIS)
    out[...] = lf.rfft(a, axis=_X_AXIS)
    out[...] = lf.fft(out, axis=_KZ_AXIS)
    return out


def _fwd_y(a, n, lf, out=None):
    """Forward stage 2: y FFTs plus the 1/N^3 normalization."""
    return np.divide(lf.fft(a, axis=_Y_AXIS), n**3, out=out)


@dataclass(frozen=True)
class Stage:
    """One kernel, its span name, and which side of the r2c/c2r pair it
    sits on — from which the output shape and dtype follow."""

    fn: Callable
    span: str
    real_in: bool = False
    real_out: bool = False

    def out_shape(self, shape, n: int) -> tuple[int, int, int]:
        """Shape ``fn`` returns for a ``[kz, y, x]`` input of ``shape``."""
        kz, y, x = shape
        if self.real_in:
            x = x // 2 + 1
        elif self.real_out:
            x = n
        return (kz, y, x)

    def out_dtype(self, dtype) -> np.dtype:
        """Dtype ``fn`` returns for an input of ``dtype`` (same precision)."""
        dtype = np.dtype(dtype)
        if self.real_in:
            return np.result_type(dtype, np.complex64)
        if self.real_out:
            return np.finfo(dtype).dtype
        return dtype


STAGES: dict[str, Stage] = {
    "inv_y": Stage(_inv_y, "fft.y"),
    "inv_zx": Stage(_inv_zx, "fft.zx", real_out=True),
    "fwd_xz": Stage(_fwd_xz, "fft.xz", real_in=True),
    "fwd_y": Stage(_fwd_y, "fft.y"),
}
