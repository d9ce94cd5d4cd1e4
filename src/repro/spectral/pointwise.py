"""The pointwise (non-FFT) half of an RK substage, bound to one kz-slab.

Between the transforms a pseudo-spectral step only multiplies and adds:
shift the coefficients onto the displaced grid, turn the product transforms
into the projected, dealiased right-hand side (a scalar's flux transforms
into its divergence), and combine stages with the integrating factor.
:class:`PointwiseKernel` does those three things for a slab ``[z0:z1]`` of
the spectral cube — the serial solver is the slab of height ``N``, a
distributed rank binds its own ``kz`` range — so both solvers run the same
arithmetic.

Four ideas keep it close to memory speed and small (DESIGN.md §8):

* **One factor.**  Projection commutes with a per-mode scalar,
  ``P(G a) = G P(a)``, so ``-i``, the dealias mask and the conjugate phase
  shift fold into one complex factor ``G`` applied once per component after
  the projection, instead of three passes before it.
* **1-D bases.**  ``exp(i k.d)`` and ``exp(-nu k^2 t)`` are products of three
  1-D arrays; a block of either is rebuilt from a cached plane and a ``kz``
  column while it is needed, so no full-grid factor is ever stored or read.
* **Float views and blocks.**  Wavenumbers and decay are real, so every
  multiply by them runs on the ``float`` view of the complex data (half the
  flops of a complex multiply, and a same-dtype ufunc), a few ``z`` planes at
  a time so that the temporaries of one sweep stay in L2.
* **Streaming.**  Each product transform is added into the right-hand side
  as it arrives, which is then projected in place: no store of product
  transforms, and the mask is one byte per mode that zeroes ``G``.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.spectral.dealias import DealiasRule, sharp_truncation_mask
from repro.spectral.grid import SpectralGrid

__all__ = ["PRODUCT_PAIRS", "PointwiseKernel"]

#: The six distinct products u_i u_j, in the order
#: :meth:`PointwiseKernel.accumulate` takes their transforms.
PRODUCT_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

#: Bytes of one block-sized temporary.  A sweep keeps up to six alive, so
#: this holds them in a 2 MiB L2; a whole 32^3 slab (272 KiB) is one block.
_BLOCK_BYTES = 320 * 1024
#: Block-sized scratch arrays: the sweep names four; a combination uses
#: three and one per decay group (at most three).
_NSCRATCH = 6


class PointwiseKernel:
    """Shift, right-hand side and RK combination on the kz-slab ``zslice``.

    ``mask`` is the full-grid dealias mask (0/1); the kernel keeps which
    modes of its slab it removes, one byte each.  Arrays handed to the
    methods are spectral slabs ``(..., mz, N, N//2+1)`` of ``grid.cdtype``,
    C-contiguous along x.
    """

    #: ``(n, length, dtype, dealias, z0, z1)`` of a kernel built by
    #: :meth:`for_slab`: enough to rebuild it in another process.
    recipe: Optional[tuple] = None

    def __init__(self, grid: SpectralGrid, mask: np.ndarray,
                 zslice: slice = slice(None)):
        self.grid = grid
        self.zslice = zslice
        n, nxh = grid.n, grid.n // 2 + 1
        real = grid.dtype
        kx, ky, kz = (k.ravel() for k in grid.k_vectors)
        kz = kz[zslice]
        self._k1d = (kx, ky, kz)
        self.mz = kz.shape[0]
        # Real operands in float-view layout: x doubled (re, im interleaved),
        # kx and ky spread over a whole plane so ufunc inner loops run over
        # N*(N+2) contiguous elements instead of N+2.
        plane = (n, 2 * nxh)
        self._kx = np.ascontiguousarray(np.broadcast_to(np.repeat(kx, 2), plane))
        self._ky = np.ascontiguousarray(np.broadcast_to(ky[:, None], plane))
        self._kz = kz.reshape(-1, 1, 1)
        self._k2_plane = self._kx**2 + self._ky**2
        self._kz2 = self._kz**2
        self._cut = mask[zslice] == 0
        self._owns_mean_mode = self.mz > 0 and zslice.indices(n)[0] == 0
        plane_bytes = n * nxh * grid.cdtype.itemsize
        self.block = max(1, min(self.mz, _BLOCK_BYTES // plane_bytes))
        self._scratch = np.empty((_NSCRATCH, self.block, *plane), dtype=real)
        self._unit = np.ones((self.mz, 1, 1), dtype=grid.cdtype)
        # Plane-sized factors, claimed once: the shift's (ky, kx) plane, the
        # folded factor's, and one decay plane per group of a combination.
        self._shift_plane = np.empty((n, nxh), dtype=grid.cdtype)
        self._fold_plane = np.empty((n, nxh), dtype=grid.cdtype)
        self._decay_planes = np.empty((_NSCRATCH - 3, *plane), dtype=real)

    @classmethod
    def for_slab(cls, grid: SpectralGrid, dealias: DealiasRule,
                 zslice: slice = slice(None)) -> "PointwiseKernel":
        """The kernel of the sharp-truncation mask of ``dealias`` on the
        slab ``zslice``, with the :attr:`recipe` that :meth:`from_recipe`
        rebuilds it from in another process (a rank's worker,
        :mod:`repro.mpi.procs`)."""
        kernel = cls(grid, sharp_truncation_mask(grid, dealias), zslice)
        z0, z1, _ = zslice.indices(grid.n)
        kernel.recipe = (grid.n, grid.length, grid.dtype.str,
                         DealiasRule(dealias).value, z0, z1)
        return kernel

    @classmethod
    def from_recipe(cls, recipe: tuple) -> "PointwiseKernel":
        n, length, dtype, dealias, z0, z1 = recipe
        return cls.for_slab(SpectralGrid(n, length, dtype), DealiasRule(dealias),
                            slice(z0, z1))

    def _blocks(self) -> Iterator[slice]:
        for z0 in range(0, self.mz, self.block):
            yield slice(z0, min(z0 + self.block, self.mz))

    @staticmethod
    def _outer(column: np.ndarray, plane: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[z] = column[z] * plane``.  Two steps, because a ufunc call
        with *two* broadcasting operands makes NumPy's iterator allocate a
        fixed-size buffer for each (up to 128 KiB apiece)."""
        out[...] = plane
        out *= column
        return out

    def _slab(self, a: np.ndarray) -> np.ndarray:
        """Float view of ``a`` with one leading component axis."""
        f = a.view(self.grid.dtype)
        # Not reshape(-1, ...): a zero-height slab has no size to infer from.
        return f if f.ndim == 4 else f[None]

    # -- phase shift ---------------------------------------------------------

    def shift_bases(self, shift: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The factors of ``exp(i k.d)`` on this slab: a kz column and one
        (ky, kx) plane.  Pass the result to :meth:`shifted` and :meth:`rhs`;
        the plane is the kernel's own and holds until the next call."""
        shift = np.asarray(shift, dtype=float)
        if shift.shape != (3,):
            raise ValueError("shift must be a 3-vector (dx, dy, dz)")
        kx, ky, kz = self._k1d
        c = self.grid.cdtype
        bx, by, bz = (np.exp(1j * k * d).astype(c) for k, d in zip((kx, ky, kz), shift))
        plane = self._shift_plane
        plane[...] = by[:, None]
        plane *= bx
        return bz.reshape(-1, 1, 1), plane

    def shifted(self, u: np.ndarray, bases, out: np.ndarray) -> np.ndarray:
        """``out = u * exp(i k.d)``: the coefficients of ``u`` evaluated on
        the grid displaced by ``d``."""
        sz, syx = bases
        s = self._scratch[0].view(self.grid.cdtype)
        components = [(u, out)] if u.ndim == 3 else list(zip(u, out))
        for sl in self._blocks():
            sb = self._outer(sz[sl], syx, s[: sl.stop - sl.start])
            for uc, oc in components:
                np.multiply(uc[sl], sb, out=oc[sl])
        return out

    # -- right-hand side -----------------------------------------------------

    def accumulate(self, out: np.ndarray, pairs, transforms) -> np.ndarray:
        """Add product transforms into the state-shaped ``out``: that of
        ``u_i u_j`` adds ``k_j T`` to ``out[i]`` and ``k_i T`` to ``out[j]``
        (once if ``i == j``), a flux ``u_c theta_s`` (pair ``(c, s)``,
        ``s >= 3``) ``k_c T`` to ``out[s]``.  A ``k_x`` term starts its sum,
        so pass them in :data:`PRODUCT_PAIRS` (flux: ``c``) order, all at once
        or one per call: each sum adds x, y, z in that order."""
        outf = self._slab(out)
        adds = [(outf[a], b, t.view(outf.dtype))
                for (i, j), t in zip(pairs, transforms)
                for a, b in ((i, j), (j, i))[: 1 + (i != j)] if b < 3]
        for sl in self._blocks():
            k = (self._kx, self._ky, self._kz[sl])
            t = self._scratch[0][: sl.stop - sl.start]
            for acc, b, f in adds:
                if b:
                    np.add(acc[sl], np.multiply(f[sl], k[b], out=t), out=acc[sl])
                else:
                    np.multiply(f[sl], k[0], out=acc[sl])
        return out

    def rhs(self, a: np.ndarray, bases, out: np.ndarray,
            conservative: bool = True) -> np.ndarray:
        """``out_i = G (a_i - k_i (k.a)/k^2)``, ``G = c mask conj(shift)``,
        from :meth:`accumulate`'s ``a_i = sum_j k_j (u_i u_j)_hat`` (``c =
        -i``) or, not ``conservative``, ``a = (u x omega)_hat`` (``c = 1``);
        ``bases`` as the products were shifted or None.  ``out`` may be ``a``."""
        return self._sweep(list(self._slab(a)), out,
                           self._fold(-1j if conservative else 1.0, bases))

    def _fold(self, lead: complex, bases) -> tuple[np.ndarray, np.ndarray]:
        """``lead * conj(shift)`` as a kz column and a (ky, kx) plane."""
        plane = self._fold_plane
        if bases is None:
            plane[...] = lead
            return self._unit, plane
        np.conjugate(bases[1], out=plane)
        return np.conj(bases[0]), np.multiply(lead, plane, out=plane)

    def scalar_rhs(self, a: np.ndarray, bases, out: np.ndarray,
                   gradient: float = 0.0, u_y=None) -> np.ndarray:
        """``out = G a - gradient u_y``, ``G = -i mask conj(shift)``: a
        scalar's right-hand side from its accumulated ``k . flux`` and the
        mean-gradient production by the unshifted ``u_y``; one component,
        ``out`` may be ``a``."""
        fold = self._fold(-1j, bases)
        g, t = self._scratch[0].view(self.grid.cdtype), self._scratch[1]
        for sl in self._blocks():
            gb = self._outer(fold[0][sl], fold[1], g[: sl.stop - sl.start])
            np.copyto(gb, 0, where=self._cut[sl])  # G carries the mask
            np.multiply(a[sl], gb, out=out[sl])
            if gradient:
                o = out[sl].view(self.grid.dtype)
                np.add(np.multiply(u_y[sl].view(o.dtype), -gradient,
                                   out=t[: len(o)]), o, out=o)
        return out

    def truncate(self, a: np.ndarray) -> np.ndarray:
        """Zero, in place, the modes of the slab ``a`` that the mask removes."""
        return np.multiply(a, 0, out=a, where=self._cut)

    def project(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``v - k (k.v)/k^2`` on the slab (``out`` may be ``v``)."""
        if out is None:
            out = np.empty_like(v)
        return self._sweep(list(self._slab(v)), out, None)

    def _sweep(self, a, out, fold) -> np.ndarray:
        kx, ky = self._kx, self._ky
        q, tmp, k2, gf = self._scratch[:4]
        g = gf.view(self.grid.cdtype)
        outf = self._slab(out)
        for sl in self._blocks():
            b = sl.stop - sl.start
            k = (kx, ky, self._kz[sl])
            t = tmp[:b]
            ab = [ai[sl] for ai in a]
            kda = np.multiply(ab[0], k[0], out=q[:b])
            kda += np.multiply(ab[1], k[1], out=t)
            kda += np.multiply(ab[2], k[2], out=t)
            k2b = k2[:b]
            k2b[...] = self._k2_plane
            k2b += self._kz2[sl]
            if self._owns_mean_mode and sl.start == 0:
                k2b[0, 0, :2] = 1.0  # k = 0: k.a is 0 there, keep it finite
            kda /= k2b
            if fold is not None:
                gb = self._outer(fold[0][sl], fold[1], g[:b])
                np.copyto(gb, 0, where=self._cut[sl])
            for i in range(3):  # after k.a: ``out`` may be ``a``
                np.multiply(kda, k[i], out=t)
                if fold is None:
                    np.subtract(ab[i], t, out=outf[i, sl])
                else:
                    np.subtract(ab[i], t, out=t)
                    np.multiply(t.view(gb.dtype), gb, out=out[i, sl])
        return out

    def curl(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = i k x v`` (vorticity of a velocity slab)."""
        kx, ky = self._kx, self._ky
        t0, t1 = self._scratch[:2]
        vf = self._slab(v)
        for sl in self._blocks():
            b = sl.stop - sl.start
            k = (kx, ky, self._kz[sl])
            for i, (p, r) in enumerate(((1, 2), (2, 0), (0, 1))):
                w = np.multiply(vf[r, sl], k[p], out=t0[:b])
                w -= np.multiply(vf[p, sl], k[r], out=t1[:b])
                np.multiply(w.view(out.dtype), 1j, out=out[i, sl])
        return out

    # -- integrating-factor RK combination -----------------------------------

    def combine(self, out: np.ndarray, nu: float, groups) -> np.ndarray:
        """``out = sum_g exp(-nu k^2 tau_g) * sum_t c_t a_t``.

        ``groups`` is a sequence of ``(tau, [(c, a), ...])``; ``tau = 0``
        means no decay.  Every stage of the integrating-factor RK2 and RK4
        schemes is one such expression.  ``out`` may be any of the ``a``.
        """
        real = self.grid.dtype
        kx, ky, kz = self._k1d
        decays = []
        for (tau, _), plane in zip(groups, self._decay_planes):
            if tau == 0:
                decays.append(None)
                continue
            ex, ey, ez = (np.exp(-nu * tau * k.astype(float) ** 2).astype(real)
                          for k in (kx, ky, kz))
            plane[...] = ey[:, None]
            plane *= np.repeat(ex, 2)
            decays.append((ez.reshape(-1, 1, 1), plane))
        terms = [[(c, self._slab(a)) for c, a in ts] for _, ts in groups]
        outf = self._slab(out)
        acc, part, tmp = self._scratch[:3]
        last = len(terms) - 1
        for sl in self._blocks():
            b = sl.stop - sl.start
            eb = [None if d is None else self._outer(d[0][sl], d[1], e[:b])
                  for d, e in zip(decays, self._scratch[3:])]
            for c in range(outf.shape[0]):
                for gi, (e, ts) in enumerate(zip(eb, terms)):
                    dst = part[:b] if gi else acc[:b]
                    coef, a = ts[0]
                    np.multiply(a[c, sl], coef, out=dst)
                    for coef, a in ts[1:]:
                        # A unit coefficient adds straight from the source.
                        dst += (a[c, sl] if coef == 1.0 else
                                np.multiply(a[c, sl], coef, out=tmp[:b]))
                    # Whichever operation comes last writes the block out.
                    if e is not None:
                        np.multiply(dst, e, out=outf[c, sl] if last == 0 else dst)
                    elif last == 0:
                        np.copyto(outf[c, sl], dst)
                    if gi:
                        np.add(acc[:b], dst,
                               out=outf[c, sl] if gi == last else acc[:b])
        return out
