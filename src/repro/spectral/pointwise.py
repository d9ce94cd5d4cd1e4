"""The pointwise (non-FFT) half of an RK substage, bound to one kz-slab.

Between the transforms a pseudo-spectral step only multiplies and adds:
shift the coefficients onto the displaced grid, turn the product transforms
into the projected, dealiased right-hand side (a scalar's flux transforms
into its divergence), and combine stages with the integrating factor.
:class:`PointwiseKernel` does those three things, and the energy and
dissipation sums, for a slab ``[z0:z1]`` of the spectral cube — the serial
solver is the slab of height ``N``, a distributed rank binds its own ``kz``
range — so both solvers run the same arithmetic.

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

from repro.spectral.dealias import DealiasRule, truncated_modes
from repro.spectral.grid import SpectralGrid

__all__ = ["PRODUCT_PAIRS", "PointwiseKernel"]

#: The six distinct products u_i u_j, in the order
#: :meth:`PointwiseKernel.accumulate` takes their transforms.
PRODUCT_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

#: Bytes of one block-sized temporary.  A sweep keeps up to six alive, so
#: this holds them in a 2 MiB L2; a whole 32^3 slab (272 KiB) is one block.
_BLOCK_BYTES = 320 * 1024
#: Block-sized scratch arrays: the sweep names four; a combination uses one
#: per output and per decay factor, plus two.  No RK stage combines more
#: than two outputs under two decays, which is six.
_NSCRATCH = 6
#: Plane-sized decay factors a combination may hold: two.
_NDECAYS = 2


class PointwiseKernel:
    """Shift, right-hand side, RK combination and diagnostic sums on the
    kz-slab ``zslice``.

    ``dealias`` is the :class:`~repro.spectral.dealias.DealiasRule` whose
    sharp truncation the kernel keeps for its own slab, one byte per mode
    (:func:`~repro.spectral.dealias.truncated_modes`).  Arrays handed to the
    methods are spectral slabs ``(..., mz, N, N//2+1)`` of ``grid.cdtype``,
    C-contiguous along x.
    """

    def __init__(self, grid: SpectralGrid, dealias: DealiasRule,
                 zslice: slice = slice(None)):
        self.grid = grid
        self.zslice = zslice
        dealias = DealiasRule(dealias)
        z0, z1, _ = zslice.indices(grid.n)
        #: ``(n, length, dtype, dealias, z0, z1)``: enough to rebuild the
        #: kernel in another process (a rank's worker, :mod:`repro.mpi.procs`).
        self.recipe = (grid.n, grid.length, grid.dtype.str, dealias.value, z0, z1)
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
        self._cut = truncated_modes(grid, dealias, zslice)
        # The Hermitian multiplicities along x, in float-view layout.
        self._weights = np.repeat(grid.hermitian_weights[0, 0], 2)
        self._owns_mean_mode = self.mz > 0 and z0 == 0
        plane_bytes = n * nxh * grid.cdtype.itemsize
        self.block = max(1, min(self.mz, _BLOCK_BYTES // plane_bytes))
        self._scratch = np.empty((_NSCRATCH, self.block, *plane), dtype=real)
        self._unit = np.ones((self.mz, 1, 1), dtype=grid.cdtype)
        # Plane-sized factors, claimed once: the shift's (ky, kx) plane, the
        # folded factor's, and one decay plane per group of a combination.
        self._shift_plane = np.empty((n, nxh), dtype=grid.cdtype)
        self._fold_plane = np.empty((n, nxh), dtype=grid.cdtype)
        self._decay_planes = np.empty((_NDECAYS, *plane), dtype=real)

    @classmethod
    def from_recipe(cls, recipe: tuple) -> "PointwiseKernel":
        n, length, dtype, dealias, z0, z1 = recipe
        return cls(SpectralGrid(n, length, dtype), DealiasRule(dealias),
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

    def rhs(self, a: np.ndarray, bases, out: np.ndarray) -> np.ndarray:
        """``out_i = G (a_i - k_i (k.a)/k^2)``, ``G = -i mask conj(shift)``,
        from :meth:`accumulate`'s ``a_i = sum_j k_j (u_i u_j)_hat``;
        ``bases`` as the products were shifted or None.  ``out`` may be ``a``."""
        return self._sweep(list(self._slab(a)), out, self._fold(bases))

    def _fold(self, bases) -> tuple[np.ndarray, np.ndarray]:
        """``-i conj(shift)`` as a kz column and a (ky, kx) plane."""
        plane = self._fold_plane
        if bases is None:
            plane[...] = -1j
            return self._unit, plane
        np.conjugate(bases[1], out=plane)
        return np.conj(bases[0]), np.multiply(-1j, plane, out=plane)

    def scalar_rhs(self, a: np.ndarray, bases, out: np.ndarray,
                   gradient: float = 0.0, u_y=None) -> np.ndarray:
        """``out = G a - gradient u_y``, ``G = -i mask conj(shift)``: a
        scalar's right-hand side from its accumulated ``k . flux`` and the
        mean-gradient production by the unshifted ``u_y``; one component,
        ``out`` may be ``a``."""
        fold = self._fold(bases)
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

    # -- diagnostics ---------------------------------------------------------

    def mode_sums(self, a: np.ndarray) -> tuple[float, float]:
        """``sum w |a|^2`` and ``sum w k^2 |a|^2`` over the slab's modes and
        ``a``'s components, ``w`` the Hermitian multiplicities: energy (or a
        scalar's variance) and dissipation up to their factors, in one sweep
        over 1-D bases."""
        af = self._slab(a)
        q, t, k2 = self._scratch[:3]
        energy = dissipation = 0.0
        for sl in self._blocks():
            b = sl.stop - sl.start
            sq = np.multiply(af[0, sl], af[0, sl], out=q[:b])
            for f in af[1:]:
                sq += np.multiply(f[sl], f[sl], out=t[:b])
            sq *= self._weights
            energy += float(sq.sum())
            k2b = k2[:b]
            k2b[...] = self._k2_plane
            k2b += self._kz2[sl]
            sq *= k2b
            dissipation += float(sq.sum())
        return energy, dissipation

    # -- integrating-factor RK combination -----------------------------------

    def combine(self, nu: float, jobs) -> list[np.ndarray]:
        """``out = sum_g exp(-nu k^2 tau_g) * sum_t c_t a_t`` for every
        ``(out, groups)`` of ``jobs``, in one sweep.

        ``groups`` is a sequence of ``(tau, [(c, a), ...])``; ``tau = 0``
        means no decay.  Every stage of the integrating-factor RK2 and RK4
        schemes is one such call.  Each block of every output is formed
        before any is written, so an output may be any job's input; the
        outputs share one shape.  At most two outputs under two decays, as
        the RK stages need (the scratch is sized for that).  Returns them.
        """
        taus = list(dict.fromkeys(
            tau for _, groups in jobs for tau, _ in groups if tau != 0))
        njobs, ndecays = len(jobs), len(taus)
        if njobs + 2 + ndecays > _NSCRATCH or ndecays > _NDECAYS:
            raise ValueError(
                f"{njobs} outputs under {ndecays} decays exceed the kernel's "
                f"scratch ({_NSCRATCH} blocks, {_NDECAYS} decay planes)")
        scratch, planes = self._scratch, self._decay_planes
        real = self.grid.dtype
        kx, ky, kz = self._k1d
        columns = []
        for tau, plane in zip(taus, planes):
            ex, ey, ez = (np.exp(-nu * tau * k.astype(float) ** 2).astype(real)
                          for k in (kx, ky, kz))
            plane[...] = ey[:, None]
            plane *= np.repeat(ex, 2)
            columns.append(ez.reshape(-1, 1, 1))
        work = [(self._slab(out), [
            (taus.index(tau) if tau != 0 else None,
             [(c, self._slab(a)) for c, a in terms]) for tau, terms in groups])
            for out, groups in jobs]
        held, (part, tmp) = scratch[:njobs], scratch[njobs:njobs + 2]
        for sl in self._blocks():
            b = sl.stop - sl.start
            eb = [self._outer(column[sl], plane, e[:b]) for column, plane, e
                  in zip(columns, planes, scratch[njobs + 2:])]
            for c in range(work[0][0].shape[0]):
                # The last job writes its output block; the others wait in
                # their scratch until every job has read its inputs.
                for j, (outf, groups) in enumerate(work):
                    acc = held[j][:b]
                    dst = outf[c, sl] if j == njobs - 1 else acc
                    self._form(groups, c, sl, eb, acc, part[:b], tmp[:b], dst)
                for j, (outf, _) in enumerate(work[:-1]):
                    np.copyto(outf[c, sl], held[j][:b])
        return [out for out, _ in jobs]

    @staticmethod
    def _form(groups, c, sl, eb, acc, part, tmp, dst) -> None:
        """Component ``c`` of one job's block ``sl`` into ``dst``, which may
        be ``acc``: whichever operation comes last writes it.  A unit
        coefficient multiplies exactly, so a group of one unit term is read
        from its source instead of a scaled copy of it."""
        last = len(groups) - 1
        for gi, (d, terms) in enumerate(groups):
            into = dst if last == 0 else (part if gi else acc)
            coef, a = terms[0]
            if len(terms) == 1 and coef == 1.0:
                value = a[c, sl]
                if d is not None:
                    value = np.multiply(value, eb[d], out=into)
            else:
                value = part if gi else acc
                np.multiply(a[c, sl], coef, out=value)
                for coef, a in terms[1:]:
                    # A unit coefficient adds straight from the source.
                    value += (a[c, sl] if coef == 1.0 else
                              np.multiply(a[c, sl], coef, out=tmp))
                if d is not None:
                    value = np.multiply(value, eb[d], out=into)
            total = value if gi == 0 else np.add(
                total, value, out=dst if gi == last else acc)
        if total is not dst:
            np.copyto(dst, total)
