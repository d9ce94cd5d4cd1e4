"""Functional distributed layer: virtual ranks moving real NumPy data.

The performance layer (:mod:`repro.core`) *times* the paper's algorithm on a
simulated machine; this package *proves the algorithm correct* by actually
executing the decompositions, pack/unpack steps and all-to-all transposes on
in-process "virtual ranks" and checking the results against the
single-process ground truth of :mod:`repro.spectral`.

Contents:

* :mod:`repro.dist.virtual_mpi` — the collectives an engine calls, over
  lists of per-rank NumPy arrays (all-to-all blocking and not, allreduce),
  and the one transient-fault retry loop every exchange runs;
* :mod:`repro.dist.decomp` — slab (1-D) index maps, scatter/gather between
  global arrays and rank-local pieces (paper Fig. 1);
* :mod:`repro.dist.transpose` — the chunked all-to-all layout of every
  distributed FFT (the pencil exchange's chunks, the process pool's whole
  slab as one chunk), and the in-process monolithic pack / all-to-all /
  unpack reference they are checked against (paper Figs. 2-4);
* :mod:`repro.dist.stages` — the four 1-D stage kernels of the slab
  transform, declared once for every engine;
* :mod:`repro.dist.outofcore` — the in-process transform engine: the
  paper's batched pencil pipeline (Fig. 4), the whole slab being its
  one-pencil case, on the device of :mod:`repro.cuda.arena`;
* :mod:`repro.dist.slab_fft` — the whole-slab transform fused into the
  worker processes of :class:`repro.mpi.procs.ProcsComm`;
* :mod:`repro.dist.dist_solver` — the full pseudo-spectral RK2/RK4 step
  (velocity and passive scalars, one state) distributed over virtual ranks.
"""

from repro.dist.virtual_mpi import VirtualComm
from repro.dist.decomp import SlabDecomposition
from repro.dist.slab_fft import SlabDistributedFFT
from repro.dist.dist_solver import DistributedNavierStokesSolver
from repro.dist.outofcore import OutOfCoreSlabFFT

__all__ = [
    "DistributedNavierStokesSolver",
    "OutOfCoreSlabFFT",
    "SlabDecomposition",
    "SlabDistributedFFT",
    "VirtualComm",
]
