"""Simulated MPI layer.

Two halves:

* :mod:`repro.mpi.costmodel` — analytic timing of all-to-all exchanges for a
  given decomposition (wraps :class:`repro.machine.network.AllToAllModel`
  with the DNS code's message-size bookkeeping, paper Sec. 4.1);
* :mod:`repro.mpi.simmpi` — :class:`SimComm`, which posts blocking and
  non-blocking all-to-alls into the discrete-event simulation as bandwidth
  flows through the NIC and host-DRAM links, so they contend with GPU
  transfers exactly as the paper observes.

The *functional* MPI used to verify numerical correctness of the transposes
is separate: :mod:`repro.dist.virtual_mpi` really moves NumPy data — and
:mod:`repro.mpi.procs` runs the same surface over real worker processes
(one per rank, shared-memory rings), built by :func:`make_comm`.
"""

from repro.mpi.costmodel import ExchangeShape, alltoall_p2p_bytes, slab_exchange_shape
from repro.mpi.procs import COMM_KINDS, ProcsComm, make_comm
from repro.mpi.simmpi import SimComm, SimRequest

__all__ = [
    "COMM_KINDS",
    "ExchangeShape",
    "ProcsComm",
    "SimComm",
    "SimRequest",
    "alltoall_p2p_bytes",
    "make_comm",
    "slab_exchange_shape",
]
