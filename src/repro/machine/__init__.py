"""Parameterized model of a Summit-like machine.

The SC '19 paper's evaluation machine is Summit at OLCF: 4608 IBM AC922 nodes,
each with two POWER9 sockets, 6 NVIDIA V100 GPUs (3 per socket, NVLink
attached), 512 GB DDR4, and a dual-rail EDR InfiniBand fat tree.  Every timing
claim in the paper reduces to a handful of published hardware constants plus
observed communication efficiencies; this package captures both.

:mod:`repro.machine.spec` defines the dataclasses, :mod:`repro.machine.summit`
instantiates the published Summit numbers (and holds the calibration constants
fitted once against the paper's Table 2) and :mod:`repro.machine.network`
implements the all-to-all effective-bandwidth model.
"""

from repro.machine.spec import (
    GpuSpec,
    MachineSpec,
    NetworkCalibration,
    NetworkSpec,
    NodeSpec,
    SocketSpec,
)
from repro.machine.summit import summit, SUMMIT_TOTAL_NODES
from repro.machine.network import AllToAllModel, AllToAllTiming

__all__ = [
    "AllToAllModel",
    "AllToAllTiming",
    "GpuSpec",
    "MachineSpec",
    "NetworkCalibration",
    "NetworkSpec",
    "NodeSpec",
    "SocketSpec",
    "SUMMIT_TOTAL_NODES",
    "summit",
]
