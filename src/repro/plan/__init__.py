"""Capacity planning: the cost plane at any scale.

:mod:`repro.plan.capacity` prices arbitrary (grid, node count, copy
strategy) configurations on registered machine models — including the
paper's production 18432^3 / 3072-node Summit run — in milliseconds,
because a quote is a model (the step simulator, the memory planner and
the copy engines' prices), never a run of the data plane.
:mod:`repro.plan.admission` prices one service job (device bytes,
virtual seconds) from the same models.
"""

from repro.plan.admission import (
    AdmissionPricer,
    AdmissionQuote,
    job_device_bytes,
)
from repro.plan.capacity import (
    COPY_STRATEGIES,
    MACHINES,
    CapacityPlanner,
    CostQuote,
    bench_payload,
    machine_by_name,
)

__all__ = [
    "COPY_STRATEGIES",
    "MACHINES",
    "AdmissionPricer",
    "AdmissionQuote",
    "CapacityPlanner",
    "CostQuote",
    "job_device_bytes",
    "bench_payload",
    "machine_by_name",
]
