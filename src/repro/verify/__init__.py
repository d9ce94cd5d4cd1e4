"""Fault-injection and schedule-exploration verification (paper Sec. 3.4).

The async pipeline's whole claim is that its event graph makes asynchrony
*invisible in the data*: any timing, any interleaving, any transient fault
that retries cleanly must yield bytes identical to the inline reference.
This package stress-tests that claim from each of those directions, with
one implementation per concept:

* :mod:`repro.verify.fuzz` — :class:`FuzzBackend` decorates a real exec
  backend with seeded delays at every stream-op boundary (timing only:
  every op runs once, in submission order);
* :mod:`repro.verify.faults` — :class:`CommFaultPlan` makes the virtual
  communicator drop or delay all-to-all chunks, the transient faults the
  out-of-core engine's and the procs transport's retry code recovers
  from;
* :mod:`repro.verify.imbalance` — :class:`ImbalancePlan` slows seeded
  victim ranks multiplicatively on chosen stage categories, the regime the
  DLB lend/reclaim schedule must absorb without changing a byte;
* :mod:`repro.verify.explorer` — :class:`ReplayBackend` records the
  pipeline's event graph and re-executes it in sampled legal topological
  orders, proving determinism over interleavings the OS scheduler would
  never produce, and proving deadlock-freedom structurally;
* :mod:`repro.verify.invariants` — :class:`InvariantMonitor` asserts the
  device-buffer discipline (no double lease, rings never recycled under
  in-flight operations, in-flight window respected) *inside* fuzzed runs;
* :mod:`repro.verify.invariance` — engine invariance as one generated
  property: a seed draws a physics point and two engine configurations,
  which must agree to the bits (or the bound) their ``JobSpec`` rows
  declare;
* :mod:`repro.verify.harness` — :func:`run_verification`, the whole matrix
  behind ``repro verify`` and the CI ``verify`` job: each fuzz case
  ``(seed, profile)`` is an engine pair, the spec fuzzed on the threaded
  pipeline against the spec on the sync one, and ``repro verify --seeds
  SEED --profiles NAME`` replays it.
"""

from repro.verify.explorer import (
    ReplayBackend,
    ReplayEvent,
    ReplayStream,
    ScheduleDeadlock,
    ScheduleGraph,
)
from repro.verify.faults import CommFaultPlan
from repro.verify.fuzz import (
    PROFILES,
    FuzzBackend,
    FuzzProfile,
    fuzz_profile,
)
from repro.verify.harness import (
    DEFAULT_PROFILES,
    DEFAULT_SEEDS,
    DEFAULT_SPEC,
    IMBALANCE_PROFILES,
    VerificationReport,
    run_verification,
)
from repro.verify.imbalance import ImbalancePlan
from repro.verify.schedfuzz import (
    SchedFuzzCase,
    SchedFuzzReport,
    random_workload,
    run_scheduler_fuzz,
)
from repro.verify.invariants import InvariantMonitor, InvariantViolation
from repro.verify.watchdog import DeadlockTimeout, watchdog

__all__ = [
    "CommFaultPlan",
    "DEFAULT_PROFILES",
    "DEFAULT_SEEDS",
    "DEFAULT_SPEC",
    "DeadlockTimeout",
    "FuzzBackend",
    "FuzzProfile",
    "IMBALANCE_PROFILES",
    "ImbalancePlan",
    "InvariantMonitor",
    "InvariantViolation",
    "PROFILES",
    "ReplayBackend",
    "ReplayEvent",
    "ReplayStream",
    "SchedFuzzCase",
    "SchedFuzzReport",
    "ScheduleDeadlock",
    "ScheduleGraph",
    "VerificationReport",
    "fuzz_profile",
    "random_workload",
    "run_scheduler_fuzz",
    "run_verification",
    "watchdog",
]
