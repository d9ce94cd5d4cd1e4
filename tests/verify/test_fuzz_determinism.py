"""Acceptance suite: fuzzed full-solver runs are bit-identical to sync.

Every (seed, profile) case is an engine pair of one spec: the spec fuzzed
on the threaded pipeline against the spec on the sync one.  The tier-1
test runs the whole matrix (>= 3 seeds x >= 5 delay/comm-fault profiles of
full distributed steps) at a small grid so it stays fast; the
``fuzz``-marked test repeats it at a larger operating point with more
steps and explorer orders.
"""

import numpy as np
import pytest

from repro.dist.virtual_mpi import VirtualComm
from repro.spectral.grid import SpectralGrid
from repro.verify import (
    DEFAULT_PROFILES,
    DEFAULT_SEEDS,
    DEFAULT_SPEC,
    CommFaultPlan,
    run_verification,
)

SMALL = DEFAULT_SPEC.with_(n=8, npencils=2)


class TestAcceptanceMatrix:
    def test_three_seeds_five_profiles_bit_identical(self):
        report = run_verification(
            SMALL, seeds=DEFAULT_SEEDS, profiles=DEFAULT_PROFILES, orders=4,
        )
        assert len(report.cases) == len(DEFAULT_SEEDS) * len(DEFAULT_PROFILES)
        failures = [c.describe() for c in report.cases if not c.ok]
        assert not failures, "\n".join(failures)
        assert report.explorer_ok, report.explorer_error
        assert report.passed
        # The matrix must actually have been adversarial: comm faults
        # injected and every one retried (each case passed bit-identically
        # after them), and the monitor checked the buffer discipline in
        # every case.
        assert sum(c.comm_faults for c in report.cases) > 0
        retries = {(r["fuzz_seed"], r["fuzz_profile"]): r["value"]
                   for r in report.metrics_records
                   if r["name"] == "comm.retries"}
        for case in report.cases:
            key = (case.pair.a.fuzz_seed, case.pair.a.fuzz_profile)
            assert retries[key] == case.comm_faults, case.describe()
        assert all(c.invariant_checks > 0 for c in report.cases)

    def test_report_names_reproducing_seeds(self):
        report = run_verification(
            SMALL, seeds=(101,), profiles=("calm",), orders=1,
        )
        text = report.render()
        assert "pair seed=101 " in text and "fuzz_profile=calm" in text
        assert "PASS" in text

    def test_metrics_records_carry_fault_counters(self):
        report = run_verification(
            SMALL, seeds=(303,), profiles=("flaky-net",), orders=1,
        )
        assert report.passed
        names = {r["name"]: r for r in report.metrics_records}
        assert names["comm.faults.transient"]["value"] > 0
        assert names["comm.faults.recovered"]["value"] > 0
        assert names["comm.faults.transient"]["fuzz_profile"] == "flaky-net"
        assert names["comm.faults.transient"]["fuzz_seed"] == 303


class TestCommFaultRecovery:
    def test_fault_counters_exported_via_metrics(self):
        from repro.dist.decomp import SlabDecomposition
        from repro.dist.outofcore import OutOfCoreSlabFFT
        from repro.obs import Observability

        grid = SpectralGrid(16)
        P = 2
        comm = VirtualComm(P)
        comm.fault_injector = CommFaultPlan(seed=6, drop_rate=0.2, late_rate=0.2)
        obs = Observability.create()
        d = SlabDecomposition(grid.n, P)
        rng = np.random.default_rng(8)
        shape = d.local_spectral_shape()
        spec = [
            (rng.standard_normal(shape)
             + 1j * rng.standard_normal(shape)).astype(grid.cdtype)
            for _ in range(P)
        ]
        with OutOfCoreSlabFFT(
            grid, comm, 4, pipeline="threads", obs=obs
        ) as fft:
            fft.forward(fft.inverse(spec))
        snap = {r["name"]: r.get("value", 0) for r in obs.metrics.snapshot()}
        assert snap["comm.faults.transient"] > 0
        assert snap["comm.retries"] > 0
        assert snap["comm.faults.recovered"] > 0


@pytest.mark.fuzz
class TestExtendedMatrix:
    @pytest.mark.parametrize("seed", DEFAULT_SEEDS)
    def test_deep_matrix_per_seed(self, seed):
        report = run_verification(
            DEFAULT_SPEC.with_(steps=2),
            seeds=(seed,),
            profiles=("calm", "jittery", "stormy", "flaky-net", "chaos"),
            orders=8,
        )
        failures = [c.describe() for c in report.cases if not c.ok]
        assert not failures, "\n".join(failures)
        assert report.passed
        assert report.total_faults > 0
