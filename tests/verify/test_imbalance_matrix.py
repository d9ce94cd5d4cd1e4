"""Imbalance tier: skewed ranks + DLB lend/reclaim stay bit-identical.

The DLB claim is stronger than "it helps": with seeded victim ranks slowed
1.5-2x on compute, copy, or comm stages, the lend/reclaim schedule must
produce the same bytes as the unfuzzed static reference — with lending
*on and off* — while the counters prove the mechanism actually engaged
(pencils lent when enabled, exactly zero when disabled).
"""

import numpy as np
import pytest

from repro.verify import (
    DEFAULT_SPEC,
    IMBALANCE_PROFILES,
    ImbalancePlan,
    run_verification,
)
from repro.verify.fuzz import PROFILES, fuzz_profile

SEEDS = (7, 19, 23)
SMALL = DEFAULT_SPEC.with_(n=8, npencils=2)
HEIGHTS = (5, 3)  # uneven slabs on 2 ranks over N=8


class TestImbalancePlan:
    def test_seeded_victim_is_deterministic(self):
        a = ImbalancePlan(ranks=4, skew=2.0, seed=5)
        b = ImbalancePlan(ranks=4, skew=2.0, seed=5)
        assert a.slow_ranks == b.slow_ranks
        assert len(a.slow_ranks) == 1
        assert 0 <= a.slow_ranks[0] < 4

    def test_different_seeds_move_the_victim(self):
        victims = {
            ImbalancePlan(ranks=8, skew=2.0, seed=s).slow_ranks[0]
            for s in range(16)
        }
        assert len(victims) > 1

    def test_factors_and_applies(self):
        plan = ImbalancePlan(
            ranks=3, skew=1.5, categories=("fft",), slow_ranks=(1,)
        )
        assert plan.factors == (1.0, 1.5, 1.0)
        assert plan.factor(1) == 1.5
        assert plan.max_factor == 1.5
        assert plan.applies("fft") and not plan.applies("h2d")
        with pytest.raises(ValueError):
            plan.factor(3)

    def test_invalid_plans_raise(self):
        with pytest.raises(ValueError):
            ImbalancePlan(ranks=0, skew=2.0)
        with pytest.raises(ValueError):
            ImbalancePlan(ranks=2, skew=0.5)
        with pytest.raises(ValueError):
            ImbalancePlan(ranks=2, skew=2.0, slow_ranks=(2,))

    def test_from_profile_none_when_balanced(self):
        assert ImbalancePlan.from_profile(PROFILES["calm"], ranks=2) is None
        plan = ImbalancePlan.from_profile(PROFILES["imbalance_compute"], 2)
        assert plan is not None and plan.skew == 2.0

    def test_stock_profiles_cover_compute_copy_comm(self):
        cats = [
            PROFILES[name].imbalance_categories for name in IMBALANCE_PROFILES
        ]
        assert ("fft",) in cats
        assert ("h2d", "d2h") in cats
        assert ("mpi",) in cats
        assert all(
            PROFILES[name].imbalance_skew >= 1.5 for name in IMBALANCE_PROFILES
        )


class TestImbalanceMatrix:
    @pytest.mark.parametrize("dlb", ["lend", "off"])
    def test_three_seeds_bit_identical_under_skew(self, dlb):
        report = run_verification(
            SMALL.with_(heights=HEIGHTS, dlb=dlb),
            seeds=SEEDS, profiles=IMBALANCE_PROFILES, orders=0,
        )
        assert len(report.cases) == len(SEEDS) * len(IMBALANCE_PROFILES)
        failures = [c.describe() for c in report.cases if not c.ok]
        assert not failures, "\n".join(failures)
        assert report.passed
        # The injection must actually have happened in every case.
        assert all(c.imbalance_seconds > 0.0 for c in report.cases)
        lent = sum(c.pencils_lent for c in report.cases)
        if dlb == "lend":
            # Every stock imbalance profile skews >= 1.5x, enough to
            # trigger lending in each case.
            assert all(c.pencils_lent > 0 for c in report.cases)
            assert all(c.pencils_reclaimed > 0 for c in report.cases)
        else:
            assert lent == 0
            assert sum(c.pencils_reclaimed for c in report.cases) == 0

    def test_report_mentions_imbalance_not_faults(self):
        report = run_verification(
            SMALL.with_(dlb="lend"),
            seeds=(7,), profiles=("imbalance_compute",), orders=0,
        )
        assert report.passed
        text = report.render()
        assert "no faults or imbalance were injected" not in text
        assert "imb=" in text


class TestDlbWithoutFuzz:
    def test_fuzz_profile_derives_lane_weights(self):
        """Solver prices DLB lanes from the profile's ImbalancePlan."""
        from repro.dist.dist_solver import DistributedNavierStokesSolver
        from repro.dist.virtual_mpi import VirtualComm
        from repro.spectral.grid import SpectralGrid
        from repro.spectral.initial import random_isotropic_field
        from repro.spectral.solver import SolverConfig

        profile = fuzz_profile("imbalance_compute", 7)
        plan = ImbalancePlan.from_profile(profile, 2)
        grid = SpectralGrid(8)
        rng = np.random.default_rng(3)
        solver = DistributedNavierStokesSolver(
            grid, VirtualComm(2),
            random_isotropic_field(grid, rng, energy=0.5),
            SolverConfig(nu=0.02, phase_shift=False, seed=11),
            npencils=2, pipeline="threads", fuzz=profile, dlb="lend",
        )
        try:
            assert solver.fft._dlb_policy.costs == plan.factors
        finally:
            solver.close()
