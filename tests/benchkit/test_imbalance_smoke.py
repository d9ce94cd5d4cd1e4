"""Tier-1 smoke for the imbalance/DLB skew sweep harness.

The committed artifact comes from ``python -m repro.benchkit.imbalance``
(CI gates it with ``repro obs diff``); this runs the same code at a tiny
operating point so the model-priced arithmetic, the wall-clock rows, and
the JSON shape are exercised on every test run.  The >= 15% recovery
acceptance is asserted here on the model-priced numbers — they hold on
any machine, including 1-core runners where wall-clock gains cannot.
"""

import json

from repro.benchkit.imbalance import (
    benchmark_wall_point,
    model_priced_point,
    run_imbalance_suite,
)
from repro.obs.runs import write_bench_json


def test_model_priced_recovery_at_two_x():
    p = model_priced_point(ranks=3, npencils=4, skew=2.0, steps=4)
    assert p.t_static > p.t_balanced  # the slow rank really costs
    assert p.t_lend < p.t_static  # lending really pays
    assert p.pencils_lent > 0
    assert p.recovered_fraction is not None
    # The ISSUE acceptance: >= 15% of the efficiency lost to a 2x slow
    # rank is recovered (model-priced on small runners).
    assert p.recovered_fraction >= 0.15
    assert p.efficiency_lend > p.efficiency_static


def test_model_priced_balanced_control_row():
    p = model_priced_point(ranks=3, npencils=4, skew=1.0)
    assert p.t_static == p.t_balanced
    assert p.recovered_fraction is None
    assert p.efficiency_static == 1.0


def test_wall_point_bit_identity_and_injection():
    clean = benchmark_wall_point(8, 2, 2, skew=1.0, dlb="off", steps=1)
    skewed = benchmark_wall_point(8, 2, 2, skew=2.0, dlb="lend", steps=1)
    assert clean.final_energy == skewed.final_energy  # bit-for-bit
    assert clean.imbalance_seconds == 0.0
    assert skewed.imbalance_seconds > 0.0
    assert skewed.pencils_lent > 0


def test_run_imbalance_suite_smoke(tmp_path):
    payload = run_imbalance_suite(
        skews=(1.0, 2.0), ranks=2, npencils=2, n=8, steps=1, warmup=0,
        model_steps=2,
    )
    assert payload["suite"] == "imbalance"
    assert payload["bit_identical"] is True
    assert payload["recovered_fraction_at_max_skew"] >= 0.15
    assert len(payload["model"]) == 2
    assert len(payload["wall"]) == 4  # 2 skews x {off, lend}
    assert "cores_available" in payload
    path = write_bench_json(payload, tmp_path / "BENCH_imbalance.json")
    doc = json.loads(open(path).read())
    assert doc["note"]
    assert doc["provenance"]
