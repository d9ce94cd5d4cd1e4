"""Smoke test of the benchmark itself (not part of tier-1).

    python -m pytest bench/tests

Every workload runs at toy size, untraced and traced; ``BENCHMARK.json`` is
checked against the contract it has to meet; the tracer must put every
attribute it rebinds back.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import harness

harness.prepare_environment()

from bench import compare  # noqa: E402 - needs src/ on sys.path first
from bench.trace import LAYERS, Tracer  # noqa: E402
from bench.workloads import NOMINAL, TOY, make  # noqa: E402

SPEC = harness.load_spec()
WORKLOADS = ["serial_n96", "slab_procs_p2_n64", "ooc_sync_p2_n96",
             "ooc_threads_p2_n96", "serve_mix24", "plan_ladder"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "-m", "bench.run"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = harness.declared("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # One bound per metric here; none of its per-workload bounds is wider.
    bounds = harness.bounds()
    assert set(bounds) == set(harness.declared("end_to_end"))
    for m in SPEC["end_to_end"]:
        assert set(bounds[m["name"]]) == set(WORKLOADS)
        assert all(0 < b <= m["bound"] for b in bounds[m["name"]].values())
    # 4 + 22 x workloads runs must fit 3420 s even at 25 s a run.
    assert (4 + 22 * len(SPEC["workloads"])) * 25 <= 3420


def test_every_layer_metric_says_what_it_should_move():
    moves = json.loads(
        (harness.ROOT / "bench" / "moves.json").read_text(encoding="utf-8"))
    assert set(moves) == set(harness.declared("per_layer"))
    for name, targets in moves.items():
        for target in targets:
            metric, workload = target.split("@")
            assert metric in harness.declared("end_to_end"), (name, target)
            assert workload in WORKLOADS, (name, target)


def test_sizes_cover_every_workload():
    assert set(NOMINAL) == set(TOY) == set(WORKLOADS)


# -- the workloads, at toy size -------------------------------------------------


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_toy_workload(name, trace, monkeypatch):
    if name == "slab_procs_p2_n64" and harness.nproc() < 2:
        pytest.skip("2 worker processes need nproc >= 2")
    monkeypatch.setattr(harness, "SETUP_REPEATS_MAX", harness.SETUP_REPEATS_MIN)
    doc = harness.run_workload(make(name, toy=True), seed=0, seconds=60.0,
                               trace=trace)
    assert doc["correct"], doc["problems"]
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    declared = harness.declared("per_layer" if trace else "end_to_end")
    assert set(doc["metrics"]) == set(declared)
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    if trace:
        assert values["trace.coverage_frac"] >= 0.9
        assert values["check.serve_bitexact"] == 0
        assert values["check.ref_rel_err"] <= 1e-10
    else:
        assert all(v > 0 for v in values.values()), values
    assert not (harness.ROOT / ".repro").exists()


def test_a_state_wrong_after_the_warm_up_fails_the_run(monkeypatch):
    """Still finite, dissipating and solenoidal, so only the reference
    comparison at the checked step can tell."""
    from repro.spectral.solver import NavierStokesSolver

    step = NavierStokesSolver.step

    def wrong(self, dt):
        result = step(self, dt)
        if self.step_count == 3:  # the first step of the window
            self.u_hat *= 1.0 - 1e-6
        return result

    monkeypatch.setattr(NavierStokesSolver, "step", wrong)
    monkeypatch.setattr(harness, "SETUP_REPEATS_MAX", harness.SETUP_REPEATS_MIN)
    doc = harness.run_workload(make("serial_n96", toy=True), seed=0,
                               seconds=60.0, trace=False)
    assert not doc["correct"]
    assert any("ref_rel_err" in problem for problem in doc["problems"])


def test_driver_mode_prints_one_json_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "plan_ladder",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--toy"],
        cwd=harness.ROOT, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(harness.declared("end_to_end"))


def test_refuses_without_the_program_and_with_overrides(tmp_path):
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    command = [sys.executable, "-m", "bench.run", "--workload", "plan_ladder",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True,
                          check=False)
    assert done.returncode != 0 and "{" not in done.stdout
    done = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                          text=True, check=False,
                          env={"REPRO_FFT_BACKEND": "scipy", "PATH": ""})
    assert done.returncode == 2 and "{" not in done.stdout


# -- the tracer -----------------------------------------------------------------


def _owners():
    for entries in LAYERS.values():
        for module, cls, attr, _name, _opts in entries:
            owner = importlib.import_module(module)
            yield (getattr(owner, cls) if cls else owner), attr


def test_tracer_restores_every_rebound_attribute():
    missing = object()
    before = [vars(owner).get(attr, missing) for owner, attr in _owners()]
    tracer = Tracer().install(LAYERS)
    during = [vars(owner).get(attr, missing) for owner, attr in _owners()]
    assert all(a is not b for a, b in zip(before, during))
    tracer.restore()
    after = [vars(owner).get(attr, missing) for owner, attr in _owners()]
    assert all(a is b for a, b in zip(before, after))
    tracer.restore()  # a second restore is a no-op


def test_self_times_add_up_to_the_root():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    def middle():
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("middle", middle))
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert root.name == "root" and tracer.count("leaf") == 2
    assert sum(s.self_s for s in tracer.spans) == pytest.approx(root.duration)
    with pytest.raises(ZeroDivisionError):
        tracer.call("boom", lambda: 1 / 0)
    assert tracer.failed("boom") == 1


# -- compare ------------------------------------------------------------------


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.01]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    noisy = [0.7, 1.4, 0.8, 1.3, 0.9, 1.2, 1.0, 1.1, 0.75, 1.35]
    assert compare.verdict(parent, faster, 0.1, "lower")[0] == "improved"
    assert compare.verdict(parent, faster, 0.1, "higher")[0] == "regressed"
    assert compare.verdict(parent, slower, 0.1, "lower")[0] == "regressed"
    assert compare.verdict(parent, parent, 0.1, "lower")[0] == "unchanged"
    assert compare.verdict(parent, noisy, 0.1, "lower")[0] == "unresolved"
    # fewer than ten pairs never claim a gain
    assert compare.verdict(parent[:3], faster[:3], 0.1, "lower")[0] == "unchanged"
