"""Tier-1 smoke test for the hot-path measurement harness.

Runs it on a 16^3 grid for two steps so the harness itself — timing,
tracemalloc accounting, JSON shape, the shared provenance-stamping writer —
is exercised on every test run without measurable cost.
"""

import json

from repro.benchkit.hotpath import (
    benchmark_solver,
    run_suite,
    to_metrics_records,
    write_json,
    write_metrics_jsonl,
)


def test_benchmark_solver_smoke():
    # 32^3: a full grid (256 KiB) is well above the fixed-size buffers NumPy's
    # ufunc iterator allocates for a broadcasting operand (<= 128 KiB).
    r = benchmark_solver(32, "rk2", steps=2, warmup=1)
    assert r.n == 32
    assert r.steps_per_sec > 0
    assert r.seconds_per_step > 0
    assert r.fullgrid_bytes == 32**3 * 8
    # Steady-state workspace steps must not allocate a full grid.
    assert not r.allocates_full_grids


def test_run_suite_smoke(tmp_path):
    payload = run_suite(grid_sizes=(16,), schemes=("rk2",),
                        backends=("numpy",), steps=1, warmup=1,
                        trace_alloc=False)
    assert len(payload["results"]) == 1
    assert payload["results"][0]["steps_per_sec"] > 0

    path = write_json(payload, str(tmp_path / "bench.json"))
    with open(path, encoding="utf-8") as fh:
        round_trip = json.load(fh)
    assert round_trip["suite"] == "solver_hotpath"
    assert round_trip["results"][0]["n"] == 16


def test_write_json_stamps_provenance(tmp_path, monkeypatch):
    import os

    monkeypatch.setenv("REPRO_GIT_SHA", "feedc0de")
    path = write_json({"suite": "x", "results": []},
                      str(tmp_path / "b.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    prov = doc["provenance"]
    assert prov["git_sha"] == "feedc0de"
    assert prov["cores_available"] == os.cpu_count()
    assert prov["timestamp_iso"].endswith("Z")


def test_write_json_caller_provenance_wins(tmp_path):
    path = write_json({"suite": "x", "provenance": {"git_sha": "pinned"}},
                      str(tmp_path / "b.json"))
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["provenance"] == {"git_sha": "pinned"}


def test_suite_emits_metric_records(tmp_path):
    payload = run_suite(grid_sizes=(16,), schemes=("rk2",),
                        backends=("numpy",), steps=1, warmup=1,
                        trace_alloc=False)
    records = payload["metrics"]
    assert records == to_metrics_records(payload)
    # Three gauges per measured operating point, metric-record schema.
    assert len(records) == 3 * len(payload["results"])
    assert all(r["kind"] == "metric" and r["type"] == "gauge" for r in records)
    names = {r["name"] for r in records}
    assert names == {"solver.step.seconds", "solver.steps_per_sec",
                     "solver.peak_alloc_bytes"}
    assert all(set(r["labels"]) == {"n", "scheme", "backend"}
               for r in records)

    path = write_metrics_jsonl(payload, str(tmp_path / "bench.jsonl"))
    lines = [json.loads(l) for l in open(path, encoding="utf-8")]
    assert lines == records
