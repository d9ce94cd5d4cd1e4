"""Run registry: manifests, provenance, registry queries."""

import json
import os

import pytest

from repro.obs.runs import (
    MANIFEST_NAME,
    RunManifest,
    RunRegistry,
    default_runs_root,
    git_sha,
    run_provenance,
    write_bench_json,
)


class TestProvenance:
    def test_env_pins_git_sha(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        assert git_sha() == "deadbeef"

    def test_git_sha_outside_checkout(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        assert git_sha(cwd=tmp_path) == "unknown"

    def test_provenance_fields(self, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafe")
        prov = run_provenance()
        assert prov["git_sha"] == "cafe"
        assert prov["cores_available"] == os.cpu_count()
        assert prov["python"]
        assert prov["timestamp_iso"].endswith("Z")

    def test_write_bench_json_stamps_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "feedc0de")
        path = write_bench_json({"suite": "x", "results": []},
                                tmp_path / "b.json")
        text = open(path, encoding="utf-8").read()
        prov = json.loads(text)["provenance"]
        assert prov["git_sha"] == "feedc0de"
        assert prov["cores_available"] == os.cpu_count()
        assert prov["timestamp_iso"].endswith("Z")
        # sorted keys, trailing newline: regenerated files diff line by line
        assert text.index('"provenance"') < text.index('"results"')
        assert text.endswith("}\n")

    def test_write_bench_json_caller_provenance_wins(self, tmp_path):
        path = write_bench_json(
            {"suite": "x", "provenance": {"git_sha": "pinned"}},
            tmp_path / "b.json",
        )
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["provenance"] == {"git_sha": "pinned"}

    def test_runs_root_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "r"))
        assert default_runs_root() == tmp_path / "r"
        monkeypatch.delenv("REPRO_RUNS_DIR")
        assert str(default_runs_root()).endswith(os.path.join(".repro", "runs"))


class TestRegistry:
    def test_start_writes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "abc123")
        reg = RunRegistry(tmp_path)
        run = reg.start("dns", config={"n": 32}, seeds=[7],
                        argv=["dns", "--n", "32"])
        assert run.run_id.startswith("dns-")
        doc = json.loads(run.manifest_path.read_text())
        assert doc["kind"] == "dns"
        assert doc["status"] == "running"
        assert doc["config"] == {"n": 32}
        assert doc["seeds"] == [7]
        assert doc["argv"] == ["dns", "--n", "32"]
        assert doc["provenance"]["git_sha"] == "abc123"
        assert doc["finished_unix"] is None

    def test_finish_and_wall_seconds(self, tmp_path):
        run = RunRegistry(tmp_path).start("verify")
        assert run.manifest.wall_seconds is None
        run.finish(status="fail", error="boom")
        doc = json.loads(run.manifest_path.read_text())
        assert doc["status"] == "fail"
        assert doc["error"] == "boom"
        reloaded = RunRegistry(tmp_path).get(run.run_id)
        assert reloaded.manifest.wall_seconds >= 0.0

    def test_artifacts_relativized_inside_run_dir(self, tmp_path):
        run = RunRegistry(tmp_path).start("dns")
        inside = run.dir / "trace.json"
        inside.write_text("{}")
        run.add_artifact("trace", inside)
        assert run.manifest.artifacts["trace"] == "trace.json"
        assert run.artifact_path("trace") == run.dir / "trace.json"
        outside = tmp_path / "elsewhere.json"
        run.add_artifact("other", outside)
        assert run.artifact_path("other") == outside

    def test_runs_sorted_and_latest_by_kind(self, tmp_path):
        reg = RunRegistry(tmp_path)
        a = reg.start("dns", run_id="dns-a")
        a.manifest.created_unix = 1.0
        a.save()
        b = reg.start("verify", run_id="verify-b")
        b.manifest.created_unix = 2.0
        b.save()
        c = reg.start("dns", run_id="dns-c")
        c.manifest.created_unix = 3.0
        c.save()
        assert [h.run_id for h in reg.runs()] == ["dns-a", "verify-b", "dns-c"]
        assert reg.latest().run_id == "dns-c"
        assert reg.latest(kind="verify").run_id == "verify-b"
        assert reg.latest(kind="tune") is None

    def test_unreadable_manifest_skipped(self, tmp_path):
        reg = RunRegistry(tmp_path)
        reg.start("dns", run_id="ok-run")
        bad = tmp_path / "bad-run"
        bad.mkdir()
        (bad / MANIFEST_NAME).write_text("{not json")
        assert [h.run_id for h in reg.runs()] == ["ok-run"]

    def test_empty_registry(self, tmp_path):
        reg = RunRegistry(tmp_path / "missing")
        assert reg.runs() == []
        assert reg.latest() is None

    def test_from_dict_ignores_unknown_keys(self):
        m = RunManifest.from_dict(
            {"run_id": "x", "kind": "dns", "future_field": 1}
        )
        assert m.run_id == "x"
        with pytest.raises(TypeError):
            RunManifest.from_dict({"kind": "dns"})  # run_id required
