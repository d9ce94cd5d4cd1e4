"""``repro serve`` / ``repro verify --scheduler`` CLI tests (tier-1)."""

import json

import pytest

from repro.cli import main
from repro.serve import JobSpec


@pytest.fixture()
def serve_root(tmp_path, monkeypatch):
    root = tmp_path / "serve"
    monkeypatch.setenv("REPRO_SERVE_DIR", str(root))
    return root


class TestServeCli:
    def test_submit_list_status_cancel(self, serve_root, capsys):
        assert main(["serve", "submit", "--name", "a", "--n", "8",
                     "--steps", "1"]) == 0
        assert "submitted j0000-a" in capsys.readouterr().out

        assert main(["serve", "list"]) == 0
        assert "PENDING" in capsys.readouterr().out

        assert main(["serve", "status", "j0000-a"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec"]["name"] == "a"

        assert main(["serve", "cancel", "j0000-a"]) == 0
        assert "EVICTED" in capsys.readouterr().out

    def test_submit_from_spec_file(self, serve_root, tmp_path, capsys):
        spec_path = tmp_path / "job.json"
        spec_path.write_text(JobSpec(name="filed", n=8, steps=1).to_json())
        assert main(["serve", "submit", "--spec", str(spec_path),
                     "--quote"]) == 0
        out = capsys.readouterr().out
        assert "submitted j0000-filed" in out and "feasible" in out

    def test_submit_invalid_spec_exits_2(self, serve_root, capsys):
        assert main(["serve", "submit", "--name", "bad", "--n", "7"]) == 2
        assert "invalid spec" in capsys.readouterr().err

    def test_submit_without_name_or_spec_exits_2(self, serve_root, capsys):
        assert main(["serve", "submit"]) == 2

    def test_status_unknown_job_exits_1(self, serve_root, capsys):
        assert main(["serve", "status", "j0000-nope"]) == 1

    def test_run_scheduler_executes_queue(self, serve_root, capsys):
        main(["serve", "submit", "--name", "a", "--n", "8", "--steps", "1"])
        main(["serve", "submit", "--name", "b", "--n", "8", "--steps", "1",
              "--scheme", "rk4"])
        capsys.readouterr()
        assert main(["serve", "run-scheduler", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 admitted, 0 rejected, 2 done, 0 failed" in out
        assert (serve_root / "traces" / "placement-0000.json").is_file()

    def test_run_scheduler_plan_only(self, serve_root, capsys):
        main(["serve", "submit", "--name", "a", "--n", "8", "--steps", "1"])
        capsys.readouterr()
        assert main(["serve", "run-scheduler", "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "1 admitted" in out and "0 done" in out
        assert "PENDING" in out  # plan-only leaves the queue untouched

    @pytest.mark.parametrize("flag,value", [
        ("--device-bytes", "nan"), ("--device-bytes", "0"),
        ("--device-bytes", "-1"), ("--max-jobs", "0"), ("--max-jobs", "-1"),
    ])
    def test_run_scheduler_refuses_a_capacity_that_holds_no_job(
            self, serve_root, capsys, flag, value):
        main(["serve", "submit", "--name", "a", "--n", "8", "--steps", "1"])
        capsys.readouterr()
        assert main(["serve", "run-scheduler", "--plan-only",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert value in captured.err
        assert not (serve_root / "traces").exists()  # nothing was planned


class TestVerifySchedulerCli:
    def test_verify_scheduler_green(self, capsys):
        assert main(["verify", "--scheduler", "--workloads", "4"]) == 0
        out = capsys.readouterr().out
        assert "scheduler fuzz: 4 workloads, 0 failed" in out
