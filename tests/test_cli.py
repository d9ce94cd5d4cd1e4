"""Tests for the command-line interface."""

import itertools
import json
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestPlan:
    def test_plan_known_point(self, capsys):
        assert main(["plan", "18432"]) == 0
        out = capsys.readouterr().out
        assert "1302" in out
        assert "[1536, 3072]" in out
        assert "np=4" in out

    def test_plan_with_explicit_nodes(self, capsys):
        assert main(["plan", "3072", "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "np=3" in out


class TestStep:
    def test_step_prints_time_and_breakdown(self, capsys):
        assert main(["step", "3072", "16"]) == 0
        out = capsys.readouterr().out
        assert "s/step" in out
        assert "mpi" in out

    def test_step_algorithm_choice(self, capsys):
        assert main(["step", "3072", "16", "--algorithm", "cpu_baseline"]) == 0
        assert "sync CPU" in capsys.readouterr().out

    def test_step_timeline_flag(self, capsys):
        assert main(["step", "3072", "16", "--timeline"]) == 0
        assert "legend:" in capsys.readouterr().out

    def test_step_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        assert main(["step", "3072", "16", "--chrome-trace", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_step_rk4(self, capsys):
        assert main(["step", "3072", "16", "--scheme", "rk4"]) == 0


class TestAutotune:
    def test_autotune_output(self, capsys):
        assert main(["autotune", "3072", "16"]) == 0
        out = capsys.readouterr().out
        assert "<-- best" in out


class TestInfeasibleCostPlaneArguments:
    @pytest.mark.parametrize("argv,reason", [
        (["step", "100", "7"], "N=100 must be divisible by ranks=14"),
        (["autotune", "3072", "5"], "does not fit in node memory"),
        (["autotune", "100", "3"], "no valid configuration for N=100 on 3 nodes"),
        (["plan", "3072", "--nodes", "5"], "does not fit in node memory"),
    ])
    def test_reasoned_error_not_traceback(self, capsys, argv, reason):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv,reason", [
        (["plan", "0"], "problem size must be positive"),
        (["plan", "-8", "--nodes", "2"], "problem size must be positive"),
        (["projection", "--n", "0"], "problem size must be positive"),
        (["density", "--n", "0"], "problem size must be positive"),
        (["validation", "--n", "0"], "grid size must be even and >= 4"),
    ])
    def test_non_positive_size_is_one_error_line(self, capsys, argv, reason):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("grids", [["0"], ["3072", "-8"]])
    def test_non_positive_sweep_grid_is_one_error_line_and_no_file(
            self, capsys, tmp_path, grids):
        out = tmp_path / "sweep.json"
        assert main(["plan", "--sweep", "--grids", *grids, "--nodes", "2",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "problem size must be positive" in err
        assert err.count("\n") == 1 and not out.exists()


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestDns:
    def test_dns_runs(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "Re_lambda" in out

    def test_dns_forced(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "2", "--forced"]) == 0

    def test_dns_report_prints_breakdown(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "2", "--report"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "fft" in out

    def test_dns_observability_artifacts(self, capsys, tmp_path):
        """Tier-1 smoke: a short run writes schema-valid trace + metrics."""
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        assert main(["dns", "--n", "16", "--steps", "2",
                     "--trace-out", str(trace),
                     "--metrics-out", str(metrics)]) == 0

        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert all(e["dur"] >= 0 and e["ts"] >= 0
                   for e in events if e["ph"] == "X")
        assert any(e["ph"] == "M" and e["name"] == "process_name"
                   for e in events)
        # Exactly one thread_name metadata event per lane.
        thread_names = [e["args"]["name"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(thread_names) == len(set(thread_names)) > 0
        # The run's provenance (including the code version) is embedded.
        from repro import __version__

        assert doc["otherData"]["repro_version"] == __version__

        records = [json.loads(l) for l in metrics.read_text().splitlines()]
        kinds = {r["kind"] for r in records}
        assert kinds == {"run", "step", "metric"}
        steps = [r for r in records if r["kind"] == "step"]
        assert [r["step"] for r in steps] == [1, 2]
        assert all(r["wall_seconds"] > 0 for r in steps)
        by_name = {r["name"]: r for r in records if r["kind"] == "metric"}
        assert by_name["solver.steps"]["value"] == 2
        assert by_name["solver.step.seconds"]["count"] == 2
        assert by_name["fft.calls"]["value"] > 0

    def test_dns_without_flags_records_nothing(self, capsys):
        from repro.obs import NULL_OBS

        before = len(NULL_OBS.spans)
        assert main(["dns", "--n", "16", "--steps", "2"]) == 0
        assert len(NULL_OBS.spans) == before


class TestDnsDistributed:
    def test_ranks_whole_slab(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "2", "--ranks", "2"]) == 0
        out = capsys.readouterr().out
        assert "P=2 ranks, comm=virtual, out-of-core np=1" in out
        assert "Re_lambda" in out

    def test_ranks_out_of_core_threads(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "2", "--ranks", "2",
                     "--npencils", "4", "--pipeline", "threads",
                     "--inflight", "2"]) == 0
        out = capsys.readouterr().out
        assert "out-of-core np=4 pipeline=threads inflight=2" in out

    def test_ranks_report_has_stream_categories(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "2", "--ranks", "2",
                     "--npencils", "4", "--pipeline", "threads",
                     "--report"]) == 0
        out = capsys.readouterr().out
        assert "h2d" in out and "d2h" in out and "mpi" in out

    def test_ranks_trace_has_stream_lanes(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["dns", "--n", "16", "--steps", "1", "--ranks", "2",
                     "--npencils", "4", "--trace-out", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        names = {e.get("args", {}).get("name") for e in doc["traceEvents"]
                 if e.get("ph") == "M"}
        assert any(n and n.startswith("stream.") for n in names)

    def test_forced_with_ranks_rejected(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "1", "--ranks", "2",
                     "--forced"]) == 2


class TestUnevenHeightsCli:
    def test_dns_uneven_heights_run(self, capsys):
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--heights", "10,6,8"]) == 0
        assert "heights=10,6,8" in capsys.readouterr().out

    def test_dns_skew_run(self, capsys):
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--skew", "2.0"]) == 0
        assert "heights=12,6,6" in capsys.readouterr().out

    def test_dns_dlb_lend_prints_counters(self, capsys):
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--heights", "10,6,8", "--npencils", "2",
                     "--pipeline", "threads", "--dlb", "lend"]) == 0
        out = capsys.readouterr().out
        assert "dlb=lend" in out
        assert "pencil(s) lent" in out

    def test_dns_bad_heights_quotes_feasible_partition(self, capsys):
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--heights", "10,6,9"]) == 2
        err = capsys.readouterr().err
        assert "INFEASIBLE" in err
        assert "slab partition quote: N=24 over 3 rank(s)" in err
        assert "--heights 8,8,8" in err

    def test_dns_non_integer_heights_rejected(self, capsys):
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--heights", "10,six,8"]) == 2
        assert "INFEASIBLE" in capsys.readouterr().err

    def test_dns_heights_and_skew_conflict(self, capsys):
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--heights", "10,6,8", "--skew", "1.5"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_dns_dlb_requires_npencils(self, capsys):
        """Over worker processes; in process --ranks alone is one pencil."""
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--comm", "procs", "--dlb", "lend"]) == 2
        assert "--npencils" in capsys.readouterr().err
        assert main(["dns", "--n", "24", "--steps", "1", "--ranks", "3",
                     "--dlb", "lend"]) == 0

    def test_verify_bad_heights_quotes_feasible_partition(self, capsys):
        assert main(["verify", "--n", "8", "--ranks", "2", "--npencils", "2",
                     "--seeds", "7", "--profiles", "calm",
                     "--heights", "5,4"]) == 2
        err = capsys.readouterr().err
        assert "INFEASIBLE" in err
        assert "--heights 4,4" in err

    @pytest.mark.parametrize("flags,reason", [
        (["--npencils", "3"], "--npencils=3 must divide N=16"),
        (["--ranks", "0"], "--ranks=0 must be a positive int"),
        (["--n", "7"], "--n=7 must be an even int >= 4"),
        (["--seeds", "abc"],
         "--seeds 'abc' must be a comma-separated list of ints >= 0"),
        (["--seeds", "1,,x"],
         "--seeds '1,,x' must be a comma-separated list of ints >= 0"),
        (["--scheduler", "--seeds", "1,,x"],
         "--seeds '1,,x' must be a comma-separated list of ints >= 0"),
        (["--profiles", ","], "--profiles ',' has an empty name"),
        (["--orders", "-1"], "--orders=-1 must be an int >= 0"),
        (["--watchdog", "0"],
         "--watchdog=0.0 must be a finite positive number of seconds"),
        (["--watchdog", "-2"],
         "--watchdog=-2.0 must be a finite positive number of seconds"),
        (["--watchdog", "inf"],
         "--watchdog=inf must be a finite positive number of seconds"),
        (["--seed-base", "-1"], "--seed-base=-1 must be an int >= 0"),
        (["--scheduler", "--workloads", "0"],
         "--workloads=0 must be an int >= 1"),
    ], ids=["npencils", "ranks", "n", "seeds-word", "seeds-empty",
            "scheduler-seeds", "profiles-empty", "orders-negative",
            "watchdog-zero", "watchdog-negative", "watchdog-inf",
            "seed-base-negative", "workloads-zero"])
    def test_verify_bad_engine_flag_is_one_reasoned_line(self, capsys, flags,
                                                         reason):
        assert main(["verify", *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {reason}\n"

    def test_verify_imbalance_profile_with_dlb(self, capsys):
        assert main(["verify", "--n", "8", "--ranks", "2", "--npencils", "2",
                     "--steps", "1", "--seeds", "7", "--orders", "0",
                     "--profiles", "imbalance_compute",
                     "--heights", "5,3", "--dlb", "lend"]) == 0
        out = capsys.readouterr().out
        assert "heights=[5, 3]" in out
        assert "PASS" in out


CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def _ci_verify_argvs() -> list:
    """Every ``python -m repro verify`` line of the CI workflow, with each
    shell variable set to every value its ``for`` loop gives it (else 1)."""
    text = CI.read_text(encoding="utf-8").replace("\\\n", " ")
    loops = {var: values.split()
             for var, values in re.findall(r"for (\w+) in ([^;\n]+);", text)}
    argvs = []
    for line in text.splitlines():
        if "python -m repro verify" not in line:
            continue
        command = line.split("python -m repro", 1)[1]
        names = sorted(set(re.findall(r"\$(\w+)", command)))
        for values in itertools.product(*(loops.get(n, ["1"])
                                          for n in names)):
            sample = dict(zip(names, values))
            argvs.append(shlex.split(re.sub(
                r"\$(\w+)", lambda m: sample[m.group(1)], command)))
    return argvs


class TestVerifyCiLines:
    """A verify flag CI passes must survive a change to the command; the
    workflow is only run by CI, so its lines are parsed here."""

    ARGVS = _ci_verify_argvs()

    def test_every_ci_job_line_is_found(self):
        # 3 seeds, 1 pencil, date, 2 dlb, uneven explorer, sched
        assert len(self.ARGVS) >= 8
        assert any("--scheduler" in argv for argv in self.ARGVS)
        assert any("--heights" in argv for argv in self.ARGVS)
        assert any("--heights" in argv and "--orders" in argv
                   and argv[argv.index("--orders") + 1] != "0"
                   for argv in self.ARGVS)

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_ci_line_parses_and_validates(self, argv):
        from repro.cli import _verify_inputs
        from repro.serve.spec import spec_from_args

        args = build_parser().parse_args(argv)
        assert args.command == "verify"
        spec_from_args(args).validate()
        _verify_inputs(args)

    def test_flag_defaults_are_the_harness_default_spec(self):
        from repro.serve.spec import spec_from_args
        from repro.verify import DEFAULT_SPEC

        args = build_parser().parse_args(["verify"])
        assert spec_from_args(args) == DEFAULT_SPEC


class TestStudies:
    def test_validation_command_exit_code(self, capsys):
        assert main(["validation", "--n", "16"]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_density_command(self, capsys):
        assert main(["density"]) == 0
        assert "fewer nodes" in capsys.readouterr().out

    def test_resolution_command(self, capsys):
        assert main(["resolution"]) == 0
        assert "Re_lambda" in capsys.readouterr().out


class TestVocabularyErrors:
    """A value outside a flag's vocabulary is the door's one ``error:``
    line and exit 2, as a number out of range is, not argparse's usage
    block."""

    @pytest.mark.parametrize("argv, reason", [
        (["--scheme", "euler"], "--scheme='euler' not in ('rk2', 'rk4')"),
        (["--ranks", "2", "--npencils", "2", "--fuzz", "1",
          "--fuzz-profile", "faulty"], "--fuzz-profile='faulty' not in ('calm', "),
    ], ids=["scheme", "fuzz-profile"])
    def test_dns_and_serve_submit(self, argv, reason, capsys, tmp_path):
        assert main(["dns", "--n", "8", "--steps", "1", *argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {reason}") and err.count("\n") == 1
        assert "usage:" not in out + err
        assert main(["serve", "submit", "--root", str(tmp_path), "--name", "x",
                     "--n", "8", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason.split("=", 1)[1] in err
        assert not list(tmp_path.glob("**/*.json"))

    def test_tune_checks_its_rows_before_probing(self, capsys):
        assert main(["tune", "--pipeline", "bogus"]) == 2
        assert capsys.readouterr().err == (
            "error: --pipeline='bogus' not in ('sync', 'threads')\n")
        assert main(["tune", "--inflight", "0"]) == 2
        assert capsys.readouterr().err == "error: --inflight=0 must be an int >= 1\n"

    def test_help_still_lists_each_vocabulary(self, capsys):
        with pytest.raises(SystemExit):
            main(["dns", "--help"])
        usage = capsys.readouterr().out
        assert "--scheme {rk2,rk4}" in usage and "--comm {virtual,procs}" in usage


class TestTune:
    def test_tune_reports_measured_and_model_winners(self, capsys):
        assert main(["tune", "--n", "16", "--ranks", "2",
                     "--npencils", "4"]) == 0
        out = capsys.readouterr().out
        assert "<- winner" in out
        assert "measured winners:" in out
        # The Fig. 7 model ranking must surface a non-default strategy
        # for the tiny pencil chunks this operating point produces.
        assert "Fig. 7 model ranking" in out
        model_rows = [
            line for line in out.splitlines()
            if "model <- winner" in line
        ]
        assert any("zero_copy" in line for line in model_rows)

    def test_tune_no_model_skips_ranking(self, capsys):
        assert main(["tune", "--n", "16", "--ranks", "2",
                     "--npencils", "4", "--no-model"]) == 0
        assert "Fig. 7 model ranking" not in capsys.readouterr().out

    def test_tune_json_records(self, capsys, tmp_path):
        path = tmp_path / "tune.json"
        assert main(["tune", "--n", "16", "--ranks", "2",
                     "--npencils", "4", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["suite"] == "tune"
        assert doc["results"]
        strategies = {r["strategy"] for r in doc["results"]}
        assert {"per_chunk", "zero_copy", "memcpy2d"} <= strategies
        assert any(r["winner"] for r in doc["results"])
        # The per-peer send blocks the D2H packs into are probed layouts:
        # (h_r, h_s, x-pencil) before the s2p exchange, (h_s, y-pencil, nxh)
        # before the p2s one.
        assert {(8, 8, 2), (8, 2, 9)} <= {tuple(r["shape"]) for r in doc["results"]}
        assert doc["provenance"]["git_sha"]
        # bench-shaped like every other artifact: obs diff reads it
        capsys.readouterr()
        assert main(["obs", "diff", str(path), str(path)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_dns_copy_strategy_flag(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "1", "--ranks", "2",
                     "--npencils", "4", "--copy-strategy", "zero_copy"]) == 0
        assert "copy=zero_copy" in capsys.readouterr().out


class TestReports:
    def test_table1_report(self, capsys):
        assert main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fig8_report(self, capsys):
        assert main(["fig8"]) == 0
        assert "zero-copy" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestObs:
    """The `repro obs` group: run registry queries and the perf gate."""

    @staticmethod
    def _baseline(tmp_path, slowdown=1.0, name="baseline.json"):
        """A small bench payload in the shape ``repro obs diff`` gates."""
        doc = {
            "suite": "solver_hotpath",
            "results": [
                {"n": n, "scheme": "rk2", "backend": "numpy", "workspace": True,
                 "seconds_per_step": seconds * slowdown,
                 "peak_alloc_bytes": 1000}
                for n, seconds in ((32, 0.011), (64, 0.105))
            ],
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_dns_registers_a_run_manifest(self, capsys):
        import os
        import pathlib

        assert main(["dns", "--n", "16", "--steps", "1"]) == 0
        root = pathlib.Path(os.environ["REPRO_RUNS_DIR"])
        manifests = sorted(root.glob("*/manifest.json"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        assert doc["kind"] == "dns"
        assert doc["status"] == "ok"
        assert doc["config"]["n"] == 16
        assert doc["provenance"]["git_sha"]
        # Structured events ride along in the same run directory.
        events = manifests[0].parent / "events.jsonl"
        lines = [json.loads(l) for l in events.read_text().splitlines()]
        names = {r["name"] for r in lines}
        assert {"dns.start", "dns.finish"} <= names

    def test_obs_report_lists_runs(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "1"]) == 0
        capsys.readouterr()
        assert main(["obs", "report"]) == 0
        out = capsys.readouterr().out
        assert "dns-" in out
        assert "ok" in out

    def test_obs_report_empty_registry_exits_nonzero(self, capsys):
        assert main(["obs", "report"]) == 1

    def test_obs_tail_prints_events(self, capsys):
        assert main(["dns", "--n", "16", "--steps", "1"]) == 0
        capsys.readouterr()
        assert main(["obs", "tail"]) == 0
        out = capsys.readouterr().out
        assert "dns.start" in out
        assert "dns.finish" in out

    def test_obs_diff_baseline_against_itself_passes(self, capsys, tmp_path):
        base = self._baseline(tmp_path)
        assert main(["obs", "diff", base, base]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_obs_diff_synthetic_regression_fails(self, capsys, tmp_path):
        base = self._baseline(tmp_path)
        cur = self._baseline(tmp_path, slowdown=1.20, name="current.json")
        assert main(["obs", "diff", base, cur]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "FAIL" in out

    def test_obs_diff_missing_file_exits_2(self, capsys):
        assert main(["obs", "diff", "/nonexistent/a.json",
                     "/nonexistent/b.json"]) == 2
