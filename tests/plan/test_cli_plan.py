"""CLI surface of the capacity planner: quote, sweep, registry."""

import json
import os
import pathlib

import pytest

from repro.cli import main


class TestPlanQuote:
    def test_quote_registers_a_run(self, capsys):
        """Satellite: ``repro plan --quote`` lands in the runs registry with
        a manifest, an events stream file, and the quote artifact."""
        assert main(["plan", "18432", "--nodes", "3072", "--quote"]) == 0
        out = capsys.readouterr().out
        assert "s/step" in out and "node-hours" in out
        root = pathlib.Path(os.environ["REPRO_RUNS_DIR"])
        manifests = sorted(root.glob("*/manifest.json"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        assert doc["kind"] == "plan"
        assert doc["status"] == "ok"
        assert doc["config"]["n"] == 18432
        assert doc["config"]["machine"] == "summit"
        quote = json.loads((manifests[0].parent / "quote.json").read_text())
        assert quote["feasible"] is True
        assert quote["npencils"] == 4
        assert "quote" in doc["artifacts"]
        events = manifests[0].parent / "events.jsonl"
        lines = [json.loads(l) for l in events.read_text().splitlines()]
        names = {r["name"] for r in lines}
        assert {"plan.quote.start", "plan.quote.finish"} <= names

    def test_quote_infeasible_exits_nonzero(self, capsys):
        assert main(["plan", "18432", "--nodes", "16", "--quote"]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_quote_without_n_is_an_error(self, capsys):
        assert main(["plan", "--quote"]) == 2

    def test_quote_on_other_machine(self, capsys):
        assert main(["plan", "3072", "--machine", "exascale",
                     "--tasks-per-node", "2", "--quote"]) == 0
        assert "exascale" in capsys.readouterr().out


class TestPlanSweep:
    def test_sweep_writes_bench_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_capacity.json"
        assert main(["plan", "--sweep", "--grids", "3072", "18432",
                     "--strategies", "memcpy2d", "zero_copy",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "capacity"
        assert len(doc["results"]) == 4
        assert {r["n"] for r in doc["results"]} == {3072, 18432}
        assert "git_sha" in doc["provenance"]

    def test_sweep_diffs_cleanly_against_itself(self, tmp_path, capsys):
        """The CI gate: a fresh sweep must not regress against a committed
        baseline produced by the same model."""
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["plan", "--sweep", "--grids", "3072", "--out", str(a)]) == 0
        assert main(["plan", "--sweep", "--grids", "3072", "--out", str(b)]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b), "--tolerance", "0.05"]) == 0


class TestPlanPencilsArgument:
    @pytest.mark.parametrize("mode", [["--quote"], ["--sweep"]])
    @pytest.mark.parametrize("q", ["abc", "0", "-2", "1.5"])
    def test_bad_q_is_one_error_line(self, tmp_path, capsys, mode, q):
        """A pencil count that is not ``slab`` or an integer >= 1 is a
        usage error (exit 2), never a traceback or a silent Q = 1."""
        with pytest.raises(SystemExit) as exc:
            main(["plan", "18432", "--nodes", "3072", "--q", q,
                  "--out", str(tmp_path / "b.json"), *mode])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--q" in errors[0]
        assert "Traceback" not in err
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("q,npencils", [("slab", 1), ("2", 2)])
    def test_good_q_is_priced(self, capsys, q, npencils):
        assert main(["plan", "18432", "--nodes", "3072", "--q", q,
                     "--quote"]) == 0
        root = pathlib.Path(os.environ["REPRO_RUNS_DIR"])
        (manifest,) = root.glob("*/manifest.json")
        quote = json.loads((manifest.parent / "quote.json").read_text())
        assert quote["q"] == (quote["npencils"] if q == "slab" else npencils)

    def test_validate_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--validate"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --validate" in capsys.readouterr().err


class TestPlanLegacy:
    def test_bare_plan_still_prints_memory_plan(self, capsys):
        assert main(["plan", "18432"]) == 0
        out = capsys.readouterr().out
        assert "minimum nodes (D=25): 1302" in out
        assert "[1536, 3072]" in out

    def test_plan_without_n_or_mode_is_an_error(self):
        assert main(["plan"]) == 2
