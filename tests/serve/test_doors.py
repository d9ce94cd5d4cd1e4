"""Door parity: ``dns`` argv, ``serve submit`` argv and the HTTP JSON body
are three spellings of one :class:`JobSpec`, and every door runs it through
one ``open_solver`` (tier-1; n=16)."""

import argparse
import json
from dataclasses import fields

import pytest

from repro.cli import build_parser, main
from repro.serve import JobSpec, run_job
from repro.serve.spec import DNS_DEFAULTS, RUN_FIELDS, spec_from_args

#: Every field whose default differs between the doors, spelled out, plus a
#: fixed dt so the serial ``dns`` run does not pick its adaptive step.
COMMON = ["--n", "16", "--steps", "2", "--dt", "0.05", "--ic", "random",
          "--ic-seed", "3", "--fft-backend", "numpy",
          "--copy-strategy", "memcpy2d", "--fuzz-profile", "flaky-net"]
COMMON_FIELDS = dict(n=16, steps=2, dt=0.05, ic="random", ic_seed=3,
                     fft_backend="numpy", copy_strategy="memcpy2d",
                     fuzz_profile="flaky-net")

CASES = {
    "serial-rk4": (["--scheme", "rk4", "--nu", "0.05"],
                   dict(scheme="rk4", nu=0.05)),
    "ranks2": (["--ranks", "2"], dict(ranks=2)),
    "ooc-threads": (["--ranks", "2", "--npencils", "4",
                     "--pipeline", "threads", "--inflight", "2"],
                    dict(ranks=2, npencils=4, pipeline="threads", inflight=2)),
    "heights-lend": (["--ranks", "2", "--npencils", "2", "--heights", "9,7",
                      "--pipeline", "threads", "--dlb", "lend"],
                     dict(ranks=2, npencils=2, heights=[9, 7],
                          pipeline="threads", dlb="lend")),
    "fuzzed": (["--ranks", "2", "--npencils", "4", "--fuzz", "7",
                "--diagnostics-every", "2"],
               dict(ranks=2, npencils=4, fuzz_seed=7, diagnostics_every=2)),
}


def _subparser(*path) -> argparse.ArgumentParser:
    parser = build_parser()
    for name in path:
        parser = parser._subparsers._group_actions[0].choices[name]
    return parser


@pytest.mark.parametrize("case", sorted(CASES))
def test_three_doors_name_the_same_spec_and_run_the_same_bits(
        case, tmp_path, capsys):
    argv, extra = CASES[case]
    argv = COMMON + argv
    parser = build_parser()

    from_http = JobSpec.from_dict(json.loads(json.dumps(
        {"name": "job", **COMMON_FIELDS, **extra}))).validate()
    from_submit = spec_from_args(
        parser.parse_args(["serve", "submit", "--name", "job", *argv]))
    from_dns = spec_from_args(parser.parse_args(["dns", *argv]))
    assert from_submit == from_http
    assert from_dns == from_http

    metrics = tmp_path / "metrics.jsonl"
    assert main(["dns", *argv, "--metrics-out", str(metrics)]) == 0
    capsys.readouterr()
    steps = [r for r in map(json.loads, metrics.read_text().splitlines())
             if r["kind"] == "step"]
    alone = run_job(from_http, registry_root=None)
    # NaN-safe bit equality (diagnostics_every=2 skips step 1).
    assert json.dumps([r["energy"] for r in steps]) == json.dumps(alone.energies)
    assert [r["time"] for r in steps] == alone.times


def test_every_field_has_exactly_one_generated_flag_per_door():
    names = [f.name for f in fields(JobSpec)]
    assert [n for n in names if n not in RUN_FIELDS] == [
        "name", "tenant", "priority"]
    for path, expected in ((("serve", "submit"), names),
                           (("dns",), list(RUN_FIELDS))):
        dests = [a.dest for a in _subparser(*path)._actions]
        assert [d for d in dests if d in names] == expected, path
    flags = {a.dest: a.option_strings for a in _subparser("dns")._actions}
    assert flags["fuzz_seed"] == ["--fuzz"]
    assert flags["copy_strategy"] == ["--copy-strategy"]
    assert flags["heights"] == ["--heights"]


def test_dns_defaults_are_overrides_of_declared_fields():
    spec = spec_from_args(build_parser().parse_args(["dns"]))
    assert spec == JobSpec(**DNS_DEFAULTS)
    assert (spec.n, spec.steps, spec.ic, spec.ic_seed) == (32, 20, "random", 0)
    assert not hasattr(build_parser().parse_args(["dns"]), "legacy")


def test_fuzzed_serve_job_injects_comm_faults_and_stays_bit_identical(tmp_path):
    """A serve job's fuzz profile reaches its comm, as ``dns --fuzz``'s does."""
    plain = JobSpec(name="plain", n=16, steps=2, ranks=2, npencils=4,
                    pipeline="threads")
    fuzzed = plain.with_(name="fuzzed", fuzz_seed=7, fuzz_profile="flaky-net")
    result = run_job(fuzzed, registry_root=tmp_path)
    records = [json.loads(line) for line in
               (tmp_path / "serve-fuzzed" / "metrics.jsonl").read_text().splitlines()]
    retries = [r["value"] for r in records if r.get("name") == "comm.retries"]
    assert retries and retries[0] > 0
    assert result.energies == run_job(plain, registry_root=None).energies


NON_FINITE = {
    "dt-inf": (["--dt", "inf"],
               "--dt=inf must be a finite positive number (or null)"),
    "nu-inf": (["--nu", "inf"], "--nu=inf must be a finite positive number"),
    "skew-nan": (["--ranks", "2", "--skew", "nan"],
                 "--skew=nan must be a finite number >= 1.0"),
    "skew-inf": (["--ranks", "2", "--skew", "inf"],
                 "--skew=inf must be a finite number >= 1.0"),
    "skew-below-one": (["--ranks", "2", "--skew", "0.5"],
                       "--skew=0.5 must be a finite number >= 1.0"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_numbers_are_one_reasoned_line_at_the_argv_doors(
        case, tmp_path, capsys):
    """An infinite dt or nu steps to NaN and a NaN skew has no partition:
    both argv doors refuse them before anything runs."""
    argv, reason = NON_FINITE[case]
    assert main(["dns", "--n", "8", "--steps", "2", *argv]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {reason}\n" and "E=" not in out
    assert main(["serve", "submit", "--root", str(tmp_path), "--name", "x",
                 "--n", "8", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert reason.replace("--", "", 1) in err
    assert not list(tmp_path.glob("**/*.json"))


#: ``serve submit --spec FILE`` bodies that are no JobSpec, and the reason.
BAD_SPEC_FILES = {
    "missing": (None, "No such file or directory"),
    "not-json": ("{n: 16", "Expecting property name"),
    "not-an-object": ("[16]", "JobSpec JSON must be an object"),
    "unknown-field": ('{"grid": 16}', "unknown JobSpec field(s): ['grid']"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPEC_FILES))
def test_a_spec_file_that_is_no_jobspec_is_one_reasoned_line(
        case, tmp_path, capsys):
    body, reason = BAD_SPEC_FILES[case]
    path = tmp_path / "spec.json"
    if body is not None:
        path.write_text(body, encoding="utf-8")
    root = tmp_path / "store"
    assert main(["serve", "submit", "--root", str(root),
                 "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: invalid spec: ")
    assert reason in err
    assert not list(root.glob("**/*.json"))
