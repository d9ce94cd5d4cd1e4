"""The benchmark's one command.

``python3 -m bench.run --workload W --seed N --seconds S --trace 0|1``
    one run of one workload (what the driver calls); the last line of
    standard output is the result as one JSON object.
``python3 -m bench.run --seed N``
    every workload untraced (end-to-end metrics), then traced (per-layer
    metrics), each in its own process; prints every metric by name with its
    unit, checks outputs, and writes the result set.
``python3 -m bench.run --selfcheck [--sets K]``
    K runs of every workload on consecutive seeds, same code; fails unless
    every end-to-end metric spreads within its own bound and the
    deterministic per-layer metrics agree exactly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

from bench import harness

#: Per-layer metrics that are counts or model outputs: two runs of the same
#: code must report exactly the same value, whatever the seed.
DETERMINISTIC = (
    "core.model.step_s",
    "core.model.rel_err",
    "dist.a2a_bytes",
    "dist.a2a_messages",
    "spectral.fft_calls",
)
COVERAGE_MIN = 0.95


def _parser() -> argparse.ArgumentParser:
    spec = harness.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=names,
                   help="run this one workload in this process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                   help="length of the measured window (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes (smoke test only; numbers mean nothing)")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--sets", type=int, default=2,
                   help="result sets for --selfcheck (default 2)")
    p.add_argument("--write-golden", action="store_true",
                   help="recompute bench/golden.json from this code")
    p.add_argument("--out", type=Path, help="where to write the result document")
    return p


def _print_run(doc: dict) -> None:
    kind = "per-layer, traced" if doc["trace"] else "end-to-end, untraced"
    print(f"== {doc['workload']} seed={doc['seed']} ({kind}) ==")
    for name, metric in doc["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for key, value in sorted(doc["notes"].items()):
        print(f"  . {key} = {value}")
    for problem in doc["problems"]:
        print(f"  ! {problem}")


def run_one(args) -> int:
    """Driver mode: one workload, one process, one JSON line."""
    if args.workload == "slab_procs_p2_n64" and harness.nproc() < 2:
        raise harness.BenchRefused(
            "slab_procs_p2_n64 skipped: 2 worker processes need nproc >= 2, "
            f"have {harness.nproc()}", code=3)
    from bench.workloads import make

    doc = harness.run_workload(
        make(args.workload, toy=args.toy), args.seed, args.seconds,
        bool(args.trace))
    if args.out:
        _write(doc, args.out)
    _print_run(doc)
    # A wrong answer never reports a time.
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"] if doc["correct"] else {},
    }))
    return 0 if doc["correct"] else 1


# -- result sets ----------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int,
           toy: bool) -> dict:
    out = harness.OUT_DIR / f"{workload}-{seed}-{trace}.json"
    command = [sys.executable, "-m", "bench.run", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out)]
    if toy:
        command.append("--toy")
    done = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                          text=True, check=False)
    if out.is_file():
        doc = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return doc
    if done.returncode == 3:
        return {"workload": workload, "seed": seed, "trace": trace,
                "skipped": done.stderr.strip().splitlines()[-1]}
    sys.stderr.write(done.stdout + done.stderr)
    raise RuntimeError(f"{workload} (trace={trace}) exited {done.returncode} "
                       "without a result")


def run_set(seeds: list[int], seconds: float, toy: bool) -> dict:
    """Every workload untraced then traced, one process per run.  With
    several seeds a workload's runs come one after the other, as the driver
    takes them, so slow drift of the box stays out of a workload's spread."""
    harness.OUT_DIR.mkdir(exist_ok=True)
    runs = []
    for workload in (w["name"] for w in harness.load_spec()["workloads"]):
        for seed, trace in itertools.product(seeds, (0, 1)):
            doc = _child(workload, seed, seconds, trace, toy)
            runs.append(doc)
            if "skipped" in doc:
                print(f"== {workload} skipped: {doc['skipped']} ==")
                break
            _print_run(doc)
    return {
        "schema": 1,
        "seeds": seeds,
        "seconds": seconds,
        "toy": toy,
        "provenance": harness.provenance(),
        "runs": runs,
    }


def set_problems(result: dict) -> list[str]:
    """Gate failures of one result set: wrong outputs or thin coverage."""
    problems = []
    for doc in result["runs"]:
        if "skipped" in doc:
            continue
        label = f"{doc['workload']} (trace={doc['trace']})"
        problems += [f"{label}: {p}" for p in doc["problems"]]
        if doc["trace"]:
            coverage = doc["metrics"]["trace.coverage_frac"]["value"]
            if coverage < COVERAGE_MIN:
                problems.append(
                    f"{label}: trace.coverage_frac {coverage:.3f} < {COVERAGE_MIN}")
    return problems


def _write(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def run_full(args) -> int:
    result = run_set([args.seed], args.seconds, args.toy)
    _write(result, args.out or harness.OUT_DIR / f"set-seed{args.seed}.json")
    problems = set_problems(result)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def run_selfcheck(args) -> int:
    """Same code, ``--sets`` result sets, seeds ``seed .. seed+sets-1``."""
    from bench.workloads import NOMINAL, TOY

    seeds = list(range(args.seed, args.seed + args.sets))
    result = run_set(seeds, args.seconds, args.toy)
    problems = set_problems(result)
    values: dict[tuple[str, int, str], list[float]] = {}
    for doc in result["runs"]:
        if "skipped" in doc:
            continue
        for name, metric in doc["metrics"].items():
            values.setdefault(
                (doc["workload"], doc["trace"], name), []
            ).append(metric["value"])

    summary: dict[str, dict] = {}
    declared, bounds = harness.declared("end_to_end"), harness.bounds()
    print(f"== selfcheck over {args.sets} sets ==")
    for (workload, trace, name), series in sorted(values.items()):
        entry = {"median": harness.median(series)}
        if not trace:
            bound = declared[name]["bound"]
            entry.update(spread=harness.spread(series), bound=bound,
                         compare_bound=bounds[name][workload], values=series)
            within = entry["spread"] <= bound
            print(f"  {workload:<20} {name:<12} median {entry['median']:<12.6g}"
                  f" spread {entry['spread']:.4f} bound {bound} "
                  f"{'ok' if within else 'FAIL'}"
                  f"  (compare: {entry['compare_bound']})")
            if not within:
                problems.append(
                    f"{workload}: {name} spread {entry['spread']:.4f} exceeds "
                    f"its bound {bound}")
        elif name in DETERMINISTIC and len(set(series)) != 1:
            problems.append(
                f"{workload}: {name} must repeat exactly, got {series}")
        summary.setdefault(workload, {}).setdefault(
            "per_layer" if trace else "end_to_end", {})[name] = entry
    _write({
        "schema": 1,
        "kind": "selfcheck",
        "sets": args.sets,
        "seeds": seeds,
        "seconds": args.seconds,
        "provenance": result["provenance"],
        "sizes": TOY if args.toy else NOMINAL,
        "workloads": summary,
    }, args.out or harness.OUT_DIR / f"selfcheck-seed{args.seed}.json")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    harness.prepare_environment()
    if args.write_golden:
        from bench.workloads import write_golden

        write_golden()
        return 0
    if args.workload:
        return run_one(args)
    if args.selfcheck:
        return run_selfcheck(args)
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
