"""Compare result sets of a parent commit and a change.

    python3 -m bench.compare --parent p0.json p1.json ... --change c0.json c1.json ...

Each file is a result set written by ``python3 -m bench.run --seed N``; the
i-th parent and the i-th change file are one pair (run them alternately,
swapping which side goes first, with the same seeds).  One row per
(end-to-end metric, workload):

improved    the change wins at least 9 of every 10 pairs (ties win nothing),
            there are at least ten pairs, and the medians differ by more
            than the distance between the parent's quartiles
regressed   the change's median is worse than the parent's by more than the
            bound of that metric on that workload (``bench/bounds.json``)
unresolved  neither, but a side's run-to-run spread is wider than the bound
            and some change run does not beat every parent run
unchanged   otherwise

Exit code 1 on any regression, or when more operations failed on the change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench import harness

MIN_PAIRS = 10
WIN_SHARE = 0.9


def _load(paths) -> list[dict]:
    return [json.loads(Path(p).read_text(encoding="utf-8")) for p in paths]


def _series(sets: list[dict], trace: int) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per result set, in file order."""
    out: dict[tuple[str, str], list[float]] = {}
    for result in sets:
        for doc in result["runs"]:
            if "skipped" in doc or doc["trace"] != trace:
                continue
            for name, metric in doc["metrics"].items():
                out.setdefault((doc["workload"], name), []).append(metric["value"])
    return out


def _failed_frac(sets: list[dict]) -> dict[str, float]:
    failed: dict[str, int] = {}
    attempted: dict[str, int] = {}
    for result in sets:
        for doc in result["runs"]:
            if "skipped" in doc:
                continue
            w = doc["workload"]
            # A run that is wrong without a failed operation counts as one.
            failed[w] = failed.get(w, 0) + max(doc["failed"], not doc["correct"])
            attempted[w] = attempted.get(w, 0) + doc["attempted"]
    return {w: failed[w] / attempted[w] for w in attempted}


def verdict(parent: list[float], change: list[float], bound: float,
            better: str) -> tuple[str, float]:
    """The row's status and the change's median as a share worse than the
    parent's (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    p_mid, c_mid = statistics.median(parent), statistics.median(change)
    worse_by = sign * (c_mid - p_mid) / abs(p_mid) if p_mid else 0.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if len(parent) >= 4:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        parent_iqr = q3 - q1
    else:
        parent_iqr = max(parent) - min(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(c_mid - p_mid) > parent_iqr and worse_by < 0):
        return "improved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    wide = max(harness.spread(parent), harness.spread(change)) > bound
    dominates = all(sign * (c - p) < 0 for c in change for p in parent)
    if wide and not dominates:
        return "unresolved", worse_by
    return "unchanged", worse_by


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m bench.compare",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--layers", action="store_true",
                    help="also print per-layer medians side by side (no verdict)")
    args = ap.parse_args(argv)
    parent, change = _load(args.parent), _load(args.change)
    if len(parent) != len(change):
        ap.error("need as many --parent as --change result sets (pairs)")

    declared = harness.declared("end_to_end")
    bounds = harness.bounds()
    p_series, c_series = _series(parent, 0), _series(change, 0)
    bad = 0
    print(f"{'workload':<20} {'metric':<12} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6}  status   ({len(parent)} pairs)")
    for key in sorted(set(p_series) & set(c_series)):
        workload, name = key
        bound = bounds[name][workload]
        status, worse_by = verdict(
            p_series[key], c_series[key], bound, declared[name]["better"])
        bad += status == "regressed"
        print(f"{workload:<20} {name:<12} "
              f"{statistics.median(p_series[key]):>12.6g} "
              f"{statistics.median(c_series[key]):>12.6g} "
              f"{worse_by:>+9.2%} {bound:>6}  {status}")
    for key in sorted(set(p_series) ^ set(c_series)):
        print(f"{key[0]:<20} {key[1]:<12} present on one side only")
        bad += 1

    p_failed, c_failed = _failed_frac(parent), _failed_frac(change)
    for workload in sorted(set(p_failed) & set(c_failed)):
        if c_failed[workload] > p_failed[workload]:
            print(f"{workload:<20} failed_frac   {p_failed[workload]:.6f} -> "
                  f"{c_failed[workload]:.6f}  regressed")
            bad += 1

    if args.layers:
        p_layers, c_layers = _series(parent, 1), _series(change, 1)
        print("\nper-layer medians (traced runs; information only)")
        for key in sorted(set(p_layers) & set(c_layers)):
            p_mid = statistics.median(p_layers[key])
            c_mid = statistics.median(c_layers[key])
            if p_mid or c_mid:
                print(f"{key[0]:<20} {key[1]:<34} {p_mid:>12.6g} {c_mid:>12.6g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
