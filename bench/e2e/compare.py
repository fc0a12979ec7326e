#!/usr/bin/env python3
"""Compares two sets of bench/e2e results, or summarises one.

    python3 bench/e2e/compare.py BASE_DIR [HEAD_DIR] [--bench BENCHMARK.json]
                                 [--json]

Each directory holds one result file per run, named
``<workload>.<tag>.json`` (collect.sh writes ``<workload>.seed<N>.json``);
the last line of a file is the run's result object. For every workload and
every end-to-end metric of BENCHMARK.json, each side gets one row with its
run count, median, first and third quartiles (statistics.quantiles, n=4)
and spread, the quartile distance as a share of the median.

With one directory the verdict says how the spread compares with the
metric's bound: ``steady`` below a third of it, ``noisy`` up to the bound,
``unresolved`` beyond it. With two, HEAD is judged against BASE:

* ``unresolved``: either side's spread is wider than the bound, unless
  every HEAD run is better than every BASE run (``improved``);
* ``regressed``: HEAD's median is worse than BASE's by more than the bound;
* ``improved``: HEAD wins at least nine in ten runs paired by tag, and the
  medians differ by more than BASE's quartile distance;
* ``unchanged``: anything else.

Runs whose result is not correct, or that lost executions, are listed and
make the exit status 1.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_runs(directory):
    """{workload: {tag: result}} for every result file in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        workload, _, tag = path.stem.partition(".")
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        if not lines:
            continue
        runs.setdefault(workload, {})[tag] = json.loads(lines[-1])
    return runs


def summary(values):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def worse_by(base, head, better):
    """How much worse `head` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (head - base) / base
    return -change if better == "higher" else change


def is_better(a, b, better):
    return a > b if better == "higher" else a < b


def verdict_one(spread, bound):
    if spread > bound:
        return "unresolved"
    return "steady" if spread < bound / 3 else "noisy"


def verdict_two(base_runs, head_runs, metric):
    name, bound, better = metric["name"], metric["bound"], metric["better"]
    base = {tag: run["metrics"][name]["value"] for tag, run in base_runs.items()}
    head = {tag: run["metrics"][name]["value"] for tag, run in head_runs.items()}
    base_med, base_q1, base_q3, base_spread = summary(list(base.values()))
    head_med, _, _, head_spread = summary(list(head.values()))
    all_better = all(is_better(h, b, better)
                     for h in head.values() for b in base.values())
    if max(base_spread, head_spread) > bound:
        return "improved" if all_better else "unresolved"
    if worse_by(base_med, head_med, better) > bound:
        return "regressed"
    paired = [tag for tag in head if tag in base]
    wins = sum(is_better(head[tag], base[tag], better) for tag in paired)
    if (paired and wins >= 0.9 * len(paired)
            and abs(head_med - base_med) > base_q3 - base_q1):
        return "improved"
    return "unchanged"


def fmt(value):
    return f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?")
    parser.add_argument("--bench", default=str(
        pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"))
    parser.add_argument("--json", action="store_true",
                        help="print the rows as one JSON document")
    args = parser.parse_args()

    spec = json.loads(pathlib.Path(args.bench).read_text())
    sides = [("base", load_runs(args.base))]
    if args.head:
        sides.append(("head", load_runs(args.head)))

    bad = []
    for side, runs in sides:
        for workload, by_tag in sorted(runs.items()):
            for tag, run in sorted(by_tag.items()):
                if not run["correct"] or run["failed"] != 0:
                    bad.append(f"{side} {workload}.{tag}")

    header = (f"{'workload':<22} {'metric':<14} {'side':<5} {'n':>3} "
              f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
    if not args.json:
        print(header)
        print("-" * len(header))
    document = {}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        per_side = [(side, runs.get(workload, {})) for side, runs in sides]
        if not all(by_tag for _, by_tag in per_side):
            if not args.json:
                print(f"{workload:<22} (no runs on every side)")
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if len(per_side) == 2:
                verdict = verdict_two(per_side[0][1], per_side[1][1], metric)
            entry = document.setdefault(workload, {}).setdefault(name, {})
            for i, (side, by_tag) in enumerate(per_side):
                values = [run["metrics"][name]["value"]
                          for run in by_tag.values()]
                med, q1, q3, spread = summary(values)
                if len(per_side) == 1:
                    verdict = verdict_one(spread, bound)
                entry[side] = {"n": len(values), "median": med, "q1": q1,
                               "q3": q3, "spread": round(spread, 4)}
                entry["verdict"] = verdict
                if args.json:
                    continue
                shown = verdict if i == len(per_side) - 1 else ""
                print(f"{workload:<22} {name:<14} {side:<5} {len(values):>3} "
                      f"{fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                      f"{spread:>8.4f} {bound:>6}  {shown}")
    if args.json:
        print(json.dumps(document, indent=2))
    for run in bad:
        print(f"not correct or lost executions: {run}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
