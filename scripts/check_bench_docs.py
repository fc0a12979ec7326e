#!/usr/bin/env python3
"""Doc-drift gate: every bench/baseline.json gate must be documented.

Usage: check_bench_docs.py [bench/baseline.json] [docs/BENCHMARKS.md]

Reads the gate table of docs/BENCHMARKS.md (the `| Kind | Semantics |
Current entries |` table) and fails when any baseline entry — section x
kind (`rates`/`min`/`max`/`require_true`) x key — is missing from the row
of its kind. A "Current entries" cell lists sections separated by `;`,
each a section name followed by its backticked keys, e.g.
`oop_exec `oop_execs_per_sec` 3k, `persistent_execs_per_sec` 30k`.
Exit 0 when the table covers the baseline, 1 otherwise. Stdlib only.
"""

import json
import re
import sys

KINDS = ("rates", "min", "max", "require_true")


def baseline_gates(baseline):
    gates = set()
    for section, spec in baseline["benches"].items():
        for kind in KINDS:
            entries = spec.get(kind, [])
            for key in entries:  # dict keys for rates/min/max, list items
                gates.add((section, kind, key))
    return gates


def documented_gates(markdown):
    gates = set()
    for line in markdown.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3:
            continue
        kind = cells[0].strip("`")
        if kind not in KINDS:
            continue
        for chunk in cells[-1].split(";"):
            words = chunk.split()
            if not words:
                continue
            section = words[0]
            for key in re.findall(r"`([^`]+)`", chunk):
                gates.add((section, kind, key))
    return gates


def main(argv):
    baseline_path = argv[1] if len(argv) > 1 else "bench/baseline.json"
    docs_path = argv[2] if len(argv) > 2 else "docs/BENCHMARKS.md"
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(docs_path, encoding="utf-8") as handle:
        documented = documented_gates(handle.read())
    missing = sorted(baseline_gates(baseline) - documented)
    for section, kind, key in missing:
        print(f"undocumented gate: {section} {kind} `{key}` "
              f"(add it to the {kind} row of {docs_path})", file=sys.stderr)
    if missing:
        return 1
    print(f"OK: {docs_path} documents every gate in {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
