#!/usr/bin/env python3
"""Doc-drift gate: every bench/baseline.json gate must be documented, and
no doc may advertise a knob the code no longer has.

Usage: check_bench_docs.py [bench/baseline.json] [docs/BENCHMARKS.md]

Three checks, all run from the repository root:

* Gates. Reads the gate table of docs/BENCHMARKS.md (the `| Kind |
  Semantics | Current entries |` table) and fails when any baseline entry —
  section x kind (`rates`/`min`/`max`/`require_true`) x key — is missing
  from the row of its kind. A "Current entries" cell lists sections
  separated by `;`, each a section name followed by its backticked keys,
  e.g. `oop_exec `oop_execs_per_sec` 3k, `persistent_execs_per_sec` 30k`.
* Environment variables. Every `ICSFUZZ_*` variable in the first column
  of a `| Variable | ... |` table in any docs/*.md (docs/BENCHMARKS.md's
  bench knobs, docs/INJECTION.md's runtime contract, ...) must be named by
  some file under src/, bench/ or tools/ (the code that reads it).
* CMake switches. Every `-DICSFUZZ_*` switch named in README.md or
  docs/*.md must be declared by an `option()` in CMakeLists.txt.

Exit 0 when all three hold, 1 otherwise. Stdlib only.
"""

import glob
import json
import os
import re
import sys

SOURCE_DIRS = ("src", "bench", "tools")

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


def documented_variables(markdown):
    """ICSFUZZ_* names in the first column of the `| Variable |` table."""
    names = []
    in_table = False
    for line in markdown.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.lstrip().startswith("|"):
            in_table = False
            continue
        if cells[0] == "Variable":
            in_table = True
            continue
        if in_table:
            names += re.findall(r"`(ICSFUZZ_[A-Z0-9_]+)`", cells[0])
    return names


def unread_variables(names, root="."):
    """The subset of `names` that no file under SOURCE_DIRS mentions."""
    pending = set(names)
    for top in SOURCE_DIRS:
        for path in glob.glob(os.path.join(root, top, "**", "*"),
                              recursive=True):
            if not pending:
                return []
            if not os.path.isfile(path):
                continue
            with open(path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            pending = {name for name in pending
                       if not re.search(rf"\b{name}\b", text)}
    return sorted(pending)


def undeclared_switches(root="."):
    """(doc, switch) pairs naming a -DICSFUZZ_* absent from option()s."""
    with open(os.path.join(root, "CMakeLists.txt"), encoding="utf-8") as f:
        declared = set(re.findall(r"option\(\s*(ICSFUZZ_[A-Z0-9_]+)", f.read()))
    docs = [os.path.join(root, "README.md")]
    docs += sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    missing = []
    for doc in docs:
        with open(doc, encoding="utf-8") as handle:
            named = set(re.findall(r"-D(ICSFUZZ_[A-Z0-9_]+)", handle.read()))
        missing += [(doc, name) for name in sorted(named - declared)]
    return missing


def main(argv):
    baseline_path = argv[1] if len(argv) > 1 else "bench/baseline.json"
    docs_path = argv[2] if len(argv) > 2 else "docs/BENCHMARKS.md"
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(docs_path, encoding="utf-8") as handle:
        markdown = handle.read()
    failed = False
    missing = sorted(baseline_gates(baseline) - documented_gates(markdown))
    for section, kind, key in missing:
        print(f"undocumented gate: {section} {kind} `{key}` "
              f"(add it to the {kind} row of {docs_path})", file=sys.stderr)
        failed = True
    for doc in sorted(glob.glob(os.path.join("docs", "*.md"))):
        with open(doc, encoding="utf-8") as handle:
            names = documented_variables(handle.read())
        for name in unread_variables(names):
            print(f"stale variable: `{name}` is in the Variable table of "
                  f"{doc} but no file under {', '.join(SOURCE_DIRS)} "
                  f"reads it", file=sys.stderr)
            failed = True
    for doc, name in undeclared_switches():
        print(f"stale CMake switch: {doc} names -D{name}, which no option() "
              f"in CMakeLists.txt declares", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"OK: {docs_path} documents every gate in {baseline_path}; "
          f"every variable in a docs/ Variable table and every CMake "
          f"switch exists")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
