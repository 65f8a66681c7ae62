#!/usr/bin/env python3
"""minsgd C++ checker: the cross-TU semantic analyzer.

Builds a model of the tree — lexed TUs, a function/symbol index, the include
graph, and a call graph with NVI and lambda resolution — and checks the
project invariants over it: whole-program ones (zero-alloc hot paths,
disjoint collective tag spaces, fixed-order reductions, documented gates)
and single-line conventions (thread and RNG sources, asserts, casts, include
hygiene). See tools/analyze/checks.py and DESIGN.md §16 for the catalog.

Stdlib only. No third-party imports, ever.

Usage:
  python3 tools/analyze/analyze.py                 # analyze the repo
  python3 tools/analyze/analyze.py --self-test     # run fixture suite
  python3 tools/analyze/analyze.py --gates-md      # print MINSGD_* table
  python3 tools/analyze/analyze.py --check tag-space --check env-gate
  python3 tools/analyze/analyze.py --root some/tree --no-json

Exit codes: 0 = clean / self-test passed, 1 = findings / self-test failed,
2 = internal error. A machine-readable report is written atomically to
<root>/analyze_results/findings.json (schema: minsgd-analyze-v1) unless
--no-json is given.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

TOOL_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOL_DIR)                       # cpp_model, callgraph, ...
sys.path.insert(1, os.path.dirname(TOOL_DIR))      # common.report

from common.report import read_json, write_json_atomic  # noqa: E402

from callgraph import CallGraph  # noqa: E402
from checks import (CHECKS, RULES, World, gates_markdown,  # noqa: E402
                    run_checks)
from cpp_model import build_index  # noqa: E402

INDEX_SUBDIRS = ("src", "tests", "bench", "examples")
SCHEMA = "minsgd-analyze-v1"


def build_world(root: str) -> World:
    subdirs = tuple(s for s in INDEX_SUBDIRS
                    if os.path.isdir(os.path.join(root, s)))
    index = build_index(root, subdirs or ("src",))
    return World(root=root, index=index, graph=CallGraph(index))


def analyze(root: str, only=None):
    world = build_world(root)
    findings = run_checks(world, only=only)
    findings.sort(key=lambda f: (f.check, f.rule, f.file, f.line))
    return world, findings


def report_obj(world: World, findings, only=None):
    return {
        "schema": SCHEMA,
        "root": os.path.abspath(world.root),
        "checks": list(only) if only else list(CHECKS),
        "summary": {
            "files_indexed": len(world.index.tus),
            "functions": sum(len(v) for v in world.index.by_name.values()),
            "edges": sum(len(v) for v in world.graph.edges.values()),
            "findings": len(findings),
        },
        "findings": [f.to_json() for f in findings],
        "gates": world.gates,
        "suppressions": world.suppressions,
    }


def print_findings(findings, quiet=False):
    for f in findings:
        print(f"{f.file}:{f.line}: [{f.check}/{f.rule}] {f.message}")
        if not quiet:
            for hop in f.trace:
                print(f"    via: {hop}")


def self_test(verbose=True) -> int:
    """Run every fixture tree and compare findings to its expect.txt.

    Fixture layout: tools/analyze/fixtures/<name>/ is a mini repo root
    (src/, optionally tests/, README.md, ...). expect.txt lists one
    `check/rule` per expected finding (duplicates meaningful); a missing or
    empty expect.txt asserts the tree is clean. All checks run on every
    fixture, so a firing fixture also proves the others stay quiet, and
    every catalog rule must be expected by at least one fixture.
    """
    fixdir = os.path.join(TOOL_DIR, "fixtures")
    names = sorted(d for d in os.listdir(fixdir)
                   if os.path.isdir(os.path.join(fixdir, d)))
    if not names:
        print("analyze self-test: no fixtures found", file=sys.stderr)
        return 1
    failures = 0
    covered = set()
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            root = os.path.join(fixdir, name)
            expect_path = os.path.join(root, "expect.txt")
            expected = []
            if os.path.isfile(expect_path):
                with open(expect_path, "r", encoding="utf-8") as f:
                    expected = sorted(ln.strip() for ln in f
                                      if ln.strip() and not ln.startswith("#"))
            covered.update(expected)
            world, findings = analyze(root)
            got = sorted(f"{f.check}/{f.rule}" for f in findings)
            # Round-trip the report through the shared atomic writer.
            out = os.path.join(tmp, name + ".json")
            write_json_atomic(out, report_obj(world, findings))
            back = read_json(out)
            ok = (got == expected and back["schema"] == SCHEMA
                  and back["summary"]["findings"] == len(findings))
            if not ok:
                failures += 1
                print(f"FAIL {name}")
                print(f"  expected: {expected}")
                print(f"  got:      {got}")
                for f in findings:
                    print(f"    {f.fid}: {f.message}")
            elif verbose:
                print(f"ok   {name} ({len(got)} finding(s))")
    untested = sorted({f"{c}/{r}" for c, rules in RULES.items()
                       for r in rules} - covered)
    if untested:
        failures += 1
        print(f"FAIL: rules with no firing fixture: {untested}")
    if failures:
        print(f"analyze self-test: {failures} failure(s) over "
              f"{len(names)} fixtures")
        return 1
    print(f"analyze self-test: {len(names)} fixtures passed, all "
          f"{len(covered)} rules covered")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="analyze.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(TOOL_DIR)), help="tree to analyze (default: repo)")
    ap.add_argument("--check", action="append", choices=CHECKS,
                    help="run only the named check(s)")
    ap.add_argument("--json", metavar="PATH",
                    help="report path (default <root>/analyze_results/"
                         "findings.json)")
    ap.add_argument("--no-json", action="store_true",
                    help="skip writing the JSON report")
    ap.add_argument("--self-test", action="store_true",
                    help="run the fixture suite and exit")
    ap.add_argument("--gates-md", action="store_true",
                    help="print the MINSGD_* gate table as markdown")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress call chains and the summary line")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test(verbose=not args.quiet)

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"analyze: no such root: {root}", file=sys.stderr)
        return 2

    only = args.check
    if args.gates_md:
        only = ["env-gate"]
    world, findings = analyze(root, only=only)

    if args.gates_md:
        print(gates_markdown(world.gates))
        return 0

    print_findings(findings, quiet=args.quiet)
    if not args.no_json:
        path = args.json or os.path.join(root, "analyze_results",
                                         "findings.json")
        write_json_atomic(path, report_obj(world, findings, only=only))
    if not args.quiet:
        s = report_obj(world, findings, only=only)["summary"]
        print(f"analyze: {s['findings']} finding(s) | "
              f"{s['files_indexed']} files, {s['functions']} functions, "
              f"{s['edges']} call edges")
    return 1 if findings else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(2)
    except Exception as exc:  # noqa: BLE001 — tool must not die silently
        print(f"analyze: internal error: {exc}", file=sys.stderr)
        raise
