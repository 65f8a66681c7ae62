#!/usr/bin/env python3
"""Self-test of the benchmark on its tiny workload configurations.

    python3 perfbench/selftest.py

Run from the repository root (it builds like run.py does). It checks that:
  * BENCHMARK.json is well formed: names, units and bounds within limits;
  * every declared end-to-end metric (untraced run) and per-layer metric
    (traced run) is emitted with its declared unit, and nothing else;
  * the traced run's per-layer times add up to its step time: the timed
    parts (data, forward, backward, optimizer, gradient sync) fit inside
    the step and explain most of it;
  * the traced run reproduces the untraced run's weights (run.py fails the
    run otherwise), so the probes change nothing;
  * a reference hash that does not match is reported as a failure, and the
    matching one is not.
Exits 0 when every check passes.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PARTS = ("data.load_ms", "nn.fwd_ms", "nn.bwd_ms", "optim.step_ms",
         "train.sync_ms")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, reference):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--tiny", "--reference", reference]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"selftest: {' '.join(cmd)} exited {out.returncode}")
    context = next(json.loads(l[len("context "):]) for l in lines
                   if l.startswith("context "))
    return json.loads(lines[-1]), context, lines[:-1]


def check_spec(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(len(names) == len(set(names)), "spec: every name is used once")
    check(all(NAME.match(n) for n in names), "spec: names are valid")
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(UNIT.match(u) for u in units), "spec: units are valid")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "spec: bounds in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "spec: setup_s is in s, lower is better, with the largest bound")


def check_result(result, declared, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result has exactly the four keys")
    check(result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1, f"{label}: correct, nothing failed")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in declared],
          f"{label}: emits exactly the declared metrics")
    check(all(metrics[m["name"]]["unit"] == m["unit"] for m in declared
              if m["name"] in metrics), f"{label}: units match")
    return {k: v["value"] for k, v in metrics.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    workdir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"), "perfbench")
    os.makedirs(workdir, exist_ok=True)
    empty = os.path.join(workdir, "selftest_ref_empty.json")
    with open(empty, "w") as f:
        json.dump({"seed": 1, "workloads": {}}, f)

    for w in [w["name"] for w in spec["workloads"]]:
        result, ctx, _ = run(w, 0, empty)
        values = check_result(result, spec["end_to_end"], f"{w} untraced")
        check(all(v > 0 for v in values.values()),
              f"{w} untraced: end-to-end metrics are non-zero")

        result, _, lines = run(w, 1, empty)
        v = check_result(result, spec["per_layer"], f"{w} traced")
        parts = sum(v[p] for p in PARTS)
        step = v["train.step_ms"]
        check(0.5 * step <= parts <= 1.02 * step,
              f"{w} traced: timed parts {parts:.3f} ms fit and explain the "
              f"step {step:.3f} ms")
        check(sum(l.startswith("  ") and "nn.bwd." in l for l in lines) == 3,
              f"{w} traced: ledger names the top three backward kinds")

        # The same hash as a reference passes; a perturbed one fails.
        key = w + ":tiny"
        good = ctx["hash"]
        bad = good[:-1] + ("0" if good[-1] != "0" else "1")
        for h, expect in ((bad, False), (good, True)):
            ref = os.path.join(workdir, "selftest_ref.json")
            with open(ref, "w") as f:
                json.dump({"seed": 1, "workloads": {key: {"hash": h}}}, f)
            result, _, _ = run(w, 0, ref)
            ok = result["correct"] == expect and \
                (result["failed"] == 0) == expect
            check(ok, f"{w}: reference hash {'match' if expect else 'mismatch'}"
                      f" reported as {'pass' if expect else 'failure'}")

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
