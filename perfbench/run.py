#!/usr/bin/env python3
"""Repository benchmark: builds perfbench, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library and the trial binary from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later runs only check the build.

Every trial runs in its own process (the perfbench binary), so each trial's
peak RSS is its own and no thread pool outlives it. With --trace 0 the run
repeats untraced full trials until --seconds have passed (at least
MIN_TRIALS) and reports the end-to-end metrics as medians over trials;
setup_s is the median of the trials' set-up intervals. With --trace 1
it runs one untraced trial and then traced trials (at least one, until
--seconds have passed) and reports the per-layer metrics as medians.

Each trial's output is checked: the run must not throw or diverge, every
trial must produce the same final-weights hash (FNV-1a), the traced hash
must equal the untraced one, and at the reference seed the hash (and, where
recorded, the best test accuracy) must match perfbench/reference.json.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Lines before it give the run's context stamp and, with --trace 1, the
per-layer ledger (top layer kinds by backward time, with achieved GF/s).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_TRIALS = 3
# No trial starts later than BUDGET_S into a run, and a trial is killed
# after TRIAL_TIMEOUT_S, so a run (build aside) ends within 180 s.
BUDGET_S = 90
TRIAL_TIMEOUT_S = 80
# Runtime gates that change the program being measured; unset is default.
GATES = ("MINSGD_MEMPLAN", "MINSGD_CONV_DIRECT", "MINSGD_KERNEL_ISA",
         "MINSGD_THREADS", "MINSGD_FLIGHT")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the trial binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: library sources (src/) not found under "
                         + ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def trial(binary, workload, seed, mode, tiny):
    """Runs one trial process; returns (report dict or None, peak RSS MB)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--mode", mode] + (["--tiny"] if tiny else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    killer = threading.Timer(TRIAL_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        # wait4 (not Popen.wait) so the child's own rusage comes back.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0:
        log(f"perfbench: {workload} {mode} trial exited {proc.returncode}")
        return None, rss_mb
    lines = out.decode().strip().splitlines()
    try:
        return json.loads(lines[-1]), rss_mb
    except (IndexError, ValueError):
        log(f"perfbench: {workload} {mode} trial printed no result")
        return None, rss_mb


class Run:
    """Trials of one workload at one seed, with their output checks."""

    def __init__(self, binary, args, reference):
        self.binary = binary
        self.args = args
        key = args.workload + (":tiny" if args.tiny else "")
        entry = reference.get("workloads", {}).get(key, {})
        self.ref = entry if args.seed == reference.get("seed") else {}
        self.floor = entry.get("min_best_test_acc", 0.0)
        self.hash = None
        self.attempted = 0
        self.failed = 0
        self.isa = "?"
        self.t0 = time.monotonic()

    def may_start(self, want_more):
        """Whether to start another trial: wanted, within the time budget,
        and not after repeated failures (a failing trial fails again)."""
        return want_more and self.elapsed() < BUDGET_S and \
            self.failed < MIN_TRIALS

    def elapsed(self):
        return time.monotonic() - self.t0

    def run(self, mode):
        """One checked trial; returns (report, rss_mb) or (None, 0)."""
        self.attempted += 1
        rep, rss = trial(self.binary, self.args.workload, self.args.seed,
                         mode, self.args.tiny)
        if rep is None:
            problem = "no result"
        else:
            self.isa = rep["isa"]
            problem = self.problem(rep)
        if problem:
            self.failed += 1
            log(f"perfbench: {self.args.workload} {mode} trial failed: "
                f"{problem}")
            return None, 0.0
        return rep, rss

    def problem(self, rep):
        if rep["diverged"]:
            return "diverged"
        if self.hash is None:
            self.hash = rep["hash"]
        if rep["hash"] != self.hash:
            return f"weights hash {rep['hash']} != {self.hash} of this run"
        if "hash" in self.ref and rep["hash"] != self.ref["hash"]:
            return f"weights hash {rep['hash']} != reference {self.ref['hash']}"
        acc = self.ref.get("best_test_acc", self.floor)
        if rep["best_test_acc"] < acc:
            return f"best test accuracy {rep['best_test_acc']} < {acc}"
        return None


def img_per_s(rep):
    """Global images per second over one trial's steady steps."""
    steps = rep["clean_step_s"]
    return rep["global_batch"] * len(steps) / sum(steps)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def untraced(run, seconds):
    """End-to-end metrics: medians over full untraced trials."""
    reps, rss = [], []
    while run.may_start(len(reps) < MIN_TRIALS or run.elapsed() < seconds):
        rep, mb = run.run("train")
        if rep is not None:
            reps.append(rep)
            rss.append(mb)
    return {
        "setup_s": median_or_zero([r["setup_s"] for r in reps]),
        "train_img_s": median_or_zero([img_per_s(r) for r in reps]),
        "time_to_train_s": median_or_zero([r["wall_s"] for r in reps]),
        "peak_rss_mb": median_or_zero(rss),
    }


def kind_metric(direction, kind):
    return f"nn.{direction}.{kind}_ms"


def traced(run, seconds, names):
    """Per-layer metrics: medians over traced trials."""
    base, _ = run.run("train")
    reps = []
    while run.may_start(not reps or run.elapsed() < seconds):
        rep, _ = run.run("trace")
        if rep is not None:
            reps.append(rep)
    values = {n: [] for n in names}
    for rep in reps:
        flat = dict(rep["per_layer"])
        for k in rep["kinds"]:
            flat[kind_metric("fwd", k["kind"])] = k["fwd_ms"]
            flat[kind_metric("bwd", k["kind"])] = k["bwd_ms"]
        if base is not None:
            flat["bench.trace_overhead_pct"] = \
                100.0 * (1.0 - img_per_s(rep) / img_per_s(base))
        for n in names:
            values[n].append(flat.get(n, 0.0))
    if reps:
        print_ledger(run.args.workload, reps[0])
        for k in reps[0]["kinds"]:
            if kind_metric("fwd", k["kind"]) not in values:
                log(f"perfbench: layer kind {k['kind']} has no declared "
                    "metric; it appears in the ledger only")
    return {n: median_or_zero(v) for n, v in values.items()}


def print_ledger(workload, rep):
    """Top three layer kinds by backward time, beside the sgemm peak."""
    layer = rep["per_layer"]
    peak = layer["tensor.sgemm_gflops"]
    step = layer["train.step_ms"]
    print(f"ledger {workload}: step {step:.2f} ms, "
          f"sgemm peak {peak:.1f} GF/s (1 thread)")
    top = sorted(rep["kinds"], key=lambda k: -k["bwd_ms"])[:3]
    for i, k in enumerate(top, 1):
        print(f"  {i}. {kind_metric('bwd', k['kind'])}: {k['bwd_ms']:.3f} ms "
              f"({100 * k['bwd_ms'] / step:.1f}% of step), "
              f"{k['bwd_gflops']:.1f} GF/s vs sgemm {peak:.1f} GF/s; "
              f"fwd {k['fwd_ms']:.3f} ms, {k['fwd_gflops']:.1f} GF/s")


def context_stamp(run):
    gates = {g: os.environ[g] for g in GATES if g in os.environ}
    stamp = {"workload": run.args.workload, "seed": run.args.seed,
             "nproc": os.cpu_count(), "isa": run.isa, "gates": gates,
             "default_gates": not gates, "hash": run.hash}
    print("context " + json.dumps(stamp, sort_keys=True))
    if gates:
        log("perfbench: warning: non-default runtime gates set "
            f"({', '.join(sorted(gates))}); results are not comparable "
            "with default runs")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken workloads (self-test)")
    ap.add_argument("--reference", default=os.path.join(HERE,
                                                        "reference.json"))
    args = ap.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    with open(args.reference) as f:
        reference = json.load(f)
    binary = build()

    run = Run(binary, args, reference)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in declared]
    if args.trace:
        values = traced(run, args.seconds, names)
    else:
        values = untraced(run, args.seconds)
    context_stamp(run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
