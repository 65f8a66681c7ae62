#!/usr/bin/env bash
# check_all.sh — the full verification matrix in one command:
#
#   analyze      tools/analyze/analyze.py --self-test (every fixture still
#                fires), then every check over src/ tests/ bench/ examples/
#   build        default (RelWithDebInfo) configure + build
#   tier1        full ctest suite in the default build
#   perfbench    the repo benchmark (perfbench/, declared by BENCHMARK.json):
#                python3 perfbench/selftest.py on its tiny configs, then
#                perfbench/run.py --seed 1 for every declared workload,
#                built under build/perfbench-target (CARGO_TARGET_DIR). A
#                run whose result line says "correct": false fails the
#                stage, so a final-weights hash that no longer matches
#                perfbench/reference.json is caught here, not only by the
#                benchmark
#   asan-ubsan   rebuild with MINSGD_SANITIZE=address,undefined
#                (-fno-sanitize-recover=all, no suppression files) and run
#                the full tier-1 suite under it — includes the elastic
#                membership suite (test_elastic), whose fault-injected
#                shrink->grow->shrink soak exercises checkpoint bytes on
#                the wire and reconfiguration retries under ASan/UBSan.
#                The kernel oracle trials (test_gemm, test_conv, and the
#                reduction oracles in test_ops, test_optim, test_layers)
#                then run a second time with MINSGD_KERNEL_ISA=portable so
#                the portable reference path — not just the dispatched SIMD
#                path — gets sanitizer coverage of its panel-packing
#                scratch and its lane tails
#   tier2-tsan   scripts/tsan_tier2.sh: thread-heavy suites under
#                MINSGD_SANITIZE=thread (ctest -L tier2-tsan); test_elastic
#                runs here too — the coordinator's rendezvous/watchdog and
#                the overlap comm worker across generation changes must be
#                TSan-clean
#
# Every stage runs even if an earlier one fails (so one invocation reports
# the whole matrix); the exit code is non-zero if any stage failed.
#
# Usage: scripts/check_all.sh [--skip-tsan] [--skip-asan]
set -u

cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    *) echo "usage: $0 [--skip-tsan] [--skip-asan]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc)"
declare -a STAGE_NAMES=()
declare -a STAGE_RESULTS=()

run_stage() {
  local name="$1"
  shift
  echo
  echo "=== stage: $name ==="
  if "$@"; then
    STAGE_NAMES+=("$name"); STAGE_RESULTS+=("pass")
    return 0
  else
    STAGE_NAMES+=("$name"); STAGE_RESULTS+=("FAIL")
    return 1
  fi
}

skip_stage() {
  STAGE_NAMES+=("$1"); STAGE_RESULTS+=("skipped")
}

# The C++ checker: fixture self-test first (proves every rule still fires),
# then every check over the real tree.
# Findings land in analyze_results/findings.json as well as on stdout.
analyze_stage() {
  python3 tools/analyze/analyze.py --self-test &&
    python3 tools/analyze/analyze.py
}

build_stage() {
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
    cmake --build build -j"$JOBS"
}

tier1_stage() {
  ctest --test-dir build -j"$JOBS" --output-on-failure
}

asan_ubsan_stage() {
  # MINSGD_DCHECK=ON arms the debug invariant layer (tensor bounds, layer
  # contracts) in the same run that arms ASan+UBSan.
  cmake -B build-asan-ubsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMINSGD_SANITIZE=address,undefined \
    -DMINSGD_DCHECK=ON &&
    cmake --build build-asan-ubsan -j"$JOBS" &&
    ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=0}" \
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ctest --test-dir build-asan-ubsan -j"$JOBS" --output-on-failure &&
    # Kernel oracle trials again with the ISA pinned to the portable
    # reference kernel: the dispatched run above covers the SIMD
    # microkernels, this one covers the scalar reference and the shared
    # pack/drive layer under ASan/UBSan.
    ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=0}" \
    UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    MINSGD_KERNEL_ISA=portable \
    ctest --test-dir build-asan-ubsan -j"$JOBS" --output-on-failure \
      -R '^(test_gemm|test_conv|test_ops|test_optim|test_layers)$'
}

perfbench_stage() {
  local target="build/perfbench-target"
  CARGO_TARGET_DIR="$target" python3 perfbench/selftest.py || return 1
  local workloads wl result
  workloads="$(python3 -c 'import json; print(" ".join(
    w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')" ||
    return 1
  for wl in $workloads; do
    # run.py prints build chatter on stderr and its result as stdout's
    # last line.
    result="$(CARGO_TARGET_DIR="$target" python3 perfbench/run.py \
      --workload "$wl" --seed 1)" || return 1
    result="$(printf '%s\n' "$result" | tail -n 1)"
    echo "$wl: $result"
    if ! python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1])["correct"] is True else 1)' "$result"
    then
      echo "perfbench: $wl did not report \"correct\": true" >&2
      return 1
    fi
  done
}

tsan_stage() {
  scripts/tsan_tier2.sh
}

FAILED=0
run_stage "analyze" analyze_stage || FAILED=1
if run_stage "build" build_stage; then
  run_stage "tier1" tier1_stage || FAILED=1
else
  FAILED=1
  skip_stage "tier1"
fi
run_stage "perfbench" perfbench_stage || FAILED=1
if [ "$SKIP_ASAN" -eq 1 ]; then
  skip_stage "asan-ubsan"
else
  run_stage "asan-ubsan" asan_ubsan_stage || FAILED=1
fi
if [ "$SKIP_TSAN" -eq 1 ]; then
  skip_stage "tier2-tsan"
else
  run_stage "tier2-tsan" tsan_stage || FAILED=1
fi

echo
echo "=== check_all summary ==="
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-12s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done
if [ "$FAILED" -ne 0 ]; then
  echo "check_all: FAILED"
  exit 1
fi
echo "check_all: all stages passed"
