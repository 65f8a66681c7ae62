#!/usr/bin/env bash
# Tier-2 ThreadSanitizer gate: rebuild the thread-heavy test binaries with
# MINSGD_SANITIZE=thread and run everything labeled tier2-tsan. The async
# collective engine adds a per-rank comm worker thread to the SimCluster
# rank threads, and each rank now drives its own ComputeContext worker
# pool (nested parallelism), so test_comm / test_train / test_overlap /
# test_context / test_determinism must stay TSan-clean for the overlap and
# intra-op paths to be trusted. With overlap on, the comm worker reduces
# each bucket in place inside the network's live gradient storage
# (Network::grad_span) while backward still writes other slices of it, so
# the bucket and layer slices must be provably disjoint. test_elastic joins the gate: the elastic
# coordinator's rendezvous/watchdog and communicator re-forms across
# generations add cross-thread handoffs that must also be race-free.
# test_comm's rendezvous ring steps read a neighbour rank's chunk in place (Communicator::exchange), ordered only by the mailbox post/complete handshake.
# test_obs carries the flight recorder's seqlock: concurrent writers racing
# a snapshot reader must be exact under TSan, not just in practice.
# test_fault's restart driver tears the shared SyncReplica engine (and its
# overlap comm worker) down mid-collective before rebuilding the cluster.
# test_gemm/test_conv cover the packed-panel kernels' per-chunk scratch;
# test_plan covers planned forward/backward, where many layers share one
# arena block and any cross-chunk overlap would be a real race.
#
# Usage: scripts/tsan_tier2.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMINSGD_SANITIZE=thread

cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_comm test_train test_overlap test_context test_determinism \
           test_elastic test_obs test_fault test_gemm test_conv test_plan

# TSan findings must fail the gate, not just print.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 exitcode=66}"

ctest --test-dir "$BUILD_DIR" -L tier2-tsan --output-on-failure
echo "tier2-tsan: all labeled suites TSan-clean"
