#!/usr/bin/env bash
# Builds the suite with ThreadSanitizer and runs the concurrency-relevant
# tests (the fork-join loop, parallel determinism, cross-algorithm fuzz).
# Any data race in the loop or the parallel join drivers fails the run.
# Usage: scripts/run_tsan_tests.sh [build_dir]
set -eu

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." -DSTPS_TSAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  thread_pool_test parallel_test consistency_fuzz_test sketch_test \
  planner_test update_test delta_publish_test server_test

# halt_on_error so CI fails fast; second_deadlock_stack for lock-order
# reports that involve two locks (the shared top-k queue's, a server's).
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1${TSAN_OPTIONS:+ $TSAN_OPTIONS}"

cd "$BUILD_DIR"
ctest --output-on-failure -R 'thread_pool_test|parallel_test|consistency_fuzz_test|sketch_test|planner_test|update_test|delta_publish_test|server_test'
