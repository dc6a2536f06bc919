#!/usr/bin/env bash
# Builds the suite with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs the full test suite. The CSR token arena and the span-based object
# docs make every verification kernel read through raw pointers into one
# big buffer — ASan catches any off-by-one in the arena offsets or a span
# outliving its database, UBSan catches overflow in the filter bounds.
# Usage: scripts/run_asan_tests.sh [build_dir]
set -eu

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S "$(dirname "$0")/.." -DSTPS_ASAN=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error so CI fails fast; detect_leaks catches forgotten arenas in
# the builders; UBSan prints stacks for every report.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1${ASAN_OPTIONS:+ $ASAN_OPTIONS}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1${UBSAN_OPTIONS:+ $UBSAN_OPTIONS}"

cd "$BUILD_DIR"
ctest --output-on-failure
