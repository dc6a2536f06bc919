#!/usr/bin/env bash
# One-stop pre-merge gate: tier-1 build + full test suite, then both
# sanitizer configurations. Each stage uses its own build directory, so a
# warm tier-1 build is reused across runs.
# Usage: scripts/check_all.sh
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

echo "=== tier-1: Release build + full ctest ==="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$(nproc)"
(cd "$ROOT/build" && ctest --output-on-failure)

echo "=== bench smoke: tiny-scale runs + baseline sanity ==="
# --smoke runs prove the drivers execute and their internal checksums
# agree; the compare step keeps the committed baselines parseable and
# holds the spatial bench to its acceptance floor. Full-scale regression
# diffs (old vs new artifact, >10% gate) are run when regenerating:
#   scripts/compare_bench.py BENCH_spatial.json /tmp/new.json
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cmake --build "$ROOT/build" -j "$(nproc)" --target bench_spatial bench_kernels bench_sketch bench_planner
"$ROOT/build/bench/bench_spatial" --smoke "$SMOKE_DIR/spatial.json"
"$ROOT/build/bench/bench_kernels" --smoke "$SMOKE_DIR/kernels.json"
"$ROOT/build/bench/bench_sketch" --smoke "$SMOKE_DIR/sketch.json"
"$ROOT/build/bench/bench_planner" --smoke "$SMOKE_DIR/planner.json"
python3 "$ROOT/scripts/compare_bench.py" --require 'high_density_speedup>=1.5' \
    "$ROOT/BENCH_spatial.json" "$ROOT/BENCH_spatial.json"
python3 "$ROOT/scripts/compare_bench.py" \
    --require 'low_similarity_workload_speedup>=1.0' \
    "$ROOT/BENCH_kernels.json" "$ROOT/BENCH_kernels.json"
# The sketch gates are work counters (exact on any machine): sketch
# verifications must undercut brute force >= 3x at the largest sweep
# point and grow sub-quadratically in the user count.
python3 "$ROOT/scripts/compare_bench.py" \
    --require 'verify_reduction_at_max>=3' \
    --require 'candidate_growth_exponent<=1.95' \
    "$ROOT/BENCH_sketch.json" "$ROOT/BENCH_sketch.json"
# The same verification floor on the fresh smoke run of the standalone
# sketch driver (11.2 at 200 users).
python3 "$ROOT/scripts/compare_bench.py" \
    --require 'verify_reduction_at_max>=3' \
    "$SMOKE_DIR/sketch.json" "$SMOKE_DIR/sketch.json"
# Planner gates: kAuto within 25% of the best static plan (geomean), no
# slower than always picking the static default, and a fresh process's
# first kAuto run within 2x of the best static plan.
python3 "$ROOT/scripts/compare_bench.py" \
    --require 'planner_regret_vs_oracle<=1.25' \
    --require 'planner_beats_static_default>=1.0' \
    --require 'planner_cold_regret_vs_oracle<=2.0' \
    "$ROOT/BENCH_planner.json" "$ROOT/BENCH_planner.json"

echo "=== perfbench: driver unit tests + sweep_sparse and serve_mixed smokes ==="
# Builds the repo benchmark's driver against src/ (into .bench_build/)
# and runs its output checks (every pass matches the first pass, kAuto
# matches the explicit plan; for serve_mixed the server, insert and
# delta-publish paths), untraced and traced; any non-zero exit fails the
# stage. serve_mixed runs 2 s: its schedule sends the first TOPK 250 ms
# into each open-loop segment, a segment lasts --seconds/6, and a 1 s run
# records no TOPK sample (run.py stops on the empty median).
(cd "$ROOT" && \
     PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench/tests)
(cd "$ROOT" && python3 perfbench/run.py --workload sweep_sparse --seed 1 \
     --seconds 1 --trace 0)
(cd "$ROOT" && python3 perfbench/run.py --workload sweep_sparse --seed 1 \
     --seconds 1 --trace 1)
(cd "$ROOT" && python3 perfbench/run.py --workload serve_mixed --seed 1 \
     --seconds 2 --trace 0)
(cd "$ROOT" && python3 perfbench/run.py --workload serve_mixed --seed 1 \
     --seconds 2 --trace 1)

echo "=== snapshot robustness: fuzz + mmap differential + io bench ==="
# Bit-flip/truncation/trailing-garbage corruption fuzz, heap-vs-mapped
# differential joins, and the binary round trips; then the io bench
# smoke (cold-open + paged joins, internal checksums abort on any
# divergence) and the committed baseline's mmap-open gate.
(cd "$ROOT/build" && \
     ctest --output-on-failure \
         -R 'snapshot_fuzz|mapped_differential|binary_test')
cmake --build "$ROOT/build" -j "$(nproc)" --target bench_io
"$ROOT/build/bench/bench_io" --smoke "$SMOKE_DIR/io.json"
python3 "$ROOT/scripts/compare_bench.py" \
    --require 'mapped_open_speedup>=10' \
    "$ROOT/BENCH_io.json" "$ROOT/BENCH_io.json"

echo "=== update fuzz + server smoke ==="
# The differential insert/delete fuzz (snapshot vs rebuild-from-scratch
# oracle across every join/top-k variant), the delta-vs-full publish
# differential, and the live server end to end: concurrent socket
# clients, publish visibility, graceful shutdown.
(cd "$ROOT/build" && \
     ctest --output-on-failure -R 'update_test|delta_publish_test|server_test')
# Delta publish gates: splicing unchanged per-user state must beat a full
# rebuild >= 10x at the 1%-dirty point, and the bench's inline
# delta-vs-full checksum comparison must have matched on every round.
cmake --build "$ROOT/build" -j "$(nproc)" --target bench_update
"$ROOT/build/bench/bench_update" --smoke "$SMOKE_DIR/update.json"
python3 "$ROOT/scripts/compare_bench.py" \
    --require 'delta_publish_speedup>=10' \
    --require 'delta_full_checksum_match>=1.0' \
    "$ROOT/BENCH_update.json" "$ROOT/BENCH_update.json"
cmake --build "$ROOT/build" -j "$(nproc)" --target stps_cli
python3 "$ROOT/scripts/server_smoke.py" "$ROOT/build/tools/stps_cli"

echo "=== ASan + UBSan ==="
"$ROOT/scripts/run_asan_tests.sh" "$ROOT/build-asan"

echo "=== TSan ==="
"$ROOT/scripts/run_tsan_tests.sh" "$ROOT/build-tsan"

echo "=== UBSan: boundary-adversarial oracle suite ==="
cmake -B "$ROOT/build-ubsan" -S "$ROOT" -DSTPS_UBSAN=ON
cmake --build "$ROOT/build-ubsan" -j "$(nproc)"
(cd "$ROOT/build-ubsan" && \
     UBSAN_OPTIONS=print_stacktrace=1 \
     ctest --output-on-failure \
         -R 'boundary_oracle|predicates|sketch|snapshot_fuzz|mapped_differential')

echo "=== all checks passed ==="
