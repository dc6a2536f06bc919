// Candidate-growth benchmark for the standalone sketch layer: sweeps the
// number of users on the CheckinSparse preset (city count scales with
// users, so the true close-pair graph grows near-linearly) and reports
// how many exact pair verifications each strategy performs:
//
//   brute_pairs       C(n, 2) — what brute force verifies
//   baseline_verified what S-PPJ-F's filter stage lets through
//   sketch_candidates what the band index generates (== verifications,
//                     since every sketch candidate is exactly verified)
//
// The sketch index is built once per sweep point (BuildUserSketches),
// outside sketch_ms, which times SketchSTPSJoin alone.
//
// The gates are work counters, not wall-clock — exactly reproducible on
// any machine at any load:
//   verify_reduction_at_max   brute_pairs / sketch_candidates at the
//                             largest sweep point (regression gate >= 3)
//   candidate_growth_exponent log-log slope of sketch_candidates in n
//                             over the sweep (sub-quadratic gate < 2)
//
// Both runs must produce the identical match set — a positional checksum
// over (a, b, score-bits) guards the exactness contract; any mismatch
// aborts the bench.
//
// Usage: bench_sketch [--smoke] [output.json]  (default BENCH_sketch.json)

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/join_stats.h"
#include "core/stpsjoin.h"
#include "sketch/sketch.h"
#include "sketch/sketch_join.h"

namespace stps::bench {
namespace {

// Order-sensitive checksum over the exact result list; both strategies
// return (a, b)-sorted pairs with bitwise-exact scores, so equality here
// means equality of the full result sets.
uint64_t ResultChecksum(const std::vector<ScoredUserPair>& result) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (const ScoredUserPair& p : result) {
    uint64_t x = (static_cast<uint64_t>(p.a) << 32) | p.b;
    x ^= std::bit_cast<uint64_t>(p.score) + 0x9E3779B97F4A7C15ull +
         (h << 6) + (h >> 2);
    h ^= x * 0xBF58476D1CE4E5B9ull;
    h = (h << 13) | (h >> 51);
  }
  return h ^ result.size();
}

struct SweepRow {
  size_t users = 0;
  uint64_t brute_pairs = 0;
  uint64_t baseline_verified = 0;
  uint64_t sketch_candidates = 0;
  uint64_t sketch_rejections = 0;
  uint64_t matches = 0;
  double baseline_ms = 0;
  double sketch_ms = 0;
};

SweepRow RunSweepPoint(size_t users) {
  SweepRow row;
  row.users = users;
  const ObjectDatabase& db = GetDataset(DatasetKind::kCheckinSparse, users);
  const STPSQuery query = DefaultQuery(DatasetKind::kCheckinSparse);
  row.brute_pairs = static_cast<uint64_t>(users) * (users - 1) / 2;

  JoinStats baseline_stats;
  Timer baseline_timer;
  const auto baseline = RunSTPSJoin(db, query, {}, &baseline_stats);
  row.baseline_ms = baseline_timer.ElapsedMillis();
  row.baseline_verified = baseline_stats.pairs_verified;
  RecordJoinStats("S-PPJ-F", baseline_stats);

  const auto sketches = BuildUserSketches(db);
  JoinStats sketch_stats;
  Timer sketch_timer;
  const auto sketched =
      SketchSTPSJoin(db, *sketches, query, ParallelOptions{}, &sketch_stats);
  row.sketch_ms = sketch_timer.ElapsedMillis();
  row.sketch_candidates = sketch_stats.sketch_candidate_pairs;
  row.sketch_rejections = sketch_stats.sketch_rejections;
  row.matches = sketched.size();
  RecordJoinStats("sketch", sketch_stats);

  if (ResultChecksum(baseline) != ResultChecksum(sketched)) {
    std::fprintf(stderr,
                 "checksum mismatch at %zu users: baseline %zu matches, "
                 "sketch %zu matches\n",
                 users, baseline.size(), sketched.size());
    std::abort();
  }
  return row;
}

}  // namespace
}  // namespace stps::bench

int main(int argc, char** argv) {
  using namespace stps;
  using namespace stps::bench;

  bool smoke = false;
  std::string out_path = "BENCH_sketch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  // Full scale quadruples the user count three times so the log-log
  // slope is measured across almost an order of magnitude; smoke scale
  // proves the paths run, agree, and emit well-formed JSON.
  const std::vector<size_t> sweep =
      smoke ? std::vector<size_t>{100, 200}
            : std::vector<size_t>{400, 800, 1600, 3200};

  std::printf("%8s %12s %14s %14s %12s %9s %10s %9s\n", "users",
              "brute_pairs", "baseline_verif", "sketch_cands", "rejections",
              "matches", "base_ms", "sk_ms");

  std::vector<SweepRow> rows;
  for (const size_t users : sweep) {
    rows.push_back(RunSweepPoint(users));
    const SweepRow& r = rows.back();
    std::printf("%8zu %12" PRIu64 " %14" PRIu64 " %14" PRIu64 " %12" PRIu64
                " %9" PRIu64 " %10.1f %9.1f\n",
                r.users, r.brute_pairs, r.baseline_verified,
                r.sketch_candidates, r.sketch_rejections, r.matches,
                r.baseline_ms, r.sketch_ms);
  }

  const SweepRow& last = rows.back();
  const double verify_reduction_at_max =
      static_cast<double>(last.brute_pairs) /
      static_cast<double>(std::max<uint64_t>(1, last.sketch_candidates));
  // Log-log slope of sketch candidates in users across the whole sweep;
  // brute force sits at exactly 2.0 on this axis.
  const double log_cands_lo = std::log(static_cast<double>(
      std::max<uint64_t>(1, rows.front().sketch_candidates)));
  const double log_cands_hi = std::log(
      static_cast<double>(std::max<uint64_t>(1, last.sketch_candidates)));
  const double candidate_growth_exponent =
      (log_cands_hi - log_cands_lo) /
      (std::log(static_cast<double>(last.users)) -
       std::log(static_cast<double>(rows.front().users)));

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"sketch\",\n  \"dataset\": "
               "\"CheckinSparse\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(json,
                 "%s    {\"users\": %zu, \"brute_pairs\": %" PRIu64
                 ", \"baseline_verified\": %" PRIu64
                 ", \"sketch_candidates\": %" PRIu64
                 ", \"sketch_rejections\": %" PRIu64 ", \"matches\": %" PRIu64
                 ", \"baseline_ms\": %.1f, \"sketch_ms\": %.1f}",
                 i == 0 ? "" : ",\n", r.users, r.brute_pairs,
                 r.baseline_verified, r.sketch_candidates,
                 r.sketch_rejections, r.matches, r.baseline_ms, r.sketch_ms);
  }
  std::fprintf(json,
               "\n  ],\n  \"verify_reduction_at_max\": %.2f,\n"
               "  \"candidate_growth_exponent\": %.3f\n}\n",
               verify_reduction_at_max, candidate_growth_exponent);
  std::fclose(json);

  std::printf("\nverify reduction vs brute force at %zu users: %.1fx "
              "(candidate growth exponent %.3f, brute force = 2.0)\n",
              last.users, verify_reduction_at_max,
              candidate_growth_exponent);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
