// Planner-regret benchmark: how close does kAuto get to the best static
// choice, and does it beat the static default (S-PPJ-F)?
//
// Sweeps three dataset regimes (GeoText-like sparse country extent,
// CheckinSparse near-linear close-pair growth, Flickr-like POI hotspots)
// at two spatial densities each (the paper's default eps_loc and 4x
// looser), in two passes over the configurations:
//
//   1. cold: per configuration, PlannerFeedback is reset and kAuto runs
//      once — the plan a fresh process (every `stps_cli join`) executes
//      before anything calibrated it;
//   2. calibrated, starting from a reset feedback map, per configuration:
//      * every static variant (S-PPJ-C/B/F/D) runs twice, best-of-two;
//        the minimum over variants is the oracle, S-PPJ-F's time is the
//        static default. These runs also warm PlannerFeedback's per-shape
//        EWMAs — by design, since explicit runs feed the planner too.
//      * kAuto runs three times; the converged time is the best of runs
//        2-3 (run 1 may re-plan once as the feedback settles).
//
// The cold runs get a pass of their own so that none of them warms a
// configuration for the calibrated pass: there, each configuration's
// first run still comes straight after other configurations' runs.
//
// Brute force is omitted from the oracle: it is dominated by >10x at
// every sweep point here and would triple the wall-clock.
//
// Every run's result list is checksummed against the first variant's —
// all plans are exact, so any divergence aborts the bench.
//
// Summary gates (committed in BENCH_planner.json, held by check_all.sh):
//   planner_regret_vs_oracle      geomean over configs of auto/oracle,
//                                 required <= 1.25
//   planner_beats_static_default  geomean of default/auto, required >= 1.0
//   planner_cold_regret_vs_oracle geomean of cold/oracle, required <= 2.0
//
// Usage: bench_planner [--smoke] [output.json] (default BENCH_planner.json)

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
#include "planner/feedback.h"
#include "planner/planner.h"

namespace stps::bench {
namespace {

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

struct ConfigRow {
  const char* dataset = "";
  double eps_loc = 0;
  double eps_doc = 0;
  double eps_u = 0;
  uint64_t matches = 0;
  double default_ms = 0;  // static S-PPJ-F, best of 2
  double oracle_ms = 0;   // min over static variants, best of 2 each
  double auto_ms = 0;     // kAuto, best of converged runs 2-3
  double cold_ms = 0;     // kAuto with fresh feedback, one run
  std::string oracle_algorithm;
  std::string cold_algorithm;  // the fresh plan, "<shape>/t<threads>"
  std::string auto_algorithm;  // the last converged plan, same format
  uint64_t checksum = 0;       // of the first run's result
};

constexpr int kThreadBudget = 4;

std::string ShapeLabel(const PlanShape& shape) {
  return PlanShapeName(shape) + "/t" + std::to_string(shape.threads);
}

STPSQuery ConfigQuery(DatasetKind kind, double eps_loc_scale) {
  STPSQuery query = DefaultQuery(kind);
  query.eps_loc *= eps_loc_scale;
  return query;
}

// Every run, planned or static, gets the same thread budget.
JoinOptions BudgetOptions(JoinAlgorithm algorithm) {
  JoinOptions options;
  options.algorithm = algorithm;
  options.threads = kThreadBudget;
  return options;
}

// One timed run through the umbrella; aborts on result divergence.
double TimedRun(const ObjectDatabase& db, const STPSQuery& query,
                JoinAlgorithm algorithm, uint64_t* checksum,
                uint64_t* matches) {
  const JoinOptions options = BudgetOptions(algorithm);
  JoinStats stats;
  Timer timer;
  const auto result = RunSTPSJoin(db, query, options, &stats);
  const double ms = timer.ElapsedMillis();
  RecordJoinStats(JoinAlgorithmName(algorithm), stats);
  const uint64_t sum = ResultChecksum(result);
  if (*checksum == 0) {
    *checksum = sum;
    *matches = result.size();
  } else if (sum != *checksum) {
    std::fprintf(stderr, "checksum mismatch: %s returned %zu matches\n",
                 std::string(JoinAlgorithmName(algorithm)).c_str(),
                 result.size());
    std::abort();
  }
  return ms;
}

// Pass 1: one kAuto run with fresh feedback; starts the row.
ConfigRow RunCold(DatasetKind kind, size_t users, double eps_loc_scale) {
  const ObjectDatabase& db = GetDataset(kind, users);
  const STPSQuery query = ConfigQuery(kind, eps_loc_scale);

  ConfigRow row;
  row.dataset = DatasetKindName(kind);
  row.eps_loc = query.eps_loc;
  row.eps_doc = query.eps_doc;
  row.eps_u = query.eps_u;

  PlannerFeedback::Global().Reset();
  row.cold_algorithm = ShapeLabel(
      PlanSTPSJoin(db, query, BudgetOptions(JoinAlgorithm::kAuto)).shape);
  row.cold_ms = TimedRun(db, query, JoinAlgorithm::kAuto, &row.checksum,
                         &row.matches);
  return row;
}

// Pass 2: the static sweep, then the calibrated kAuto runs.
void RunCalibrated(DatasetKind kind, size_t users, double eps_loc_scale,
                   ConfigRow* row) {
  const ObjectDatabase& db = GetDataset(kind, users);
  const STPSQuery query = ConfigQuery(kind, eps_loc_scale);
  uint64_t& checksum = row->checksum;

  row->oracle_ms = 1e300;
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJF, JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB,
        JoinAlgorithm::kSPPJD}) {
    double best = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      best = std::min(
          best, TimedRun(db, query, algorithm, &checksum, &row->matches));
    }
    if (algorithm == JoinAlgorithm::kSPPJF) row->default_ms = best;
    if (best < row->oracle_ms) {
      row->oracle_ms = best;
      row->oracle_algorithm = JoinAlgorithmName(algorithm);
    }
  }

  row->auto_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    row->auto_algorithm = ShapeLabel(
        PlanSTPSJoin(db, query, BudgetOptions(JoinAlgorithm::kAuto)).shape);
    const double ms =
        TimedRun(db, query, JoinAlgorithm::kAuto, &checksum, &row->matches);
    if (rep >= 1) row->auto_ms = std::min(row->auto_ms, ms);
  }
}

double Geomean(const std::vector<double>& values) {
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(std::max(v, 1e-12));
  return values.empty() ? 1.0 : std::exp(log_sum / values.size());
}

}  // namespace
}  // namespace stps::bench

int main(int argc, char** argv) {
  using namespace stps;
  using namespace stps::bench;

  bool smoke = false;
  std::string out_path = "BENCH_planner.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const size_t users = smoke ? 120 : 700;

  const std::vector<DatasetKind> kinds = {DatasetKind::kGeoTextLike,
                                          DatasetKind::kCheckinSparse,
                                          DatasetKind::kFlickrLike};
  const std::vector<double> density_scales = {1.0, 4.0};

  std::printf("%14s %9s %8s %7s %9s %11s %10s %9s %7s %8s %9s %6s  %-14s "
              "%s\n",
              "dataset", "eps_loc", "eps_doc", "eps_u", "matches",
              "default_ms", "oracle_ms", "auto_ms", "regret", "vs_def",
              "cold_ms", "cold", "auto_plan", "cold_plan");

  std::vector<ConfigRow> rows;
  for (const DatasetKind kind : kinds) {
    for (const double scale : density_scales) {
      rows.push_back(RunCold(kind, users, scale));
    }
  }
  // Fresh coefficients: the oracle sweep below is the only calibration
  // the converged kAuto runs get.
  PlannerFeedback::Global().Reset();

  std::vector<double> regrets;
  std::vector<double> vs_default;
  std::vector<double> cold_regrets;
  size_t next = 0;
  for (const DatasetKind kind : kinds) {
    for (const double scale : density_scales) {
      ConfigRow& r = rows[next++];
      RunCalibrated(kind, users, scale, &r);
      const double regret = r.auto_ms / std::max(r.oracle_ms, 1e-6);
      const double beats = r.default_ms / std::max(r.auto_ms, 1e-6);
      const double cold_regret = r.cold_ms / std::max(r.oracle_ms, 1e-6);
      regrets.push_back(regret);
      vs_default.push_back(beats);
      cold_regrets.push_back(cold_regret);
      std::printf("%14s %9.4f %8.2f %7.2f %9" PRIu64
                  " %11.1f %10.1f %9.1f %7.2f %8.2f %9.1f %6.2f  %-14s %s\n",
                  r.dataset, r.eps_loc, r.eps_doc, r.eps_u, r.matches,
                  r.default_ms, r.oracle_ms, r.auto_ms, regret, beats,
                  r.cold_ms, cold_regret, r.auto_algorithm.c_str(),
                  r.cold_algorithm.c_str());
    }
  }

  const double regret_geomean = Geomean(regrets);
  const double beats_geomean = Geomean(vs_default);
  const double cold_geomean = Geomean(cold_regrets);

  std::FILE* json = std::fopen(out_path.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"planner\",\n  \"users\": %zu,\n"
               "  \"thread_budget\": %d,\n  \"rows\": [\n",
               users, kThreadBudget);
  for (size_t i = 0; i < rows.size(); ++i) {
    const ConfigRow& r = rows[i];
    std::fprintf(json,
                 "%s    {\"dataset\": \"%s\", \"eps_loc\": %.4f, "
                 "\"eps_doc\": %.2f, \"eps_u\": %.2f, \"matches\": %" PRIu64
                 ", \"oracle_algorithm\": \"%s\", \"default_ms\": %.2f, "
                 "\"oracle_ms\": %.2f, \"auto_algorithm\": \"%s\", "
                 "\"auto_ms\": %.2f, \"cold_algorithm\": \"%s\", "
                 "\"cold_ms\": %.2f}",
                 i == 0 ? "" : ",\n", r.dataset, r.eps_loc, r.eps_doc,
                 r.eps_u, r.matches, r.oracle_algorithm.c_str(),
                 r.default_ms, r.oracle_ms, r.auto_algorithm.c_str(),
                 r.auto_ms, r.cold_algorithm.c_str(), r.cold_ms);
  }
  std::fprintf(json,
               "\n  ],\n  \"planner_regret_vs_oracle\": %.3f,\n"
               "  \"planner_beats_static_default\": %.3f,\n"
               "  \"planner_cold_regret_vs_oracle\": %.3f\n}\n",
               regret_geomean, beats_geomean, cold_geomean);
  std::fclose(json);

  std::printf("\ngeomean regret vs oracle: %.3f (gate <= 1.25)\n"
              "geomean speedup vs static default: %.3f (gate >= 1.0)\n"
              "geomean cold-start regret vs oracle: %.3f (gate <= 2.0)\n",
              regret_geomean, beats_geomean, cold_geomean);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
