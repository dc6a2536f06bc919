// Sweep workload (sweep_sparse): the paper's threshold sweeps for joins
// (Fig. 4/5) and top-k (Fig. 7), all through kAuto.
//
// The run is a sequence of rounds until the time is up. Each round:
//  1. set-up: the stps_cli default load path (verifying ReadBinary of the
//     v3 snapshot), several times; the last load serves the round;
//  2. with fresh planner feedback, a first pass over the 12-query set
//     (what a new process pays);
//  3. warm passes over the same set.
// Every cold-start figure is thus sampled once per round, spread over the
// whole run like the warm latencies, and run.py reports medians. Every
// result is checksummed; each query must return the same answer in every
// pass of every round and the same answer as an explicit S-PPJ-F /
// TOPK-S-PPJ-P run, made once at the end.
//
// A traced run records spans around every call into the library, calls
// PlanSTPSJoin / PlanTopKSTPSJoin before each traced query to learn the
// shape and the planning time (outside the timed library call), and times
// ComputePlannerStats and BuildUserSketches once on the loaded database.
// Warm passes alternate traced and untraced, so the tracing overhead is
// measured in the same run.

#include <string>
#include <vector>

#include "bench_common.h"
#include "core/stpsjoin.h"
#include "io/binary.h"
#include "planner/feedback.h"
#include "planner/planner.h"

namespace perfbench {

namespace {

// nproc = 4 on the reference host: the sweep keeps half of it.
constexpr int kThreadBudget = 2;
constexpr size_t kTopK = 10;
constexpr int kSetupsPerRound = 3;
constexpr int kWarmPassesPerRound = 2;
// A minimum round count fixes the minimum warm sample count, and with it
// the tail percentile run.py reports (p90 of >= 120 samples).
constexpr int kMinRounds = 5;

struct SweepQuery {
  bool topk = false;
  double eps_loc = 0.0;
  double eps = 0.0;  // eps_doc, and eps_u for joins
};

/// The 12-query set around the CheckinSparse defaults.
std::vector<SweepQuery> QuerySet() {
  std::vector<SweepQuery> queries;
  for (const double eps_loc : {0.001, 0.004}) {
    for (const double e : {0.3, 0.4, 0.5}) {
      queries.push_back({false, eps_loc, e});
      queries.push_back({true, eps_loc, e});
    }
  }
  return queries;
}

std::string Label(const SweepQuery& q) {
  char buffer[64];
  if (q.topk) {
    std::snprintf(buffer, sizeof(buffer), "topk(%g,%g,k=%zu)", q.eps_loc,
                  q.eps, kTopK);
  } else {
    std::snprintf(buffer, sizeof(buffer), "join(%g,%g,%g)", q.eps_loc, q.eps,
                  q.eps);
  }
  return buffer;
}

struct Execution {
  uint64_t checksum = 0;
  size_t size = 0;
  double ms = 0.0;       // the library call (what a caller waits for)
  double plan_ms = 0.0;  // traced runs: the separate planning call
  std::string shape;     // traced runs: the plan the query ran under
  stps::JoinStats stats;
};

/// Runs one query. `reference` selects the explicit S-PPJ-F /
/// TOPK-S-PPJ-P algorithm instead of kAuto.
Execution Execute(const stps::ObjectDatabase& db, const SweepQuery& q,
                  bool reference, Tracer* tracer) {
  Execution e;
  const uint64_t request = tracer->NewRequest();
  std::vector<stps::ScoredUserPair> result;
  const bool plan = tracer->enabled() && !reference;
  const char* run_span = reference ? "core.reference" : "core.run";
  if (!q.topk) {
    stps::STPSQuery query;
    query.eps_loc = q.eps_loc;
    query.eps_doc = q.eps;
    query.eps_u = q.eps;
    stps::JoinOptions options;
    options.algorithm =
        reference ? stps::JoinAlgorithm::kSPPJF : stps::JoinAlgorithm::kAuto;
    options.threads = kThreadBudget;
    if (plan) {
      const double start = NowMs();
      ScopedSpan span(tracer, "planner.plan", request);
      e.shape = ShapeLabel(stps::PlanSTPSJoin(db, query, options).shape);
      e.plan_ms = NowMs() - start;
    }
    const double start = NowMs();
    {
      ScopedSpan span(tracer, run_span, request);
      result = stps::RunSTPSJoin(db, query, options, &e.stats);
    }
    e.ms = NowMs() - start;
  } else {
    stps::TopKQuery query;
    query.eps_loc = q.eps_loc;
    query.eps_doc = q.eps;
    query.k = kTopK;
    query.parallel.num_threads = kThreadBudget;
    const stps::TopKAlgorithm algorithm =
        reference ? stps::TopKAlgorithm::kP : stps::TopKAlgorithm::kAuto;
    if (plan) {
      const double start = NowMs();
      ScopedSpan span(tracer, "planner.plan", request);
      e.shape = ShapeLabel(stps::PlanTopKSTPSJoin(db, query).shape);
      e.plan_ms = NowMs() - start;
    }
    const double start = NowMs();
    {
      ScopedSpan span(tracer, run_span, request);
      result = stps::RunTopKSTPSJoin(db, query, algorithm, &e.stats);
    }
    e.ms = NowMs() - start;
  }
  e.checksum = ResultChecksum(result);
  e.size = result.size();
  return e;
}

}  // namespace

int RunSweep(const RunOptions& options, JsonWriter* json) {
  Tracer tracer(options.trace);
  Tracer untraced(false);
  std::vector<Check> checks;
  const std::vector<SweepQuery> queries = QuerySet();
  const size_t n = queries.size();

  std::vector<double> setup_ms;       // every set-up
  std::vector<double> first_pass_ms;  // per round
  std::vector<double> visible_ms;     // per round: load + first answer
  std::vector<double> latency_ms, topk_ms, pass_ms;
  std::vector<double> traced_pass_ms, untraced_pass_ms;
  std::vector<double> plan_ms, exec_ms, explore_ms, switches;
  std::vector<std::vector<double>> warm_ms(n);
  std::vector<Execution> first;  // round 0's first pass: the answers
  stps::JoinStats first_stats, pass_stats;
  uint64_t attempted = 0;
  uint64_t mismatches = 0;
  size_t warm_passes = 0;
  stps::ObjectDatabase db;

  const double deadline = NowMs() + options.seconds * 1000.0;
  for (int round = 0; round < kMinRounds || NowMs() < deadline; ++round) {
    // --- Set-up: the verifying load path, repeated. ---------------------
    {
      ScopedSpan root(&tracer, "bench.setup");
      for (int i = 0; i < kSetupsPerRound; ++i) {
        db = stps::ObjectDatabase();
        const double start = NowMs();
        stps::Result<stps::ObjectDatabase> loaded = [&] {
          ScopedSpan span(&tracer, "io.read");
          return stps::ReadBinary(options.snapshot);
        }();
        setup_ms.push_back(NowMs() - start);
        if (!loaded.ok()) {
          std::fprintf(stderr, "ReadBinary: %s\n",
                       loaded.status().ToString().c_str());
          return 1;
        }
        db = std::move(loaded).value();
      }
    }

    // --- First pass with fresh planner feedback. --------------------------
    stps::PlannerFeedback::Global().Reset();
    std::vector<Execution> cold;
    double round_switches = 0.0;
    {
      ScopedSpan root(&tracer, "bench.first_pass");
      double total = 0.0;
      for (const SweepQuery& q : queries) {
        cold.push_back(Execute(db, q, false, &tracer));
        total += cold.back().ms;
        round_switches += cold.back().stats.planner_plan_switches;
        if (round == 0) first_stats.Merge(cold.back().stats);
      }
      first_pass_ms.push_back(total);
      visible_ms.push_back(setup_ms.back() + cold.front().ms);
    }
    attempted += n;
    if (round == 0) first = cold;
    for (size_t i = 0; i < n; ++i) {
      if (cold[i].checksum != first[i].checksum) ++mismatches;
    }

    // --- Warm passes; traced runs alternate traced and untraced. ----------
    std::vector<std::string> converged(n);
    for (int p = 0; p < kWarmPassesPerRound; ++p, ++warm_passes) {
      const bool traced = tracer.enabled() && warm_passes % 2 == 0;
      Tracer* t = traced ? &tracer : &untraced;
      ScopedSpan root(t, "bench.warm_pass");
      double total = 0.0;
      pass_stats = stps::JoinStats();
      for (size_t i = 0; i < n; ++i) {
        Execution e = Execute(db, queries[i], false, t);
        if (e.checksum != first[i].checksum) ++mismatches;
        total += e.ms;
        latency_ms.push_back(e.ms);
        if (queries[i].topk) topk_ms.push_back(e.ms);
        warm_ms[i].push_back(e.ms);
        round_switches += e.stats.planner_plan_switches;
        pass_stats.Merge(e.stats);
        if (traced) {
          plan_ms.push_back(e.plan_ms);
          exec_ms.push_back(e.ms);
          converged[i] = e.shape;
        }
      }
      pass_ms.push_back(total);
      if (tracer.enabled()) {
        (traced ? traced_pass_ms : untraced_pass_ms).push_back(total);
      }
      attempted += n;
    }
    switches.push_back(round_switches);

    // First-pass time spent on shapes other than the one each query
    // settled on in this round.
    if (tracer.enabled()) {
      double explore = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (cold[i].shape != converged[i]) explore += cold[i].ms;
      }
      explore_ms.push_back(explore);
    }
  }
  checks.push_back({"every_pass_matches_first_pass", mismatches == 0,
                    std::to_string(mismatches) + " mismatching executions"});

  // Traced runs price two set-up components on their own.
  SetupParts parts;
  if (tracer.enabled()) {
    ScopedSpan root(&tracer, "bench.setup_parts");
    parts = TimeSetupParts(db, &tracer, &checks);
  }

  // --- Reference answers from explicit exact algorithms. -----------------
  uint64_t reference_mismatches = 0;
  std::vector<double> reference_ms;
  {
    ScopedSpan root(&tracer, "bench.reference");
    for (size_t i = 0; i < n; ++i) {
      const Execution e = Execute(db, queries[i], true, &tracer);
      reference_ms.push_back(e.ms);
      if (e.checksum != first[i].checksum) ++reference_mismatches;
    }
  }
  attempted += n;
  checks.push_back({"kauto_matches_explicit_plan", reference_mismatches == 0,
                    std::to_string(reference_mismatches) +
                        " queries differ from S-PPJ-F / TOPK-S-PPJ-P"});

  // --- Report. ------------------------------------------------------------
  WriteReportHead(*options.workload, db.num_objects(), db.num_users(), checks,
                  attempted, mismatches + reference_mismatches, json);
  json->Field("setup_ms", setup_ms);
  json->Field("peak_rss_mb", PeakRssMb());
  json->Field("first_pass_ms", first_pass_ms);
  json->Field("visible_ms", visible_ms);
  json->Field("latency_ms", latency_ms);
  json->Field("min_samples",
              static_cast<double>(kMinRounds * kWarmPassesPerRound * n));
  json->Field("topk_ms", topk_ms);
  json->Field("pass_ms", pass_ms);
  json->Field("pass_queries", static_cast<double>(n));
  json->Field("overhead_traced", traced_pass_ms);
  json->Field("overhead_untraced", untraced_pass_ms);

  json->Key("queries");
  json->BeginArray();
  for (size_t i = 0; i < n; ++i) {
    json->BeginObject();
    json->Field("label", Label(queries[i]));
    json->Field("first_ms", first[i].ms);
    json->Field("warm_ms", warm_ms[i]);
    json->Field("reference_ms", reference_ms[i]);
    json->Field("results", static_cast<double>(first[i].size));
    json->Field("first_shape", first[i].shape);
    json->EndObject();
  }
  json->EndArray();

  // Per-layer values the driver measures itself; run.py takes the median
  // of each list and adds the span-derived ones and the prepare-side io.
  json->Key("layers");
  json->BeginObject();
  json->Field("planner.plan_ms", plan_ms);
  json->Field("planner.switches", switches);
  json->Field("planner.explore_ms", explore_ms);
  json->Field("planner.est_ratio",
              Ratio(first_stats.planner_estimated_candidates,
                    first_stats.pairs_candidate));
  json->Field("core.exec_ms", exec_ms);
  WriteJoinStatsLayers(pass_stats, json);
  WriteSetupParts(parts, json);
  json->Field("io.read_ms", setup_ms);
  json->EndObject();

  json->Key("spans");
  tracer.Write(json);
  json->EndObject();
  return 0;
}

}  // namespace perfbench
