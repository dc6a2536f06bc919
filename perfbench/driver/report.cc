// Report helpers shared by the run modes.

#include "bench_common.h"
#include "planner/planner_stats.h"
#include "sketch/sketch.h"

namespace perfbench {

std::string ShapeLabel(const stps::PlanShape& shape) {
  return stps::PlanShapeName(shape) + "/t" + std::to_string(shape.threads);
}

SetupParts TimeSetupParts(const stps::ObjectDatabase& db, Tracer* tracer,
                          std::vector<Check>* checks) {
  SetupParts parts;
  double start = NowMs();
  {
    ScopedSpan span(tracer, "planner.stats");
    const stps::PlannerStats stats = stps::ComputePlannerStats(db);
    checks->push_back({"planner_stats_recompute",
                       stats == db.planner_stats(),
                       "recomputed PlannerStats equal the loaded ones"});
  }
  parts.stats_ms = NowMs() - start;
  start = NowMs();
  {
    ScopedSpan span(tracer, "sketch.build");
    const auto sketches = stps::BuildUserSketches(db);
    checks->push_back({"sketch_rebuild",
                       sketches != nullptr &&
                           sketches->num_users() == db.num_users(),
                       "rebuilt sketch layer covers every user"});
  }
  parts.sketch_ms = NowMs() - start;
  return parts;
}

void WriteSetupParts(const SetupParts& parts, JsonWriter* json) {
  json->Field("planner.stats_ms", parts.stats_ms);
  json->Field("sketch.build_ms", parts.sketch_ms);
}

void WriteJoinStatsLayers(const stps::JoinStats& s, JsonWriter* json) {
  const auto d = [](uint64_t v) { return static_cast<double>(v); };
  json->Field("core.candidates", d(s.pairs_candidate));
  json->Field("core.verified", d(s.pairs_verified));
  json->Field("core.matches", d(s.matches_found));
  json->Field("core.cells_visited", d(s.cells_visited));
  json->Field("core.verify_yield",
              Ratio(d(s.matches_found), d(s.pairs_verified)));
  json->Field("core.count_pruned_frac",
              Ratio(d(s.pairs_pruned_count), d(s.pairs_candidate)));
  json->Field("core.early_stop_frac",
              Ratio(d(s.refine_early_stops), d(s.pairs_verified)));
  json->Field("spatial.batch_calls", d(s.batch_distance_calls));
  json->Field("spatial.lanes_per_call",
              Ratio(d(s.batch_lanes_filled), d(s.batch_distance_calls)));
  json->Field("text.signature_rejections",
              Ratio(d(s.signature_rejections), d(s.pairs_verified)));
  json->Field("sketch.candidates", d(s.sketch_candidate_pairs));
}

void WriteReportHead(const WorkloadSpec& workload, uint64_t objects,
                     uint64_t users, const std::vector<Check>& checks,
                     uint64_t attempted, uint64_t failed, JsonWriter* json) {
  json->BeginObject();
  json->Field("mode", "run");
  json->Field("workload", workload.name);
  WriteBuildInfo(json);
  json->Field("objects", static_cast<double>(objects));
  json->Field("users", static_cast<double>(users));
  WriteChecks(checks, json);
  json->Field("attempted", static_cast<double>(attempted));
  json->Field("failed", static_cast<double>(failed));
}

}  // namespace perfbench
