#include "planner/planner.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "planner/feedback.h"

namespace stps {

namespace {

uint64_t HashMix(uint64_t h, uint64_t v) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return HashMix(h, bits);
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

/// Prices every shape in `shapes` and returns the plan choosing the
/// cheapest (predicted milliseconds; ties go to the earlier entry, so
/// the enumeration order below is a deterministic preference order).
PhysicalPlan PickCheapest(const PlannerStats& stats,
                          const PlanEstimate& estimate,
                          std::vector<PlanShape> shapes) {
  PlannerFeedback& feedback = PlannerFeedback::Global();
  PhysicalPlan plan;
  plan.estimate = estimate;
  plan.considered.reserve(shapes.size());
  size_t best = 0;
  for (size_t i = 0; i < shapes.size(); ++i) {
    PlanCandidate c;
    c.shape = shapes[i];
    c.cost_units = EstimateShapeCost(stats, c.shape, estimate,
                                     feedback.CandidateCorrection(c.shape));
    c.predicted_ms = feedback.PredictMillis(c.shape, c.cost_units);
    plan.considered.push_back(c);
    if (c.predicted_ms < plan.considered[best].predicted_ms) best = i;
  }
  plan.shape = plan.considered[best].shape;
  plan.cost_units = plan.considered[best].cost_units;
  plan.predicted_ms = plan.considered[best].predicted_ms;
  std::stable_sort(plan.considered.begin(), plan.considered.end(),
                   [](const PlanCandidate& a, const PlanCandidate& b) {
                     return a.predicted_ms < b.predicted_ms;
                   });
  return plan;
}

}  // namespace

PhysicalPlan PlanSTPSJoin(const ObjectDatabase& db, const STPSQuery& query,
                          const JoinOptions& options) {
  PhysicalPlan fallback;
  fallback.shape.topk = false;
  fallback.shape.join = JoinAlgorithm::kBruteForce;
  fallback.rtree_fanout = options.rtree_fanout;
  if (db.num_objects() == 0 || db.num_users() < 2 ||
      !db.has_planner_stats()) {
    // Nothing to join (or nothing to plan with): brute force settles the
    // handful of pairs without any index build.
    return fallback;
  }
  const PlannerStats& stats = db.planner_stats();
  const int budget = std::max(1, options.threads);

  // Feasible shapes, in deterministic preference order (ties in predicted
  // cost resolve to the earlier entry). Preconditions mirror the
  // per-algorithm contracts in core/stpsjoin.h: the grid algorithms need
  // a positive spatial threshold, the filter-at-a-time pair (F, D)
  // additionally needs real textual and similarity thresholds.
  const bool grid_ok = query.eps_loc > 0.0;
  const bool filter_ok =
      grid_ok && query.eps_doc > 0.0 && query.eps_u > 0.0;
  std::vector<PlanShape> shapes;
  const int thread_options[2] = {1, budget};
  const int num_thread_options = budget > 1 ? 2 : 1;
  for (int ti = 0; ti < num_thread_options; ++ti) {
    const int threads = thread_options[ti];
    PlanShape s;
    s.topk = false;
    s.threads = threads;
    if (filter_ok) {
      s.join = JoinAlgorithm::kSPPJF;
      shapes.push_back(s);
      s.join = JoinAlgorithm::kSPPJD;
      shapes.push_back(s);
    }
    if (grid_ok) {
      s.join = JoinAlgorithm::kSPPJB;
      shapes.push_back(s);
      s.join = JoinAlgorithm::kSPPJC;
      shapes.push_back(s);
    }
    if (threads == 1) {  // brute force has no parallel driver
      s.join = JoinAlgorithm::kBruteForce;
      shapes.push_back(s);
    }
  }

  PhysicalPlan plan = PickCheapest(
      stats,
      EstimateJoinStages(stats, query.eps_loc, query.eps_doc, query.eps_u),
      std::move(shapes));
  plan.rtree_fanout = options.rtree_fanout;
  uint64_t sig = kFnvOffset;
  sig = HashMix(sig, 1);  // join query tag
  sig = HashDouble(sig, query.eps_loc);
  sig = HashDouble(sig, query.eps_doc);
  sig = HashDouble(sig, query.eps_u);
  sig = HashDouble(sig, query.eps_time);
  sig = HashMix(sig, db.num_objects());
  sig = HashMix(sig, db.num_users());
  plan.query_signature = sig;
  return plan;
}

PhysicalPlan PlanTopKSTPSJoin(const ObjectDatabase& db,
                              const TopKQuery& query) {
  PhysicalPlan fallback;
  fallback.shape.topk = true;
  fallback.shape.topk_algorithm = TopKAlgorithm::kBruteForce;
  if (db.num_objects() == 0 || db.num_users() < 2 ||
      !db.has_planner_stats()) {
    return fallback;
  }
  const PlannerStats& stats = db.planner_stats();
  const int budget = std::max(1, query.parallel.num_threads);

  // The index-based variants require eps_doc > 0 (core/topk.h) and build
  // the eps_loc user grid, so both thresholds must be real.
  const bool index_ok = query.eps_doc > 0.0 && query.eps_loc > 0.0;
  std::vector<PlanShape> shapes;
  const int thread_options[2] = {1, budget};
  const int num_thread_options = budget > 1 ? 2 : 1;
  for (int ti = 0; ti < num_thread_options; ++ti) {
    const int threads = thread_options[ti];
    PlanShape s;
    s.topk = true;
    s.threads = threads;
    if (index_ok) {
      s.topk_algorithm = TopKAlgorithm::kP;
      shapes.push_back(s);
      s.topk_algorithm = TopKAlgorithm::kF;
      shapes.push_back(s);
      s.topk_algorithm = TopKAlgorithm::kS;
      shapes.push_back(s);
    }
    if (threads == 1) {
      s.topk_algorithm = TopKAlgorithm::kBruteForce;
      shapes.push_back(s);
    }
  }

  // Top-k discovers its similarity threshold at run time; estimate the
  // funnel with open textual/similarity thresholds (the k-dependent
  // queue discount lives in EstimateShapeCost).
  PhysicalPlan plan =
      PickCheapest(stats, EstimateJoinStages(stats, query.eps_loc,
                                             query.eps_doc, 0.0),
                   std::move(shapes));
  uint64_t sig = kFnvOffset;
  sig = HashMix(sig, 2);  // top-k query tag
  sig = HashDouble(sig, query.eps_loc);
  sig = HashDouble(sig, query.eps_doc);
  sig = HashMix(sig, query.k);
  sig = HashDouble(sig, query.eps_time);
  sig = HashMix(sig, db.num_objects());
  sig = HashMix(sig, db.num_users());
  plan.query_signature = sig;
  return plan;
}

PhysicalPlan PinPlanShape(const ObjectDatabase& db, PhysicalPlan plan,
                          const PlanShape& shape) {
  plan.shape = shape;
  plan.cost_units = 0.0;
  plan.predicted_ms = 0.0;
  for (const PlanCandidate& c : plan.considered) {
    if (c.shape == shape) {
      plan.cost_units = c.cost_units;
      plan.predicted_ms = c.predicted_ms;
      return plan;
    }
  }
  if (!db.has_planner_stats()) return plan;
  const PlannerFeedback& feedback = PlannerFeedback::Global();
  plan.cost_units = EstimateShapeCost(db.planner_stats(), shape,
                                      plan.estimate,
                                      feedback.CandidateCorrection(shape));
  plan.predicted_ms = feedback.PredictMillis(shape, plan.cost_units);
  return plan;
}

PlanShape ExplicitJoinShape(const JoinOptions& options) {
  PlanShape shape;
  shape.topk = false;
  shape.join = options.algorithm;
  shape.threads = std::max(1, options.threads);
  return shape;
}

PlanShape ExplicitTopKShape(const TopKQuery& query, TopKAlgorithm algorithm) {
  PlanShape shape;
  shape.topk = true;
  shape.topk_algorithm = algorithm;
  shape.threads = std::max(1, query.parallel.num_threads);
  return shape;
}

std::string ExplainPlan(const PhysicalPlan& plan, const JoinStats* actual) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "plan: %s threads=%d fanout=%d "
                "(%.3g units, predicted %.3f ms)\n",
                PlanShapeName(plan.shape).c_str(), plan.shape.threads,
                plan.rtree_fanout, plan.cost_units, plan.predicted_ms);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "estimate: cells=%.3g colocated=%.3g candidates=%.3g "
                "text_survivors=%.3g verified=%.3g cost/pair=%.3g "
                "all-pairs walk=%.3g (Lemma 1: %.3g)\n",
                plan.estimate.cells_visited,
                plan.estimate.colocated_object_pairs,
                plan.estimate.candidate_pairs, plan.estimate.text_survivors,
                plan.estimate.verified_pairs,
                plan.estimate.verify_cost_per_pair,
                plan.estimate.walk_cells, plan.estimate.bounded_walk_cells);
  out += buf;
  for (const PlanCandidate& c : plan.considered) {
    std::snprintf(buf, sizeof(buf), "  %-24s threads=%-2d %12.3g units "
                  "-> %9.3f ms%s\n",
                  PlanShapeName(c.shape).c_str(), c.shape.threads,
                  c.cost_units, c.predicted_ms,
                  c.shape == plan.shape ? "   [chosen]" : "");
    out += buf;
  }
  const FeedbackSnapshot feedback = PlannerFeedback::Global().Snapshot();
  std::snprintf(buf, sizeof(buf),
                "feedback: join %" PRIu64 " runs (%.3g ms/unit), top-k %"
                PRIu64 " runs (%.3g ms/unit)\n",
                feedback.join.runs, feedback.join.ms_per_unit,
                feedback.topk.runs, feedback.topk.ms_per_unit);
  out += buf;
  for (const FeedbackSnapshot::Shape& f : feedback.shapes) {
    std::snprintf(buf, sizeof(buf),
                  "  %-24s threads=%-2d runs=%-5" PRIu64 " %10.3g ms/unit "
                  "candidates x%-8.3g clamped=%" PRIu64 "\n",
                  PlanShapeName(f.shape).c_str(), f.shape.threads, f.runs,
                  f.ms_per_unit, f.candidate_ratio, f.clamped);
    out += buf;
  }
  if (actual != nullptr) {
    const auto row = [&out, &buf](const char* name, double est,
                                  uint64_t act) {
      std::snprintf(buf, sizeof(buf), "  %-18s est %14.0f   actual %14" PRIu64
                    "\n", name, est, act);
      out += buf;
    };
    out += "estimated vs actual:\n";
    row("cells_visited", plan.estimate.cells_visited, actual->cells_visited);
    row("candidate_pairs", plan.estimate.candidate_pairs,
        actual->pairs_candidate);
    row("verified_pairs", plan.estimate.verified_pairs,
        actual->pairs_verified);
    std::snprintf(buf, sizeof(buf), "  %-18s actual %14" PRIu64 "\n",
                  "matches_found", actual->matches_found);
    out += buf;
  }
  return out;
}

}  // namespace stps
