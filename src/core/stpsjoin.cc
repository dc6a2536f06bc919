#include "core/stpsjoin.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "core/sppj_b.h"
#include "core/sppj_c.h"
#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "core/sppj_f_parallel.h"
#include "core/user_grid.h"
#include "planner/feedback.h"
#include "planner/planner.h"
#include "spatial/batch.h"

namespace stps {

namespace {

// FindSimilarUsers' candidate table marks users and stores nothing.
struct NoPayload {
  void Clear() {}
};

uint64_t RoundCount(double v) {
  if (!std::isfinite(v) || v <= 0.0) return 0;
  return static_cast<uint64_t>(std::llround(v));
}

/// Executes a concrete (non-auto) join shape. Factored out so the
/// umbrella can time the execution and feed the planner.
std::vector<ScoredUserPair> DispatchJoin(const ObjectDatabase& db,
                                         const STPSQuery& query,
                                         const JoinOptions& options,
                                         int threads, JoinStats* stats) {
  const ParallelOptions parallel{threads};
  switch (options.algorithm) {
    case JoinAlgorithm::kBruteForce: {
      std::vector<ScoredUserPair> result = BruteForceSTPSJoin(db, query);
      if (stats != nullptr) {
        // Brute force considers and verifies every user pair; account for
        // it so kAuto-resolved runs keep the counter invariants.
        const uint64_t users = db.num_users();
        const uint64_t all_pairs = users < 2 ? 0 : users * (users - 1) / 2;
        stats->pairs_candidate += all_pairs;
        stats->pairs_verified += all_pairs;
        stats->matches_found += result.size();
      }
      return result;
    }
    case JoinAlgorithm::kSPPJC:
      if (threads > 1) return SPPJCParallel(db, query, parallel, stats);
      return SPPJC(db, query, stats);
    case JoinAlgorithm::kSPPJB:
      if (threads > 1) return SPPJBParallel(db, query, parallel, stats);
      return SPPJB(db, query, stats);
    case JoinAlgorithm::kSPPJF:
      if (threads > 1) return SPPJFParallel(db, query, parallel, stats);
      return SPPJF(db, query, stats);
    case JoinAlgorithm::kSPPJD:
      if (threads > 1) {
        return SPPJDParallel(db, query, SPPJDOptions{options.rtree_fanout},
                             parallel, stats);
      }
      return SPPJD(db, query, SPPJDOptions{options.rtree_fanout}, stats);
    case JoinAlgorithm::kAuto:
      break;  // resolved by RunSTPSJoin before dispatch
  }
  STPS_CHECK(false);
  return {};
}

/// Executes a concrete (non-auto) top-k shape.
std::vector<ScoredUserPair> DispatchTopK(const ObjectDatabase& db,
                                         const TopKQuery& query,
                                         TopKAlgorithm algorithm,
                                         JoinStats* stats) {
  const bool parallel = query.parallel.num_threads > 1;
  switch (algorithm) {
    case TopKAlgorithm::kBruteForce: {
      std::vector<ScoredUserPair> result = BruteForceTopK(db, query);
      if (stats != nullptr) {
        const uint64_t users = db.num_users();
        const uint64_t all_pairs = users < 2 ? 0 : users * (users - 1) / 2;
        stats->pairs_candidate += all_pairs;
        stats->pairs_verified += all_pairs;
        stats->matches_found += result.size();
      }
      return result;
    }
    case TopKAlgorithm::kF:
      if (parallel) {
        return TopKSTPSJoinParallel(db, query, TopKVariant::kF,
                                    query.parallel, stats);
      }
      return TopKSTPSJoin(db, query, TopKVariant::kF, stats);
    case TopKAlgorithm::kS:
      if (parallel) {
        return TopKSTPSJoinParallel(db, query, TopKVariant::kS,
                                    query.parallel, stats);
      }
      return TopKSTPSJoin(db, query, TopKVariant::kS, stats);
    case TopKAlgorithm::kP:
      if (parallel) {
        return TopKSTPSJoinParallel(db, query, TopKVariant::kP,
                                    query.parallel, stats);
      }
      return TopKSTPSJoin(db, query, TopKVariant::kP, stats);
    case TopKAlgorithm::kAuto:
      break;  // resolved by RunTopKSTPSJoin before dispatch
  }
  STPS_CHECK(false);
  return {};
}

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Status ValidateJoinQuery(const STPSQuery& query, const JoinOptions& options) {
  const JoinAlgorithm algorithm = options.algorithm;
  if (algorithm == JoinAlgorithm::kBruteForce ||
      algorithm == JoinAlgorithm::kAuto) {
    return Status::OK();
  }
  const std::string name(JoinAlgorithmName(algorithm));
  // Written as !(x > 0) so a NaN threshold fails too.
  if ((algorithm == JoinAlgorithm::kSPPJF ||
       algorithm == JoinAlgorithm::kSPPJD) &&
      !(query.eps_doc > 0.0 && query.eps_u > 0.0)) {
    return Status::InvalidArgument(name +
                                   " requires eps_doc > 0 and eps_u > 0");
  }
  if (!(query.eps_loc > 0.0) && algorithm != JoinAlgorithm::kSPPJD) {
    return Status::InvalidArgument(name + " requires eps_loc > 0");
  }
  return Status::OK();
}

Status ValidateTopKQuery(const TopKQuery& query, TopKAlgorithm algorithm) {
  if (query.k == 0) return Status::InvalidArgument("top-k requires k > 0");
  if (algorithm == TopKAlgorithm::kBruteForce ||
      algorithm == TopKAlgorithm::kAuto) {
    return Status::OK();
  }
  // kF/kS/kP share the eps_loc user grid and the token-sharing candidate
  // index.
  if (!(query.eps_loc > 0.0 && query.eps_doc > 0.0)) {
    return Status::InvalidArgument(std::string(TopKAlgorithmName(algorithm)) +
                                   " requires eps_loc > 0 and eps_doc > 0");
  }
  return Status::OK();
}

std::vector<ScoredUserPair> RunSTPSJoin(const ObjectDatabase& db,
                                        const STPSQuery& query,
                                        const JoinOptions& options,
                                        JoinStats* stats) {
  if (options.algorithm == JoinAlgorithm::kAuto) {
    const PhysicalPlan plan = PlanSTPSJoin(db, query, options);
    JoinOptions ropts = options;
    ropts.algorithm = plan.shape.join;
    ropts.threads = plan.shape.threads;
    ropts.rtree_fanout = plan.rtree_fanout;
    // The recursive call times the run and records the feedback; here we
    // only track whether the choice moved since the last identical query.
    std::vector<ScoredUserPair> result = RunSTPSJoin(db, query, ropts, stats);
    const bool switched = PlannerFeedback::Global().NoteChosenPlan(
        plan.query_signature, plan.shape);
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(plan.estimate.candidate_pairs);
      stats->planner_plan_switches = switched ? 1 : 0;
    }
    return result;
  }

  const PlanShape shape = ExplicitJoinShape(options);

  // Time the run and fold the measurement into the planner's feedback —
  // for explicit choices too, so benchmark sweeps over the static
  // variants calibrate kAuto as a side effect.
  const bool record = db.has_planner_stats();
  PlanEstimate estimate;
  double cost_units = 0.0;
  if (record) {
    estimate = EstimateJoinStages(db.planner_stats(), query.eps_loc,
                                  query.eps_doc, query.eps_u);
    cost_units = EstimateShapeCost(db.planner_stats(), shape, estimate);
  }
  JoinStats local;
  JoinStats* sink = stats != nullptr ? stats : &local;
  const auto start = std::chrono::steady_clock::now();
  std::vector<ScoredUserPair> result =
      DispatchJoin(db, query, options, shape.threads, sink);
  if (record) {
    PlannerFeedback::Global().Record(shape, estimate, cost_units, *sink,
                                     ElapsedMs(start));
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(estimate.candidate_pairs);
    }
  }
  return result;
}

std::vector<ScoredUserPair> RunTopKSTPSJoin(const ObjectDatabase& db,
                                            const TopKQuery& query,
                                            TopKAlgorithm algorithm,
                                            JoinStats* stats) {
  if (algorithm == TopKAlgorithm::kAuto) {
    const PhysicalPlan plan = PlanTopKSTPSJoin(db, query);
    TopKQuery resolved = query;
    resolved.parallel.num_threads = plan.shape.threads;
    std::vector<ScoredUserPair> result =
        RunTopKSTPSJoin(db, resolved, plan.shape.topk_algorithm, stats);
    const bool switched = PlannerFeedback::Global().NoteChosenPlan(
        plan.query_signature, plan.shape);
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(plan.estimate.candidate_pairs);
      stats->planner_plan_switches = switched ? 1 : 0;
    }
    return result;
  }

  const PlanShape shape = ExplicitTopKShape(query, algorithm);

  const bool record = db.has_planner_stats();
  PlanEstimate estimate;
  double cost_units = 0.0;
  if (record) {
    // Top-k discovers its similarity threshold at run time; estimate
    // with open textual/count thresholds, matching PlanTopKSTPSJoin.
    estimate = EstimateJoinStages(db.planner_stats(), query.eps_loc,
                                  query.eps_doc, 0.0);
    cost_units = EstimateShapeCost(db.planner_stats(), shape, estimate);
  }
  JoinStats local;
  JoinStats* sink = stats != nullptr ? stats : &local;
  const auto start = std::chrono::steady_clock::now();
  std::vector<ScoredUserPair> result =
      DispatchTopK(db, query, algorithm, sink);
  if (record) {
    PlannerFeedback::Global().Record(shape, estimate, cost_units, *sink,
                                     ElapsedMs(start));
    if (stats != nullptr) {
      stats->planner_estimated_candidates =
          RoundCount(estimate.candidate_pairs);
    }
  }
  return result;
}

std::vector<ScoredUserPair> FindSimilarUsers(const ObjectDatabase& db,
                                             UserId u,
                                             const STPSQuery& query) {
  std::vector<ScoredUserPair> result;
  if (u >= db.num_users()) return result;
  const MatchThresholds t = query.match_thresholds();
  const std::span<const STObject> du = db.UserObjects(u);

  // Filter: the owners of every object within eps_loc of an object of Du
  // that, when eps_doc > 0, also shares a signature bit with it. A
  // matched object pair passes both tests (the kernel's verdicts are
  // WithinEpsLoc's, and a positive Jaccard needs a shared token), so
  // every user with a matched object is a candidate. The columns are
  // scanned in blocks, which keeps the hit buffer a fixed size.
  constexpr size_t kBlock = 512;
  uint32_t hits[kBlock];
  thread_local UserCandidateTable<NoPayload> candidates;
  candidates.BeginRound(db.num_users());
  const bool gate = t.eps_doc > 0.0;
  const std::span<const double> xs = db.xs();
  const std::span<const double> ys = db.ys();
  const std::span<const UserId> owners = db.users();
  const std::span<const TokenSignature> sigs = db.sigs();
  for (size_t begin = 0; begin < xs.size(); begin += kBlock) {
    const size_t n = std::min(kBlock, xs.size() - begin);
    for (const STObject& o : du) {
      const size_t found = CollectWithinEpsLoc(
          o.loc, xs.data() + begin, ys.data() + begin, n, t.eps_loc, hits);
      for (size_t h = 0; h < found; ++h) {
        const size_t j = begin + hits[h];
        if (owners[j] == u || (gate && (sigs[j] & o.sig) == 0)) continue;
        candidates[owners[j]];  // marks the owner as a candidate
      }
    }
  }

  // Verify each candidate exactly.
  const std::span<const UserId> checked = candidates.SortedTouched();
  for (const UserId v : checked) {
    const std::span<const STObject> dv = db.UserObjects(v);
    const size_t total = du.size() + dv.size();
    const size_t matched = ExactSigmaMatched(du, dv, t);
    if (SigmaAtLeast(matched, total, query.eps_u)) {
      result.push_back({std::min(u, v), std::max(u, v),
                        static_cast<double>(matched) /
                            static_cast<double>(total)});
    }
  }
  // Every other user has 0 matched objects, and SigmaAtLeast(0, total,
  // eps_u) with total > 0 holds exactly when eps_u <= 0: score 0.
  if (query.eps_u <= 0.0) {
    size_t next = 0;
    for (UserId v = 0; v < db.num_users(); ++v) {
      if (next < checked.size() && checked[next] == v) {
        ++next;
        continue;
      }
      if (v == u || du.size() + db.UserObjectCount(v) == 0) continue;
      result.push_back({std::min(u, v), std::max(u, v), 0.0});
    }
  }
  std::sort(result.begin(), result.end(), TopKBetter);
  return result;
}

std::string_view JoinAlgorithmName(JoinAlgorithm algorithm) {
  switch (algorithm) {
    case JoinAlgorithm::kBruteForce:
      return "BruteForce";
    case JoinAlgorithm::kSPPJC:
      return "S-PPJ-C";
    case JoinAlgorithm::kSPPJB:
      return "S-PPJ-B";
    case JoinAlgorithm::kSPPJF:
      return "S-PPJ-F";
    case JoinAlgorithm::kSPPJD:
      return "S-PPJ-D";
    case JoinAlgorithm::kAuto:
      return "Auto";
  }
  return "unknown";
}

std::string_view TopKAlgorithmName(TopKAlgorithm algorithm) {
  switch (algorithm) {
    case TopKAlgorithm::kBruteForce:
      return "TOPK-BruteForce";
    case TopKAlgorithm::kF:
      return "TOPK-S-PPJ-F";
    case TopKAlgorithm::kS:
      return "TOPK-S-PPJ-S";
    case TopKAlgorithm::kP:
      return "TOPK-S-PPJ-P";
    case TopKAlgorithm::kAuto:
      return "TOPK-Auto";
  }
  return "unknown";
}

}  // namespace stps
