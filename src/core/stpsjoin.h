// Umbrella entry points: run any STPSJoin / top-k STPSJoin algorithm by
// name. This is the recommended public API for applications; the
// per-algorithm headers remain available for benchmarking.

#ifndef STPS_CORE_STPSJOIN_H_
#define STPS_CORE_STPSJOIN_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"
#include "core/topk.h"

namespace stps {

/// STPSJoin evaluation strategies (Section 4.1 + brute force). kAuto
/// defers the choice to the cost-model planner (planner/planner.h):
/// the plan decides the concrete algorithm and sequential-vs-pooled
/// execution within the caller's thread budget.
/// All strategies are exact, so kAuto returns bit-identical results to
/// every explicit choice — only the work differs.
enum class JoinAlgorithm {
  kBruteForce,
  kSPPJC,
  kSPPJB,
  kSPPJF,
  kSPPJD,
  kAuto,
};

/// Top-k evaluation strategies (Section 4.2 + brute force). kAuto routes
/// through the planner, as above.
enum class TopKAlgorithm {
  kBruteForce,
  kF,
  kS,
  kP,
  kAuto,
};

/// Options for RunSTPSJoin.
struct JoinOptions {
  JoinAlgorithm algorithm = JoinAlgorithm::kSPPJF;
  /// R-tree node capacity; only used by S-PPJ-D.
  int rtree_fanout = 128;
  /// The join's thread budget. When > 1, every grid- or leaf-based
  /// algorithm runs its pool-parallel driver on this many workers with
  /// the pool's automatic chunk size (brute force always runs
  /// sequentially); kAuto treats it as a ceiling and may pick fewer.
  int threads = 1;
};

/// The preconditions RunSTPSJoin needs for `options.algorithm` on this
/// query, as an InvalidArgument naming the one that fails. The grid
/// algorithms (S-PPJ-B/C/F) bucket objects into eps_loc cells and need
/// eps_loc > 0; the filter-at-a-time pair (S-PPJ-F/D) also needs
/// eps_doc > 0 and eps_u > 0. Brute force and kAuto (whose planner only
/// enumerates feasible shapes) accept every query.
Status ValidateJoinQuery(const STPSQuery& query, const JoinOptions& options);

/// Evaluates Q = <eps_loc, eps_doc, eps_u>: all user pairs with
/// sigma >= eps_u. Results are sorted by (a, b) and carry exact scores —
/// bit-identical at any thread count. Precondition:
/// ValidateJoinQuery(query, options).ok(). `stats` (optional) receives
/// the per-stage filter counters of the run.
///
/// Every run — explicit algorithms included — feeds its measured
/// JoinStats and wall-clock back into PlannerFeedback, so kAuto's cost
/// coefficients converge onto this machine's observed per-shape speeds.
std::vector<ScoredUserPair> RunSTPSJoin(const ObjectDatabase& db,
                                        const STPSQuery& query,
                                        const JoinOptions& options = {},
                                        JoinStats* stats = nullptr);

/// The preconditions RunTopKSTPSJoin needs for `algorithm`: k > 0
/// always, and eps_loc > 0 and eps_doc > 0 for the index-based variants
/// (kF/kS/kP build the eps_loc grid and their index admits only users
/// sharing a token). Brute force and kAuto need only k > 0.
Status ValidateTopKQuery(const TopKQuery& query, TopKAlgorithm algorithm);

/// Evaluates the top-k query; results best-first under TopKBetter.
/// Precondition: ValidateTopKQuery(query, algorithm).ok(). When
/// query.parallel.num_threads > 1, the index-based variants run on the
/// work-stealing pool (identical results at any thread count).
std::vector<ScoredUserPair> RunTopKSTPSJoin(
    const ObjectDatabase& db, const TopKQuery& query,
    TopKAlgorithm algorithm = TopKAlgorithm::kP, JoinStats* stats = nullptr);

/// Single-user probe ("find users similar to u"): every user v != u with
/// sigma(Du, Dv) >= eps_u under the query's match thresholds, scored
/// exactly and sorted best-first under the TopKBetter total order (pairs
/// carry a < b like the join results). Filter, then verify: the batched
/// eps_loc kernel scans the database's SoA columns for each object of Du,
/// and a hit's owner is a candidate when eps_doc is 0 or the hit shares a
/// token-signature bit with that object. Only the candidates go through
/// the joins' exact ExactSigmaMatched/SigmaAtLeast check; every other
/// user has no matched object and is an answer (score 0) only when
/// eps_u <= 0. The cost is |Du|·|D| kernel lanes plus the candidates'
/// exact sigma, and a probe result is exactly the u-rows of RunSTPSJoin's
/// output. Accepts every threshold, eps_loc = 0 included.
std::vector<ScoredUserPair> FindSimilarUsers(const ObjectDatabase& db,
                                             UserId u,
                                             const STPSQuery& query);

/// Display names ("S-PPJ-F", "TOPK-S-PPJ-P", ...) for reports.
std::string_view JoinAlgorithmName(JoinAlgorithm algorithm);
std::string_view TopKAlgorithmName(TopKAlgorithm algorithm);

}  // namespace stps

#endif  // STPS_CORE_STPSJOIN_H_
