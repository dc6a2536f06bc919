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
/// the plan decides the concrete algorithm, sketch candidate generation,
/// and sequential-vs-pooled execution within the caller's thread budget.
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
/// eps_doc > 0 and eps_u > 0; sketch candidate generation, which
/// ExplicitJoinShape picks for any non-brute algorithm when
/// query.sketch.enabled, re-walks the eps_loc grid and so needs
/// eps_loc > 0 too. Brute force and kAuto (whose planner only
/// enumerates feasible shapes) accept every query.
Status ValidateJoinQuery(const STPSQuery& query, const JoinOptions& options);

/// Evaluates Q = <eps_loc, eps_doc, eps_u>: all user pairs with
/// sigma >= eps_u. Results are sorted by (a, b) and carry exact scores —
/// bit-identical at any thread count. Precondition:
/// ValidateJoinQuery(query, options).ok(). `stats` (optional) receives
/// the per-stage filter counters of the run.
///
/// When query.sketch.enabled (and eps_doc > 0, eps_u > 0), candidate
/// pairs come from the per-user sketch layer instead of the chosen
/// algorithm's filter stage and are settled by the exact PPJ-B kernel:
/// same results, same order, same scores — only the work differs (see
/// sketch/sketch.h; JoinStats::sketch_* report the candidate flow).
/// Brute force ignores the knob; kAuto decides it per query (the planner
/// may turn sketches on even when the query left them off).
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
/// sharing a token) and for the sketch route ExplicitTopKShape picks
/// for them. Brute force and kAuto need only k > 0.
Status ValidateTopKQuery(const TopKQuery& query, TopKAlgorithm algorithm);

/// Evaluates the top-k query; results best-first under TopKBetter.
/// Precondition: ValidateTopKQuery(query, algorithm).ok(). When
/// query.parallel.num_threads > 1, the index-based variants run on the
/// work-stealing pool (identical results at any thread count). When
/// query.sketch.enabled, every index-based variant verifies the sketch
/// layer's candidates in count-min heavy-hitters order instead —
/// bit-identical results, work reported via JoinStats::sketch_*.
std::vector<ScoredUserPair> RunTopKSTPSJoin(
    const ObjectDatabase& db, const TopKQuery& query,
    TopKAlgorithm algorithm = TopKAlgorithm::kP, JoinStats* stats = nullptr);

/// Single-user probe ("find users similar to u"): every user v != u with
/// sigma(Du, Dv) >= eps_u under the query's match thresholds, scored
/// exactly and sorted best-first under the TopKBetter total order (pairs
/// carry a < b like the join results). The exact per-pair kernel is the
/// same ExactSigmaMatched/SigmaAtLeast discipline as the joins, so a
/// probe result is exactly the u-rows of RunSTPSJoin's output.
std::vector<ScoredUserPair> FindSimilarUsers(const ObjectDatabase& db,
                                             UserId u,
                                             const STPSQuery& query);

/// Display names ("S-PPJ-F", "TOPK-S-PPJ-P", ...) for reports.
std::string_view JoinAlgorithmName(JoinAlgorithm algorithm);
std::string_view TopKAlgorithmName(TopKAlgorithm algorithm);

}  // namespace stps

#endif  // STPS_CORE_STPSJOIN_H_
