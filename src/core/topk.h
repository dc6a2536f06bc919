// Top-k STPSJoin algorithms (Section 4.2).
//
//  * TOPK-S-PPJ-F (Algorithm 4): S-PPJ-F with a bounded result queue;
//    users in ascending |Du| order; the user-similarity threshold is the
//    current k-th best score.
//  * TOPK-S-PPJ-S: the same machinery, but users ordered by the grid
//    popularity heuristic s_u = sum over objects of the containing cell's
//    score s_c = |users with objects in c or adjacent cells| (descending).
//  * TOPK-S-PPJ-P: ascending-size order plus the per-user prefilter of
//    Lemma 2 (sigma_bar_u), estimated from the spatio-textual grid index.
//
// All variants return the same deterministic result: the top-k pairs with
// sigma > 0 under the TopKBetter total order (score desc, then ids).

#ifndef STPS_CORE_TOPK_H_
#define STPS_CORE_TOPK_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Which top-k evaluation strategy to run.
enum class TopKVariant {
  kF,  // TOPK-S-PPJ-F: ascending object-set size
  kS,  // TOPK-S-PPJ-S: popularity-ordered
  kP,  // TOPK-S-PPJ-P: ascending size + Lemma 2 prefilter
};

/// Evaluates the top-k STPSJoin query. Precondition: eps_doc > 0.
/// Result is sorted best-first and has at most k entries (fewer when
/// fewer than k pairs have sigma > 0). The one-thread case of
/// TopKSTPSJoinParallel.
std::vector<ScoredUserPair> TopKSTPSJoin(const ObjectDatabase& db,
                                         const TopKQuery& query,
                                         TopKVariant variant,
                                         JoinStats* stats = nullptr);

/// Parallel top-k: the spatio-textual index is built once over all users
/// in processing-rank order, workers keep thread-local ResultQueues
/// (their thresholds are conservative: a local queue holds k real pairs,
/// so anything it prunes is outside the global top-k), and the local
/// queues are merged at the end. The result is identical to the
/// sequential TopKSTPSJoin at any thread count because the top-k under
/// the TopKBetter total order is unique.
std::vector<ScoredUserPair> TopKSTPSJoinParallel(
    const ObjectDatabase& db, const TopKQuery& query, TopKVariant variant,
    const ParallelOptions& parallel, JoinStats* stats = nullptr);

/// Convenience wrappers.
std::vector<ScoredUserPair> TopKSPPJF(const ObjectDatabase& db,
                                      const TopKQuery& query);
std::vector<ScoredUserPair> TopKSPPJS(const ObjectDatabase& db,
                                      const TopKQuery& query);
std::vector<ScoredUserPair> TopKSPPJP(const ObjectDatabase& db,
                                      const TopKQuery& query);

/// The R-tree-partitioned top-k variant the paper mentions but omits
/// pseudocode for (Section 4.2.1: "the same principle can be
/// straightforwardly applied to S-PPJ-D"): TOPK-S-PPJ-F's queue/threshold
/// machinery over the leaf partitioning of S-PPJ-D.
std::vector<ScoredUserPair> TopKSPPJD(const ObjectDatabase& db,
                                      const TopKQuery& query,
                                      int fanout = 128,
                                      JoinStats* stats = nullptr);

}  // namespace stps

#endif  // STPS_CORE_TOPK_H_
