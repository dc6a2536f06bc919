// Multi-threaded S-PPJ-F — a shared-memory step toward the paper's
// future-work goal of distributed STPSJoin processing.
//
// The spatio-textual grid index is built *once* over all users; workers
// then process disjoint user subsets, restricting candidates to users
// earlier in the total order, so every pair is evaluated by exactly one
// worker. All shared state is immutable during the parallel phase.
// Scheduling is the fork-join loop of common/thread_pool.h, which claims
// users in ascending id order; results and JoinStats counters are
// accumulated per worker slot and merged at the end, so the output is
// bit-identical to SPPJF — the same per-user pass on one thread — at any
// thread count.

#ifndef STPS_CORE_SPPJ_F_PARALLEL_H_
#define STPS_CORE_SPPJ_F_PARALLEL_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Evaluates the STPSJoin query in the fork-join loop. Produces the
/// same result and JoinStats as SPPJF (sorted by (a, b), exact scores)
/// at any thread count; RunSTPSJoin routes here when
/// JoinOptions::threads > 1. Preconditions: eps_loc > 0, eps_doc > 0,
/// eps_u > 0, parallel.num_threads >= 1.
std::vector<ScoredUserPair> SPPJFParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats = nullptr);

}  // namespace stps

#endif  // STPS_CORE_SPPJ_F_PARALLEL_H_
