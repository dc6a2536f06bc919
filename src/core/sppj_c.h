// S-PPJ-C (Algorithm 1): the baseline STPSJoin evaluation. Every user
// pair is joined with the non-self PPJ-C grid traversal and the exact
// sigma is compared against eps_u.

#ifndef STPS_CORE_SPPJ_C_H_
#define STPS_CORE_SPPJ_C_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Evaluates the STPSJoin query with the S-PPJ-C baseline.
/// Result pairs (a < b) are sorted by (a, b) and carry exact sigma.
std::vector<ScoredUserPair> SPPJC(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  JoinStats* stats = nullptr);

/// Parallel S-PPJ-C: the probing-user loop runs in the fork-join loop
/// of common/thread_pool.h; every pair is still evaluated exactly once
/// and the result is bit-identical to SPPJC at any thread count.
std::vector<ScoredUserPair> SPPJCParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats = nullptr);

}  // namespace stps

#endif  // STPS_CORE_SPPJ_C_H_
