// S-PPJ-B (Section 4.1.2): like S-PPJ-C, but each pair is evaluated with
// the PPJ-B traversal, whose Lemma 1 bound terminates a pair as soon as
// enough unmatched objects prove sigma < eps_u.

#ifndef STPS_CORE_SPPJ_B_H_
#define STPS_CORE_SPPJ_B_H_

#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Evaluates the STPSJoin query with S-PPJ-B. Same output contract as
/// SPPJC.
std::vector<ScoredUserPair> SPPJB(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  JoinStats* stats = nullptr);

/// Parallel S-PPJ-B: the probing-user loop runs in the fork-join loop
/// of common/thread_pool.h; every pair is still evaluated exactly once
/// and the result is bit-identical to SPPJB at any thread count.
std::vector<ScoredUserPair> SPPJBParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats = nullptr);

}  // namespace stps

#endif  // STPS_CORE_SPPJ_B_H_
