// S-PPJ-F (Algorithm 2): filter-and-refine STPSJoin over the
// spatio-textual grid index. For each user u, candidate users are the
// earlier users sharing a token with u in the same or an adjacent cell;
// the sigma_bar upper bound prunes candidates, and survivors are refined
// with the PPJ-B pair kernel. This is the paper's best-performing
// algorithm.
//
// The index is complete (built once over all users, user_grid.h), and
// the filter keeps only users with a smaller id: exactly the users
// Algorithm 2's incremental index holds when u is probed. The sequential
// driver is the one-thread case of SPPJFParallel's per-user pass.

#ifndef STPS_CORE_SPPJ_F_H_
#define STPS_CORE_SPPJ_F_H_

#include <vector>

#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"

namespace stps {

/// Evaluates the STPSJoin query with S-PPJ-F. Same output contract as
/// SPPJC.
std::vector<ScoredUserPair> SPPJF(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  JoinStats* stats = nullptr);

/// Ablation variant used by the benchmarks: disables the sigma_bar
/// candidate bound (`use_sigma_bound` = false) and/or the PPJ-B early
/// termination in refinement (`use_refine_bound` = false) to isolate the
/// contribution of each pruning ingredient.
std::vector<ScoredUserPair> SPPJFAblation(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          bool use_sigma_bound,
                                          bool use_refine_bound,
                                          JoinStats* stats = nullptr);

}  // namespace stps

#endif  // STPS_CORE_SPPJ_F_H_
