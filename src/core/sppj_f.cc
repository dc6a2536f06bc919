#include "core/sppj_f.h"

#include <numeric>

#include "common/predicates.h"
#include "core/parallel_util.h"
#include "core/ppjb.h"
#include "core/sppj_f_parallel.h"
#include "core/user_grid.h"

namespace stps {

namespace {

// The per-user pass of S-PPJ-F: filter u against the complete index,
// keeping only earlier users (so each pair is evaluated exactly once,
// whichever worker runs u), then refine the candidates in ascending id
// order. The ablation flags disable the sigma_bar bound and the PPJ-B
// early termination.
void ProcessUser(const ObjectDatabase& db, const UserGrid& grid,
                 const SpatioTextualGridIndex& index, const STPSQuery& query,
                 bool use_sigma_bound, bool use_refine_bound, UserId u,
                 std::vector<ScoredUserPair>* out, JoinStats* stats) {
  const MatchThresholds t = query.match_thresholds();
  const UserLayout& cu = grid.UserCells(u);
  const size_t nu = db.UserObjectCount(u);
  // Per-worker epoch-stamped accumulator (user_grid.h): starting a user
  // costs O(1), no map rehash or per-call allocation.
  thread_local UserCandidateTable<CandidateBound> candidates;
  candidates.BeginRound(db.num_users());
  size_t colocated = 0;
  CollectCandidates(grid.geometry(), index, cu, u, &candidates, stats,
                    stats != nullptr ? &colocated : nullptr);
  if (stats != nullptr) {
    // Where did the earlier users go? Co-located users without a shared
    // token were pruned textually, the rest spatially.
    stats->pairs_candidate += candidates.size();
    stats->pairs_pruned_textual += colocated - candidates.size();
    stats->pairs_pruned_spatial += u - colocated;
  }

  for (const UserId candidate : candidates.SortedTouched()) {
    const size_t nv = db.UserObjectCount(candidate);
    // Exact counting predicates throughout (common/predicates.h): the
    // prune and the final membership test must not diverge at pairs whose
    // sigma equals eps_u.
    if (use_sigma_bound &&
        !SigmaAtLeast(candidates[candidate].m, nu + nv, query.eps_u)) {
      if (stats != nullptr) ++stats->pairs_pruned_count;
      continue;
    }
    if (stats != nullptr) ++stats->pairs_verified;
    size_t matched = 0;
    const double sigma =
        PPJBPair(cu, nu, grid.UserCells(candidate), nv, grid.geometry(), t,
                 use_refine_bound ? query.eps_u : 0.0, stats, &matched);
    if (SigmaAtLeast(matched, nu + nv, query.eps_u)) {
      out->push_back({candidate, u, sigma});
      if (stats != nullptr) ++stats->matches_found;
    }
  }
}

// Builds the grid and the complete index (users in id order) once, then
// runs the per-user pass in the fork-join loop; one thread is the
// sequential S-PPJ-F.
std::vector<ScoredUserPair> RunSPPJF(const ObjectDatabase& db,
                                     const STPSQuery& query,
                                     const ParallelOptions& parallel,
                                     bool use_sigma_bound,
                                     bool use_refine_bound,
                                     JoinStats* stats) {
  // The token-probing filter only sees pairs with at least one textually
  // overlapping object pair; it is complete exactly when a result pair
  // must contain a match (eps_u > 0) and a match must share a token
  // (eps_doc > 0).
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  STPS_CHECK(parallel.num_threads >= 1);
  if (db.num_objects() == 0) return {};

  const UserGrid grid(db, query.eps_loc);
  std::vector<UserId> order(db.num_users());
  std::iota(order.begin(), order.end(), 0u);
  const SpatioTextualGridIndex index(grid, order);

  const size_t slots = static_cast<size_t>(parallel.num_threads);
  std::vector<std::vector<ScoredUserPair>> per_worker(slots);
  std::vector<JoinStats> worker_stats(slots);
  ParallelForEach(
      parallel.num_threads, 0, db.num_users(), [&](size_t u, int worker) {
        ProcessUser(db, grid, index, query, use_sigma_bound,
                    use_refine_bound, static_cast<UserId>(u),
                    &per_worker[static_cast<size_t>(worker)],
                    stats != nullptr
                        ? &worker_stats[static_cast<size_t>(worker)]
                        : nullptr);
      });
  MergeWorkerStats(stats, worker_stats);
  return MergeSortedPairs(&per_worker);
}

}  // namespace

std::vector<ScoredUserPair> SPPJFAblation(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          bool use_sigma_bound,
                                          bool use_refine_bound,
                                          JoinStats* stats) {
  return RunSPPJF(db, query, ParallelOptions{}, use_sigma_bound,
                  use_refine_bound, stats);
}

std::vector<ScoredUserPair> SPPJF(const ObjectDatabase& db,
                                  const STPSQuery& query, JoinStats* stats) {
  return SPPJFAblation(db, query, /*use_sigma_bound=*/true,
                       /*use_refine_bound=*/true, stats);
}

std::vector<ScoredUserPair> SPPJFParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats) {
  return RunSPPJF(db, query, parallel, /*use_sigma_bound=*/true,
                  /*use_refine_bound=*/true, stats);
}

}  // namespace stps
