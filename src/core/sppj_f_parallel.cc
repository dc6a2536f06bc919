#include "core/sppj_f_parallel.h"

#include "common/predicates.h"
#include "core/parallel_util.h"
#include "core/ppjb.h"
#include "core/user_grid.h"

namespace stps {

namespace {

// One worker's pass over a user: identical filter/refine logic to the
// sequential S-PPJ-F, except that the index is complete and candidates
// are restricted to earlier users in the total order, so each pair is
// evaluated exactly once however users are spread over workers.
void ProcessUser(const ObjectDatabase& db, const UserGrid& grid,
                 const SpatioTextualGridIndex& index, const STPSQuery& query,
                 UserId u, std::vector<ScoredUserPair>* out,
                 JoinStats* stats) {
  const MatchThresholds t = query.match_thresholds();
  const UserLayout& cu = grid.UserCells(u);
  const size_t nu = db.UserObjectCount(u);
  // Per-worker epoch-stamped accumulator and scratch (user_grid.h):
  // starting a user costs O(1), no map rehash or per-call allocation.
  thread_local UserCandidateTable<CandidateCells> candidates;
  candidates.BeginRound(db.num_users());
  thread_local std::vector<CellId> neighbors;

  thread_local TokenVector tokens;
  for (const UserPartition& cell : cu) {
    DistinctTokens(cell.objects, &tokens);
    neighbors.clear();
    grid.geometry().AppendNeighborhood(cell.id, /*include_self=*/true,
                                       &neighbors);
    for (const CellId other : neighbors) {
      if (stats != nullptr) ++stats->cells_visited;
      for (const TokenId token : tokens) {
        const std::vector<UserId>* users = index.TokenUsers(other, token);
        if (users == nullptr) continue;
        for (const UserId candidate : *users) {
          if (candidate >= u) break;  // lists are ascending by user id
          CandidateCells& cc = candidates[candidate];
          // Opportunistic growth limiting only; SortUnique below is the
          // authoritative dedup (their_cells interleaves across the
          // outer cell loop, so back() checks cannot catch everything).
          if (cc.my_cells.empty() || cc.my_cells.back() != cell.id) {
            cc.my_cells.push_back(cell.id);
          }
          if (cc.their_cells.empty() || cc.their_cells.back() != other) {
            cc.their_cells.push_back(other);
          }
        }
      }
    }
  }
  if (stats != nullptr) {
    const size_t colocated =
        CountColocatedEarlierUsers(grid.geometry(), index, cu, u);
    stats->pairs_candidate += candidates.size();
    stats->pairs_pruned_textual += colocated - candidates.size();
    stats->pairs_pruned_spatial += u - colocated;
  }

  for (const UserId candidate : candidates.SortedTouched()) {
    CandidateCells& cells = candidates[candidate];
    const UserLayout& cv = grid.UserCells(candidate);
    const size_t nv = db.UserObjectCount(candidate);
    SortUnique(&cells.my_cells);
    SortUnique(&cells.their_cells);
    size_t m = 0;
    for (const int64_t c : cells.my_cells) {
      m += PartitionObjectCount(cu, c);
    }
    for (const int64_t c : cells.their_cells) {
      m += PartitionObjectCount(cv, c);
    }
    // Exact counting predicates throughout (common/predicates.h): the
    // sigma_bar prune and the final membership test must agree with the
    // sequential driver decision-for-decision, or the two result sets
    // diverge at pairs whose sigma equals eps_u.
    if (!SigmaAtLeast(m, nu + nv, query.eps_u)) {
      if (stats != nullptr) ++stats->pairs_pruned_count;
      continue;
    }
    if (stats != nullptr) ++stats->pairs_verified;
    size_t matched = 0;
    const double sigma = PPJBPair(cu, nu, cv, nv, grid.geometry(), t,
                                  query.eps_u, stats, &matched);
    if (SigmaAtLeast(matched, nu + nv, query.eps_u)) {
      out->push_back({candidate, u, sigma});
      if (stats != nullptr) ++stats->matches_found;
    }
  }
}

}  // namespace

std::vector<ScoredUserPair> SPPJFParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  STPS_CHECK(parallel.num_threads >= 1);
  if (db.num_objects() == 0) return {};

  // The complete index, users in id order: inverted lists ascend, so the
  // u' < u filter can stop early.
  const UserGrid grid(db, query.eps_loc);
  SpatioTextualGridIndex index;
  for (UserId u = 0; u < db.num_users(); ++u) {
    index.AddUser(u, grid.UserCells(u));
  }

  ThreadPool pool(parallel.num_threads);
  const size_t slots = static_cast<size_t>(pool.num_threads());
  std::vector<std::vector<ScoredUserPair>> per_worker(slots);
  std::vector<JoinStats> worker_stats(slots);
  pool.ParallelForEach(
      0, db.num_users(), parallel.grain, [&](size_t u, int worker) {
        ProcessUser(db, grid, index, query, static_cast<UserId>(u),
                    &per_worker[static_cast<size_t>(worker)],
                    stats != nullptr
                        ? &worker_stats[static_cast<size_t>(worker)]
                        : nullptr);
      });
  MergeWorkerStats(stats, worker_stats);
  return MergeSortedPairs(&per_worker);
}

}  // namespace stps
