#include "core/sppj_b.h"

#include <algorithm>

#include "common/predicates.h"
#include "core/parallel_util.h"
#include "core/ppjb.h"
#include "core/user_grid.h"

namespace stps {

namespace {

// Joins user u1 against every earlier user; shared by the sequential and
// parallel drivers (the parallel driver hands each worker its own `out`
// and `stats`, so results and counters are race-free by construction).
void ProcessUserB(const ObjectDatabase& db, const UserGrid& grid,
                  const STPSQuery& query, const MatchThresholds& t,
                  UserId u1, std::vector<ScoredUserPair>* out,
                  JoinStats* stats) {
  for (UserId u2 = 0; u2 < u1; ++u2) {
    if (stats != nullptr) {
      ++stats->pairs_candidate;
      ++stats->pairs_verified;
    }
    const size_t total = db.UserObjectCount(u1) + db.UserObjectCount(u2);
    size_t matched = 0;
    const double sigma =
        PPJBPair(grid.UserCells(u1), db.UserObjectCount(u1),
                 grid.UserCells(u2), db.UserObjectCount(u2),
                 grid.geometry(), t, query.eps_u, stats, &matched);
    // Membership is the exact counting predicate (common/predicates.h);
    // the double sigma is only the reported score.
    if (SigmaAtLeast(matched, total, query.eps_u)) {
      out->push_back({u2, u1, sigma});
      if (stats != nullptr) ++stats->matches_found;
    }
  }
}

}  // namespace

std::vector<ScoredUserPair> SPPJB(const ObjectDatabase& db,
                                  const STPSQuery& query, JoinStats* stats) {
  std::vector<ScoredUserPair> result;
  if (db.num_objects() == 0) return result;
  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  const size_t n = db.num_users();
  for (UserId u1 = 0; u1 < n; ++u1) {
    ProcessUserB(db, grid, query, t, u1, &result, stats);
  }
  std::sort(result.begin(), result.end(), PairIdLess);
  return result;
}

std::vector<ScoredUserPair> SPPJBParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats) {
  STPS_CHECK(parallel.num_threads >= 1);
  if (db.num_objects() == 0) return {};
  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  const size_t n = db.num_users();

  const size_t slots = static_cast<size_t>(parallel.num_threads);
  std::vector<std::vector<ScoredUserPair>> per_worker(slots);
  std::vector<JoinStats> worker_stats(slots);
  ParallelForEach(parallel.num_threads, 0, n, [&](size_t u1, int worker) {
    ProcessUserB(db, grid, query, t, static_cast<UserId>(u1),
                 &per_worker[static_cast<size_t>(worker)],
                 stats != nullptr ? &worker_stats[static_cast<size_t>(worker)]
                                  : nullptr);
  });
  MergeWorkerStats(stats, worker_stats);
  return MergeSortedPairs(&per_worker);
}

}  // namespace stps
