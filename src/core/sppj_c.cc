#include "core/sppj_c.h"

#include <algorithm>

#include "common/predicates.h"
#include "core/parallel_util.h"
#include "core/ppjb.h"
#include "core/user_grid.h"

namespace stps {

namespace {

// "selectedUsers" of Algorithm 1 is the prefix of already-seen users:
// each new user u1 is joined against every previous u2. Shared by the
// sequential and parallel drivers.
void ProcessUserC(const ObjectDatabase& db, const UserGrid& grid,
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
        PPJCPair(grid.UserCells(u1), db.UserObjectCount(u1),
                 grid.UserCells(u2), db.UserObjectCount(u2),
                 grid.geometry(), t, stats, &matched);
    // Membership is the exact counting predicate (common/predicates.h);
    // the double sigma is only the reported score.
    if (SigmaAtLeast(matched, total, query.eps_u)) {
      out->push_back({u2, u1, sigma});
      if (stats != nullptr) ++stats->matches_found;
    }
  }
}

}  // namespace

std::vector<ScoredUserPair> SPPJC(const ObjectDatabase& db,
                                  const STPSQuery& query, JoinStats* stats) {
  std::vector<ScoredUserPair> result;
  if (db.num_objects() == 0) return result;
  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  const size_t n = db.num_users();
  for (UserId u1 = 0; u1 < n; ++u1) {
    ProcessUserC(db, grid, query, t, u1, &result, stats);
  }
  std::sort(result.begin(), result.end(), PairIdLess);
  return result;
}

std::vector<ScoredUserPair> SPPJCParallel(const ObjectDatabase& db,
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
    ProcessUserC(db, grid, query, t, static_cast<UserId>(u1),
                 &per_worker[static_cast<size_t>(worker)],
                 stats != nullptr ? &worker_stats[static_cast<size_t>(worker)]
                                  : nullptr);
  });
  MergeWorkerStats(stats, worker_stats);
  return MergeSortedPairs(&per_worker);
}

}  // namespace stps
