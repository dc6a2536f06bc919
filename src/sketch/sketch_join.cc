#include "sketch/sketch_join.h"

#include <algorithm>
#include <cstdint>

#include "common/predicates.h"
#include "core/database.h"
#include "core/parallel_util.h"
#include "core/ppjb.h"
#include "core/result_queue.h"
#include "core/user_grid.h"

namespace stps {

std::vector<ScoredUserPair> SketchSTPSJoin(const ObjectDatabase& db,
                                           const UserSketchIndex& sketches,
                                           const STPSQuery& query,
                                           const ParallelOptions& parallel,
                                           JoinStats* stats) {
  STPS_CHECK(query.eps_loc > 0.0);
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  STPS_CHECK(sketches.num_users() == db.num_users());
  if (db.num_objects() == 0) return {};

  const SketchCandidates cand = sketches.GenerateCandidates(query.eps_loc);
  if (stats != nullptr) {
    stats->sketch_candidate_pairs += cand.pairs.size();
    stats->sketch_rejections += cand.rejections;
    stats->pairs_candidate += cand.pairs.size();
  }
  if (cand.pairs.empty()) return {};

  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  const size_t n = cand.pairs.size();

  // Every candidate verifies independently into its own slot, so the
  // surviving pairs — already in (a, b) order — need no post-merge sort
  // and the result is bit-identical at any thread count. With
  // num_threads == 1 the pool runs the loop inline in ascending order.
  std::vector<ScoredUserPair> slot(n);
  std::vector<uint8_t> hit(n, 0);
  ThreadPool pool(std::max(parallel.num_threads, 1));
  std::vector<JoinStats> worker_stats(
      static_cast<size_t>(pool.num_threads()));
  pool.ParallelForEach(0, n, parallel.grain, [&](size_t i, int worker) {
    const auto [a, b] = cand.pairs[i];
    JoinStats* ws = stats != nullptr
                        ? &worker_stats[static_cast<size_t>(worker)]
                        : nullptr;
    const UserLayout& cu = grid.UserCells(a);
    const UserLayout& cv = grid.UserCells(b);
    const size_t na = db.UserObjectCount(a);
    const size_t nb = db.UserObjectCount(b);
    if (ws != nullptr) ++ws->pairs_verified;
    size_t matched = 0;
    const double sigma = PPJBPair(cu, na, cv, nb, grid.geometry(), t,
                                  query.eps_u, ws, &matched);
    // Membership on the exact count, exactly as the brute-force
    // reference: a pruned kernel leaves a partial count that can only
    // fail the (monotone) predicate, and a passing count implies the
    // kernel ran to completion, so `sigma` is the exact score.
    if (!SigmaAtLeast(matched, na + nb, query.eps_u)) return;
    if (ws != nullptr) ++ws->matches_found;
    slot[i] = {a, b, sigma};
    hit[i] = 1;
  });
  MergeWorkerStats(stats, worker_stats);

  std::vector<ScoredUserPair> out;
  for (size_t i = 0; i < n; ++i) {
    if (hit[i] != 0) out.push_back(slot[i]);
  }
  return out;
}

namespace {

// Settles one candidate against a queue: verify at the queue's current
// threshold (the PPJ-B Lemma 1 budget is exactly consistent with
// SigmaAtLeast, so a pair that can still tie the tail score is never
// pruned — same contract as core/topk.cc's RefineCandidates) and offer
// any sigma > 0 discovery.
void VerifyIntoQueue(const ObjectDatabase& db, const UserGrid& grid,
                     const MatchThresholds& t,
                     const std::pair<UserId, UserId>& pair,
                     ResultQueue* queue, JoinStats* stats) {
  const auto [a, b] = pair;
  const UserLayout& cu = grid.UserCells(a);
  const UserLayout& cv = grid.UserCells(b);
  const size_t na = db.UserObjectCount(a);
  const size_t nb = db.UserObjectCount(b);
  const double eps_u = queue->Threshold();
  if (stats != nullptr) ++stats->pairs_verified;
  const double sigma =
      PPJBPair(cu, na, cv, nb, grid.geometry(), t, eps_u, stats);
  if (sigma <= 0.0) return;
  if (stats != nullptr) ++stats->matches_found;
  queue->Offer({a, b, sigma});
}

}  // namespace

std::vector<ScoredUserPair> SketchTopKSTPSJoin(
    const ObjectDatabase& db, const UserSketchIndex& sketches,
    const TopKQuery& query, const ParallelOptions& parallel,
    JoinStats* stats, uint32_t heavy_capacity) {
  STPS_CHECK(query.eps_loc > 0.0);
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.k > 0);
  STPS_CHECK(sketches.num_users() == db.num_users());
  ResultQueue queue(query.k);
  if (db.num_objects() == 0) return queue.TakeSorted();

  const SketchCandidates cand =
      sketches.GenerateCandidates(query.eps_loc, heavy_capacity);
  if (stats != nullptr) {
    stats->sketch_candidate_pairs += cand.pairs.size();
    stats->sketch_rejections += cand.rejections;
    stats->pairs_candidate += cand.pairs.size();
  }
  if (cand.pairs.empty()) return queue.TakeSorted();

  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();

  const int threads = std::max(parallel.num_threads, 1);
  if (threads == 1) {
    // Heavy-hitters-first: the count-min-ranked pairs fill the queue with
    // high-overlap pairs early, so Threshold() rises after ~k pairs and
    // the Lemma 1 budget early-terminates most of the tail.
    for (const uint32_t idx : cand.priority) {
      VerifyIntoQueue(db, grid, t, cand.pairs[idx], &queue, stats);
    }
    return queue.TakeSorted();
  }

  // Thread-local queues, merged via Offer: a local queue only ever holds
  // real (exactly verified) pairs, so its threshold is a sound global
  // bound — any pair it prunes is beaten by k real pairs and cannot be in
  // the global top-k (same argument as TopKSTPSJoinParallel).
  ThreadPool pool(threads);
  const size_t slots = static_cast<size_t>(pool.num_threads());
  std::vector<ResultQueue> queues(slots, ResultQueue(query.k));
  std::vector<JoinStats> worker_stats(slots);
  pool.ParallelForEach(
      0, cand.priority.size(), parallel.grain, [&](size_t i, int worker) {
        JoinStats* ws = stats != nullptr
                            ? &worker_stats[static_cast<size_t>(worker)]
                            : nullptr;
        VerifyIntoQueue(db, grid, t, cand.pairs[cand.priority[i]],
                        &queues[static_cast<size_t>(worker)], ws);
      });
  for (const ResultQueue& local : queues) {
    for (const ScoredUserPair& pair : local.TakeSorted()) {
      queue.Offer(pair);
    }
  }
  MergeWorkerStats(stats, worker_stats);
  return queue.TakeSorted();
}

}  // namespace stps
