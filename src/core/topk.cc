#include "core/topk.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/predicates.h"
#include "core/parallel_util.h"
#include "core/ppjb.h"
#include "core/result_queue.h"
#include "core/sppj_d.h"
#include "core/user_grid.h"

namespace stps {

namespace {

// Ascending |Du| (ties: ascending id) — the order of TOPK-S-PPJ-F / -P.
std::vector<UserId> OrderBySize(const ObjectDatabase& db) {
  std::vector<UserId> order(db.num_users());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&db](UserId a, UserId b) {
    if (db.UserObjectCount(a) != db.UserObjectCount(b)) {
      return db.UserObjectCount(a) < db.UserObjectCount(b);
    }
    return a < b;
  });
  return order;
}

// TOPK-S-PPJ-S ordering: descending popularity score
// s_u = sum over o in Du of s_cell(o), with
// s_c = |users having objects in c or an adjacent cell|.
std::vector<UserId> OrderByPopularity(const ObjectDatabase& db,
                                      const UserGrid& grid) {
  // Occupancy: cell -> distinct users.
  std::unordered_map<CellId, std::vector<UserId>> cell_users;
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (const UserPartition& cell : grid.UserCells(u)) {
      cell_users[cell.id].push_back(u);  // distinct: one entry per (u, cell)
    }
  }
  // Cell scores. Integer throughout: the scores are user counts, and the
  // per-user sums below accumulate in cell_users' unordered_map iteration
  // order — double summation would make the visit order (and thus the
  // whole TOPK-S-PPJ-S traversal) platform-dependent; integer addition is
  // associative, so the order is provably irrelevant.
  std::unordered_map<CellId, uint64_t> cell_score;
  std::vector<CellId> neighbors;
  std::unordered_set<UserId> distinct;
  for (const auto& [cell, users] : cell_users) {
    neighbors.clear();
    grid.geometry().AppendNeighborhood(cell, /*include_self=*/true,
                                       &neighbors);
    distinct.clear();
    for (const CellId n : neighbors) {
      const auto it = cell_users.find(n);
      if (it == cell_users.end()) continue;
      distinct.insert(it->second.begin(), it->second.end());
    }
    cell_score[cell] = distinct.size();
  }
  // User scores: every object contributes its cell's score.
  std::vector<uint64_t> user_score(db.num_users(), 0);
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (const UserPartition& cell : grid.UserCells(u)) {
      user_score[u] += cell_score[cell.id] * cell.objects.size();
    }
  }
  std::vector<UserId> order(db.num_users());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&user_score](UserId a, UserId b) {
    if (user_score[a] != user_score[b]) return user_score[a] > user_score[b];
    return a < b;
  });
  return order;
}

// TOPK-S-PPJ-P prefilter: the number of objects of u that have a token
// appearing (from a user of earlier rank) in their own or an adjacent
// cell — an overestimate of |M(Du, D_{U'})|. The index lists are in rank
// order, so a token's front entry decides whether any earlier user
// carries it there.
size_t EstimateMatchableObjects(const GridGeometry& geometry,
                                const SpatioTextualGridIndex& index,
                                const UserLayout& cu, uint32_t rank_u) {
  size_t count = 0;
  // Hoisted per-thread scratch (runs once per probing user in the -P
  // variant).
  thread_local std::vector<CellId> neighbors;
  thread_local TokenVector tokens;
  thread_local std::vector<char> matchable;  // per entry of `tokens`
  for (const UserPartition& cell : cu) {
    neighbors.clear();
    geometry.AppendNeighborhood(cell.id, /*include_self=*/true, &neighbors);
    DistinctTokens(cell.objects, &tokens);
    // Flag the cell's tokens some earlier user has nearby.
    matchable.assign(tokens.size(), 0);
    bool any = false;
    for (const CellId n : neighbors) {
      const uint32_t slot = index.FindCell(n);
      if (slot == SpatioTextualGridIndex::kNoSlot) continue;
      if (index.Rank(index.CellUsers(slot).front()) >= rank_u) continue;
      index.ForEachSharedToken(
          slot, tokens, [&](size_t i, std::span<const UserId> users) {
            if (index.Rank(users.front()) < rank_u) {
              matchable[i] = 1;
              any = true;
            }
          });
    }
    if (!any) continue;
    for (const ObjectRef& ref : cell.objects) {
      for (const TokenId t : ref.object->doc) {
        const size_t i = static_cast<size_t>(
            std::lower_bound(tokens.begin(), tokens.end(), t) -
            tokens.begin());
        if (matchable[i] != 0) {
          ++count;
          break;
        }
      }
    }
  }
  return count;
}

// Refines u's candidates against `queue`: the sigma_bar count bound once
// the queue is full (exact SigmaAtLeast, so a candidate that can still
// *tie* the tail score survives and Offer settles it on the id order),
// then the PPJ-B kernel with the queue threshold as eps_u — whose integer
// Lemma 1 budget likewise never prunes a pair landing exactly on the
// threshold. Any nonzero PPJBPair return is exact, so offered pairs carry
// exact scores.
void RefineCandidates(const ObjectDatabase& db, const UserGrid& grid,
                      const MatchThresholds& t, UserId u,
                      const UserLayout& cu, size_t nu,
                      UserCandidateTable<CandidateCells>* candidates,
                      ResultQueue* queue, JoinStats* stats) {
  if (stats != nullptr) stats->pairs_candidate += candidates->size();
  for (const UserId candidate : candidates->SortedTouched()) {
    CandidateCells& cells = (*candidates)[candidate];
    const UserLayout& cv = grid.UserCells(candidate);
    const size_t nv = db.UserObjectCount(candidate);
    const double eps_u = queue->Threshold();
    if (queue->full()) {
      SortUnique(&cells.my_cells);
      SortUnique(&cells.their_cells);
      size_t m = 0;
      for (const int64_t c : cells.my_cells) {
        m += PartitionObjectCount(cu, c);
      }
      for (const int64_t c : cells.their_cells) {
        m += PartitionObjectCount(cv, c);
      }
      // Prune only when sigma_bar is exactly below the tail score: the
      // rounded quotient m / (nu + nv) could dip one ULP under eps_u for
      // a pair whose bound equals it, dropping a legitimate tie.
      if (!SigmaAtLeast(m, nu + nv, eps_u)) {
        if (stats != nullptr) ++stats->pairs_pruned_count;
        continue;
      }
    }
    if (stats != nullptr) ++stats->pairs_verified;
    const double sigma =
        PPJBPair(cu, nu, cv, nv, grid.geometry(), t, eps_u, stats);
    if (sigma <= 0.0) continue;
    if (stats != nullptr) ++stats->matches_found;
    queue->Offer({std::min(u, candidate), std::max(u, candidate), sigma});
  }
}

}  // namespace

std::vector<ScoredUserPair> TopKSTPSJoin(const ObjectDatabase& db,
                                         const TopKQuery& query,
                                         TopKVariant variant,
                                         JoinStats* stats) {
  return TopKSTPSJoinParallel(db, query, variant, ParallelOptions{}, stats);
}

std::vector<ScoredUserPair> TopKSTPSJoinParallel(
    const ObjectDatabase& db, const TopKQuery& query, TopKVariant variant,
    const ParallelOptions& parallel, JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.k > 0);
  STPS_CHECK(parallel.num_threads >= 1);
  ResultQueue queue(query.k);
  if (db.num_objects() == 0) return queue.TakeSorted();

  const UserGrid grid(db, query.eps_loc);
  const MatchThresholds t = query.match_thresholds();
  const std::vector<UserId> order = variant == TopKVariant::kS
                                        ? OrderByPopularity(db, grid)
                                        : OrderBySize(db);
  // The complete index, lists in processing order: with the earlier-rank
  // cut, user u sees exactly the users Algorithm 4's incremental index
  // holds when u is processed.
  const SpatioTextualGridIndex index(grid, order);

  ThreadPool pool(parallel.num_threads);
  const size_t slots = static_cast<size_t>(pool.num_threads());
  std::vector<ResultQueue> queues(slots, ResultQueue(query.k));
  std::vector<JoinStats> worker_stats(slots);
  pool.ParallelForEach(
      0, order.size(), parallel.grain, [&](size_t r, int worker) {
        const UserId u = order[r];
        const uint32_t rank_u = static_cast<uint32_t>(r);
        const UserLayout& cu = grid.UserCells(u);
        const size_t nu = db.UserObjectCount(u);
        ResultQueue& local = queues[static_cast<size_t>(worker)];
        JoinStats* ws = stats != nullptr
                            ? &worker_stats[static_cast<size_t>(worker)]
                            : nullptr;

        // TOPK-S-PPJ-P: Lemma 2 prefilter against the worker's queue (on
        // one thread, the only queue). A queue holds k real pairs, so
        // anything below its threshold is outside the global top-k too.
        // Under the ascending-size order, the running max of previous
        // sizes is simply the previous user's size.
        if (variant == TopKVariant::kP && r > 0 && local.full()) {
          const size_t max_prev_size = db.UserObjectCount(order[r - 1]);
          if (max_prev_size > 0) {
            const size_t matchable = EstimateMatchableObjects(
                grid.geometry(), index, cu, rank_u);
            // Exact counting form of sigma_bar_u < Threshold() — ties
            // survive.
            if (!SigmaAtLeast(matchable + max_prev_size, nu + max_prev_size,
                              local.Threshold())) {
              return;
            }
          }
        }

        thread_local UserCandidateTable<CandidateCells> candidates;
        candidates.BeginRound(db.num_users());
        CollectCandidates(grid.geometry(), index, cu, rank_u, &candidates,
                          ws);
        RefineCandidates(db, grid, t, u, cu, nu, &candidates, &local, ws);
      });

  for (const ResultQueue& local : queues) {
    for (const ScoredUserPair& pair : local.TakeSorted()) {
      queue.Offer(pair);
    }
  }
  MergeWorkerStats(stats, worker_stats);
  return queue.TakeSorted();
}

std::vector<ScoredUserPair> TopKSPPJD(const ObjectDatabase& db,
                                      const TopKQuery& query, int fanout,
                                      JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.k > 0);
  ResultQueue queue(query.k);
  if (db.num_objects() == 0) return queue.TakeSorted();

  const LeafPartitionIndex index(db, query.eps_loc, fanout);
  const MatchThresholds t = query.match_thresholds();
  const std::vector<UserId> order = OrderBySize(db);
  // The leaf index holds all users; pair-once semantics come from only
  // accepting candidates processed earlier in the ascending-size order.
  std::vector<uint32_t> rank(db.num_users(), 0);
  for (uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;

  UserCandidateTable<CandidateCells> candidates;

  TokenVector tokens;
  for (const UserId u : order) {
    const UserLayout& lu = index.UserLeaves(u);
    const size_t nu = db.UserObjectCount(u);
    candidates.BeginRound(db.num_users());
    for (const UserPartition& leaf : lu) {
      DistinctTokens(leaf.objects, &tokens);
      for (const uint32_t other :
           index.RelevantLeaves(static_cast<uint32_t>(leaf.id))) {
        if (stats != nullptr) ++stats->cells_visited;
        for (const TokenId token : tokens) {
          const std::vector<UserId>* users = index.TokenUsers(other, token);
          if (users == nullptr) continue;
          for (const UserId candidate : *users) {
            if (rank[candidate] >= rank[u]) continue;
            CandidateCells& cl = candidates[candidate];
            if (cl.my_cells.empty() || cl.my_cells.back() != leaf.id) {
              cl.my_cells.push_back(leaf.id);
            }
            if (cl.their_cells.empty() || cl.their_cells.back() != other) {
              cl.their_cells.push_back(other);
            }
          }
        }
      }
    }
    if (stats != nullptr) stats->pairs_candidate += candidates.size();
    for (const UserId candidate : candidates.SortedTouched()) {
      CandidateCells& leaves = candidates[candidate];
      const UserLayout& lv = index.UserLeaves(candidate);
      const size_t nv = db.UserObjectCount(candidate);
      const double eps_u = queue.Threshold();
      if (queue.full()) {
        SortUnique(&leaves.my_cells);
        SortUnique(&leaves.their_cells);
        size_t m = 0;
        for (const int64_t l : leaves.my_cells) {
          m += PartitionObjectCount(lu, l);
        }
        for (const int64_t l : leaves.their_cells) {
          m += PartitionObjectCount(lv, l);
        }
        // Exact counting form of sigma_bar < eps_u (see RefineCandidates).
        if (!SigmaAtLeast(m, nu + nv, eps_u)) {
          if (stats != nullptr) ++stats->pairs_pruned_count;
          continue;
        }
      }
      if (stats != nullptr) ++stats->pairs_verified;
      const double sigma = PPJDPair(lu, nu, lv, nv, index, t, eps_u, stats);
      if (sigma <= 0.0) continue;
      if (stats != nullptr) ++stats->matches_found;
      queue.Offer({std::min(u, candidate), std::max(u, candidate), sigma});
    }
  }
  return queue.TakeSorted();
}

std::vector<ScoredUserPair> TopKSPPJF(const ObjectDatabase& db,
                                      const TopKQuery& query) {
  return TopKSTPSJoin(db, query, TopKVariant::kF);
}

std::vector<ScoredUserPair> TopKSPPJS(const ObjectDatabase& db,
                                      const TopKQuery& query) {
  return TopKSTPSJoin(db, query, TopKVariant::kS);
}

std::vector<ScoredUserPair> TopKSPPJP(const ObjectDatabase& db,
                                      const TopKQuery& query) {
  return TopKSTPSJoin(db, query, TopKVariant::kP);
}

}  // namespace stps
