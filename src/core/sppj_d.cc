#include "core/sppj_d.h"

#include <algorithm>
#include <unordered_map>

#include "common/predicates.h"
#include "core/parallel_util.h"
#include "spatial/quadtree.h"
#include "spatial/spatial_join.h"
#include "text/token_set.h"

namespace stps {

SpatialPartitioning RTreePartitioning(const ObjectDatabase& db,
                                      int fanout) {
  std::vector<RTree::Entry> entries;
  entries.reserve(db.num_objects());
  for (const STObject& o : db.AllObjects()) {
    entries.push_back(RTree::Entry{o.loc, o.id});
  }
  const RTree tree = RTree::BulkLoad(std::move(entries), fanout);
  SpatialPartitioning out;
  for (const RTree::LeafRef& leaf : tree.CollectLeaves()) {
    out.mbrs.push_back(leaf.mbr);
    std::vector<ObjectId> members;
    members.reserve(leaf.entries.size());
    for (const RTree::Entry& entry : leaf.entries) {
      members.push_back(entry.value);
    }
    out.members.push_back(std::move(members));
  }
  return out;
}

SpatialPartitioning QuadTreePartitioning(const ObjectDatabase& db,
                                         int leaf_capacity) {
  std::vector<QuadTree::Entry> entries;
  entries.reserve(db.num_objects());
  for (const STObject& o : db.AllObjects()) {
    entries.push_back(QuadTree::Entry{o.loc, o.id});
  }
  const QuadTree tree = QuadTree::Build(std::move(entries), leaf_capacity);
  SpatialPartitioning out;
  for (const QuadTree::LeafRef& leaf : tree.CollectLeaves()) {
    out.mbrs.push_back(leaf.mbr);
    std::vector<ObjectId> members;
    members.reserve(leaf.entries.size());
    for (const QuadTree::Entry& entry : leaf.entries) {
      members.push_back(entry.value);
    }
    out.members.push_back(std::move(members));
  }
  return out;
}

LeafPartitionIndex::LeafPartitionIndex(const ObjectDatabase& db,
                                       double eps_loc, int fanout)
    : LeafPartitionIndex(db, eps_loc, RTreePartitioning(db, fanout)) {}

LeafPartitionIndex::LeafPartitionIndex(const ObjectDatabase& db,
                                       double eps_loc,
                                       const SpatialPartitioning& parts) {
  const size_t num_parts = parts.mbrs.size();
  STPS_CHECK(parts.members.size() == num_parts);
  leaf_mbrs_.reserve(num_parts);
  extended_mbrs_.reserve(num_parts);
  per_user_.resize(db.num_users());
  leaf_users_.resize(num_parts);
  token_users_.resize(num_parts);

  // (leaf ordinal, ref) pairs per user, appended leaf by leaf so every
  // list stays ordinal-sorted; turned into CSR layouts once all leaves
  // are in (the spans must point at the final flat arrays).
  std::vector<std::vector<std::pair<int64_t, ObjectRef>>> keyed(
      db.num_users());
  TokenVector tokens;
  for (uint32_t ordinal = 0; ordinal < num_parts; ++ordinal) {
    leaf_mbrs_.push_back(parts.mbrs[ordinal]);
    extended_mbrs_.push_back(parts.mbrs[ordinal].Extended(eps_loc));
    // Group the partition's objects per user.
    std::unordered_map<UserId, std::vector<ObjectRef>> by_user;
    for (const ObjectId id : parts.members[ordinal]) {
      const STObject& o = db.object(id);
      by_user[o.user].push_back(ObjectRef{&o, db.LocalIndex(o)});
    }
    // Deterministic per-partition user order (ascending id) so the
    // inverted lists are sorted and the u' < u filter can stop early.
    std::vector<UserId> users;
    users.reserve(by_user.size());
    for (const auto& [u, refs] : by_user) users.push_back(u);
    std::sort(users.begin(), users.end());
    auto& leaf_tokens = token_users_[ordinal];
    for (const UserId u : users) {
      const std::vector<ObjectRef>& refs = by_user[u];
      DistinctTokens(std::span<const ObjectRef>(refs), &tokens);
      for (const TokenId t : tokens) {
        leaf_tokens[t].push_back(u);
      }
      for (const ObjectRef& ref : refs) {
        keyed[u].emplace_back(ordinal, ref);
      }
    }
    leaf_users_[ordinal] = std::move(users);
  }
  for (UserId u = 0; u < db.num_users(); ++u) {
    per_user_[u] = MakeUserLayout(keyed[u]);
  }

  // Precompute which extended partition MBRs intersect (spatial join).
  adjacency_.resize(num_parts);
  for (uint32_t l = 0; l < num_parts; ++l) adjacency_[l].push_back(l);
  for (const auto& [i, j] : RectSelfJoin(extended_mbrs_)) {
    adjacency_[i].push_back(j);
    adjacency_[j].push_back(i);
  }
  for (auto& list : adjacency_) std::sort(list.begin(), list.end());
}

const std::vector<UserId>* LeafPartitionIndex::TokenUsers(uint32_t leaf,
                                                          TokenId t) const {
  STPS_DCHECK(leaf < token_users_.size());
  const auto it = token_users_[leaf].find(t);
  if (it == token_users_[leaf].end()) return nullptr;
  return &it->second;
}

namespace {

// Earlier users (< u) sharing a relevant leaf with u, regardless of
// tokens. The leaf-partitioning analogue of CollectCandidates' co-located
// count: splits the filter's prunes into spatial vs textual for JoinStats.
size_t CountColocatedEarlierUsersD(const LeafPartitionIndex& index,
                                   const UserLayout& lu, UserId u) {
  thread_local std::vector<UserId> colocated;
  colocated.clear();
  for (const UserPartition& leaf : lu) {
    for (const uint32_t other :
         index.RelevantLeaves(static_cast<uint32_t>(leaf.id))) {
      for (const UserId candidate : index.LeafUsers(other)) {
        if (candidate >= u) break;  // lists are ascending by user id
        colocated.push_back(candidate);
      }
    }
  }
  SortUnique(&colocated);
  return colocated.size();
}

// One pass over probing user u: filter via the leaf-level inverted
// lists, sigma_bar count bound, then PPJ-D refinement. Candidates are
// restricted to earlier users so every pair is evaluated exactly once;
// used by both the sequential and the parallel driver.
void ProcessUserD(const ObjectDatabase& db, const LeafPartitionIndex& index,
                  const STPSQuery& query, const MatchThresholds& t, UserId u,
                  std::vector<ScoredUserPair>* out, JoinStats* stats) {
  const UserLayout& lu = index.UserLeaves(u);
  const size_t nu = db.UserObjectCount(u);
  // Dense epoch-stamped accumulator (user_grid.h): one per worker thread,
  // reused across probing users with an O(1) reset instead of a map
  // rehash, and with deterministic ascending refine order.
  thread_local UserCandidateTable<CandidateCells> candidates;
  candidates.BeginRound(db.num_users());

  // Filter: probe the distinct tokens of every leaf of u against the
  // inverted lists of the relevant leaves; only users earlier in the
  // total order are candidates (the lists are sorted ascending).
  thread_local TokenVector tokens;
  for (const UserPartition& leaf : lu) {
    DistinctTokens(leaf.objects, &tokens);
    for (const uint32_t other :
         index.RelevantLeaves(static_cast<uint32_t>(leaf.id))) {
      if (stats != nullptr) ++stats->cells_visited;
      for (const TokenId token : tokens) {
        const std::vector<UserId>* users = index.TokenUsers(other, token);
        if (users == nullptr) continue;
        for (const UserId candidate : *users) {
          if (candidate >= u) break;  // sorted ascending
          CandidateCells& cl = candidates[candidate];
          // Opportunistic growth limiting only; SortUnique below is the
          // authoritative dedup (their_cells interleaves across the
          // outer leaf loop, so back() checks cannot catch everything).
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
  if (stats != nullptr) {
    // Where did the earlier users go? Co-located users without a shared
    // token were pruned textually, the rest spatially.
    const size_t colocated = CountColocatedEarlierUsersD(index, lu, u);
    stats->pairs_candidate += candidates.size();
    stats->pairs_pruned_textual += colocated - candidates.size();
    stats->pairs_pruned_spatial += u - colocated;
  }

  for (const UserId candidate : candidates.SortedTouched()) {
    CandidateCells& leaves = candidates[candidate];
    const UserLayout& lv = index.UserLeaves(candidate);
    const size_t nv = db.UserObjectCount(candidate);
    SortUnique(&leaves.my_cells);
    SortUnique(&leaves.their_cells);
    // sigma_bar: assume every object in the supporting leaves matches.
    size_t m = 0;
    for (const int64_t l : leaves.my_cells) {
      m += PartitionObjectCount(lu, l);
    }
    for (const int64_t l : leaves.their_cells) {
      m += PartitionObjectCount(lv, l);
    }
    // sigma_bar >= eps_u as the exact counting predicate: the historical
    // float quotient could reject a pair whose bound equals eps_u.
    if (!SigmaAtLeast(m, nu + nv, query.eps_u)) {
      if (stats != nullptr) ++stats->pairs_pruned_count;
      continue;
    }
    if (stats != nullptr) ++stats->pairs_verified;
    size_t matched = 0;
    const double sigma =
        PPJDPair(lu, nu, lv, nv, index, t, query.eps_u, stats, &matched);
    if (SigmaAtLeast(matched, nu + nv, query.eps_u)) {
      out->push_back({candidate, u, sigma});
      if (stats != nullptr) ++stats->matches_found;
    }
  }
}

LeafPartitionIndex BuildIndex(const ObjectDatabase& db,
                              const STPSQuery& query,
                              const SPPJDOptions& options) {
  return LeafPartitionIndex(
      db, query.eps_loc,
      options.partitioning == PartitioningScheme::kRTree
          ? RTreePartitioning(db, options.fanout)
          : QuadTreePartitioning(db, options.fanout));
}

}  // namespace

double PPJDPair(const UserLayout& lu, size_t nu, const UserLayout& lv,
                size_t nv, const LeafPartitionIndex& index,
                const MatchThresholds& t, double eps_u, JoinStats* stats,
                size_t* matched_out) {
  if (matched_out != nullptr) *matched_out = 0;
  if (nu + nv == 0) return 0.0;
  const bool bounded = eps_u > 0.0;
  // Exact integer Lemma 1 budget (common/predicates.h): never prunes a
  // pair with sigma exactly eps_u.
  const int64_t budget = SigmaUnmatchedBudget(nu + nv, eps_u);
  // Per-thread scratch: flags and the merged leaf traversal survive
  // across user pairs (each worker thread has its own).
  struct DPairScratch {
    std::vector<uint8_t> matched_u, matched_v;
    std::vector<MergedPartition> merged;
  };
  thread_local DPairScratch scratch;
  std::vector<uint8_t>& matched_u = scratch.matched_u;
  std::vector<uint8_t>& matched_v = scratch.matched_v;
  matched_u.assign(nu, 0);
  matched_v.assign(nv, 0);
  uint32_t matched_total = 0;
  size_t processed_objects = 0;

  // Leaf-vs-leaf joins go straight to the batched distance sweep. The
  // historical extended-MBR-intersection box pre-filter is gone: an
  // object outside box(l, l') is farther than eps_loc from every object
  // of the other leaf, so the distance kernel rejects exactly the same
  // pairs before any later filter runs — same matches, same
  // signature-test set, no per-leaf copy.
  MergePartitionLists(lu, lv, &scratch.merged);
  const std::vector<MergedPartition>& merged = scratch.merged;
  for (size_t idx = 0; idx < merged.size(); ++idx) {
    const MergedPartition& cell = merged[idx];
    if (idx + 1 < merged.size()) {
      const MergedPartition& next = merged[idx + 1];
      if (next.u != nullptr) {
        __builtin_prefetch(lu.xs.data() + next.u->begin);
        __builtin_prefetch(lu.ys.data() + next.u->begin);
      }
      if (next.v != nullptr) {
        __builtin_prefetch(lv.xs.data() + next.v->begin);
        __builtin_prefetch(lv.ys.data() + next.v->begin);
      }
    }
    if (stats != nullptr) ++stats->cells_visited;
    const uint32_t leaf = static_cast<uint32_t>(cell.id);
    if (cell.u != nullptr) {
      const CellBlock bu = BlockOf(lu, cell.u);
      // Join Du_l with Dv_l' for every relevant leaf l' >= l.
      for (const uint32_t other : index.RelevantLeaves(leaf)) {
        if (other < leaf) continue;
        const UserPartition* pv =
            other == leaf ? cell.v : FindPartition(lv, other);
        if (pv == nullptr) continue;
        matched_total += PPJCrossMarkBatch(bu, BlockOf(lv, pv), t,
                                           &matched_u, &matched_v, stats);
      }
    }
    if (cell.v != nullptr) {
      const CellBlock bv = BlockOf(lv, cell.v);
      // Join Du_l' with Dv_l for every relevant leaf l' > l. Note: the
      // paper's Algorithm 3 guards the two sides with an else-if; when a
      // leaf holds objects of both users that would skip join pairs, so
      // both branches execute here (duplicate-free by the >= / > guards).
      for (const uint32_t other : index.RelevantLeaves(leaf)) {
        if (other <= leaf) continue;
        const UserPartition* pu = FindPartition(lu, other);
        if (pu == nullptr) continue;
        matched_total += PPJCrossMarkBatch(BlockOf(lu, pu), bv, t,
                                           &matched_u, &matched_v, stats);
      }
    }
    processed_objects += (cell.u ? cell.u->objects.size() : 0) +
                         (cell.v ? cell.v->objects.size() : 0);
    if (bounded) {
      // Every pair involving the processed leaves has been evaluated, so
      // their unmatched objects can never match later (lines 21-22 of
      // Algorithm 3). Signed arithmetic: matches may mark objects in
      // leaves not yet processed.
      const int64_t unmatched_lower_bound =
          static_cast<int64_t>(processed_objects) -
          static_cast<int64_t>(matched_total);
      if (unmatched_lower_bound > budget) {
        if (stats != nullptr) ++stats->refine_early_stops;
        return 0.0;
      }
    }
  }
  if (matched_out != nullptr) *matched_out = matched_total;
  return static_cast<double>(matched_total) / static_cast<double>(nu + nv);
}

std::vector<ScoredUserPair> SPPJD(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  const SPPJDOptions& options,
                                  JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  std::vector<ScoredUserPair> result;
  if (db.num_objects() == 0) return result;
  const LeafPartitionIndex index = BuildIndex(db, query, options);
  const MatchThresholds t = query.match_thresholds();
  for (UserId u = 0; u < db.num_users(); ++u) {
    ProcessUserD(db, index, query, t, u, &result, stats);
  }
  std::sort(result.begin(), result.end(), PairIdLess);
  return result;
}

std::vector<ScoredUserPair> SPPJDParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const SPPJDOptions& options,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats) {
  STPS_CHECK(query.eps_doc > 0.0);
  STPS_CHECK(query.eps_u > 0.0);
  STPS_CHECK(parallel.num_threads >= 1);
  if (db.num_objects() == 0) return {};
  const LeafPartitionIndex index = BuildIndex(db, query, options);
  const MatchThresholds t = query.match_thresholds();

  const size_t slots = static_cast<size_t>(parallel.num_threads);
  std::vector<std::vector<ScoredUserPair>> per_worker(slots);
  std::vector<JoinStats> worker_stats(slots);
  ParallelForEach(
      parallel.num_threads, 0, db.num_users(), [&](size_t u, int worker) {
        ProcessUserD(db, index, query, t, static_cast<UserId>(u),
                     &per_worker[static_cast<size_t>(worker)],
                     stats != nullptr
                         ? &worker_stats[static_cast<size_t>(worker)]
                         : nullptr);
      });
  MergeWorkerStats(stats, worker_stats);
  return MergeSortedPairs(&per_worker);
}

}  // namespace stps
