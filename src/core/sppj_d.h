// S-PPJ-D (Section 4.1.4): filter-and-refine STPSJoin over a data-driven
// partitioning — the leaves of an R-tree — instead of the eps_loc grid.
//
// A spatio-textual index is built over the leaves: per leaf, the per-user
// object lists Dl_u and an inverted list token -> users; the intersections
// of the eps_loc-extended leaf MBRs are precomputed with a spatial join.
// Refinement runs PPJ-D (Algorithm 3), which joins only objects inside the
// intersection of the two extended MBRs and applies the same Lemma 1
// early-termination bound as PPJ-B.

#ifndef STPS_CORE_SPPJ_D_H_
#define STPS_CORE_SPPJ_D_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "core/join_stats.h"
#include "core/similarity.h"
#include "core/user_grid.h"
#include "spatial/rtree.h"

namespace stps {

/// Which data-driven partitioning S-PPJ-D runs on. The paper uses R-tree
/// leaves; the quadtree alternative follows Rao et al. (BigSpatial 2014),
/// which the paper cites.
enum class PartitioningScheme {
  kRTree,
  kQuadTree,
};

/// Tuning for the partitioning (the paper's Figure 6 parameter: R-tree
/// fanout, or quadtree leaf capacity).
struct SPPJDOptions {
  int fanout = 128;
  PartitioningScheme partitioning = PartitioningScheme::kRTree;
};

/// A materialised space partitioning: per partition, a tight MBR and the
/// member object ids. Produced by the factory functions below; any
/// partitioning with complete, disjoint membership works.
struct SpatialPartitioning {
  std::vector<Rect> mbrs;
  std::vector<std::vector<ObjectId>> members;
};

/// Partitions = leaves of an STR-bulk-loaded R-tree with node capacity
/// `fanout`.
SpatialPartitioning RTreePartitioning(const ObjectDatabase& db, int fanout);

/// Partitions = non-empty leaves of a PR quadtree with the given leaf
/// capacity.
SpatialPartitioning QuadTreePartitioning(const ObjectDatabase& db,
                                         int leaf_capacity);

/// The leaves of u whose objects may match a candidate (my_cells) and the
/// candidate's own supporting leaves (their_cells): the inputs of the
/// S-PPJ-D and TOPK-S-PPJ-D sigma_bar bound. The filter loops only drop a
/// leaf equal to the last one pushed; their_cells interleaves across the
/// outer leaf loop, so both lists pass through SortUnique before they are
/// counted.
struct CandidateCells {
  std::vector<int64_t> my_cells;
  std::vector<int64_t> their_cells;

  void Clear() {
    my_cells.clear();
    their_cells.clear();
  }
};

/// Sorts `*v` ascending and drops duplicates.
template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// The leaf-level spatio-textual index S-PPJ-D operates on. Exposed so
/// tests and benchmarks can reuse a built index across queries with the
/// same eps_loc/fanout.
class LeafPartitionIndex {
 public:
  /// Convenience: builds over RTreePartitioning(db, fanout).
  LeafPartitionIndex(const ObjectDatabase& db, double eps_loc, int fanout);

  /// Builds the per-partition per-user lists, the per-partition inverted
  /// token lists, and the extended-MBR adjacency over an arbitrary
  /// partitioning.
  LeafPartitionIndex(const ObjectDatabase& db, double eps_loc,
                     const SpatialPartitioning& partitioning);

  STPS_DISALLOW_COPY_AND_ASSIGN(LeafPartitionIndex);

  size_t num_leaves() const { return leaf_mbrs_.size(); }

  /// Lu: the leaves (by ordinal) holding objects of user u, ascending,
  /// with the CSR object/coordinate arrays behind them.
  const UserLayout& UserLeaves(UserId u) const {
    STPS_DCHECK(u < per_user_.size());
    return per_user_[u];
  }

  /// Ordinals of leaves whose extended MBR intersects `leaf`'s extended
  /// MBR (including `leaf` itself), ascending.
  const std::vector<uint32_t>& RelevantLeaves(uint32_t leaf) const {
    STPS_DCHECK(leaf < adjacency_.size());
    return adjacency_[leaf];
  }

  /// The eps_loc-extended MBR of a leaf.
  const Rect& ExtendedMbr(uint32_t leaf) const {
    STPS_DCHECK(leaf < extended_mbrs_.size());
    return extended_mbrs_[leaf];
  }

  /// Users (ascending) having an object with token `t` in `leaf`;
  /// nullptr when none.
  const std::vector<UserId>* TokenUsers(uint32_t leaf, TokenId t) const;

  /// Users (ascending) having any object in `leaf`. Used by the JoinStats
  /// spatial/textual filter breakdown.
  const std::vector<UserId>& LeafUsers(uint32_t leaf) const {
    STPS_DCHECK(leaf < leaf_users_.size());
    return leaf_users_[leaf];
  }

 private:
  std::vector<Rect> leaf_mbrs_;
  std::vector<Rect> extended_mbrs_;
  std::vector<std::vector<uint32_t>> adjacency_;
  std::vector<UserLayout> per_user_;
  std::vector<std::vector<UserId>> leaf_users_;
  std::vector<std::unordered_map<TokenId, std::vector<UserId>>> token_users_;
};

/// PPJ-D (Algorithm 3): sigma for a user pair over the leaf partitioning,
/// with early termination at eps_u (exact whenever sigma >= eps_u; the
/// Lemma 1 stop uses the integer SigmaUnmatchedBudget of
/// common/predicates.h). Leaf-vs-leaf joins run through the batched SoA
/// mark kernel (PPJCrossMarkBatch). `stats` (optional) accrues
/// cells_visited and refine_early_stops plus the batch kernel counters.
/// `matched_out` (optional) receives sigma's integer numerator (0 when
/// pruned) for exact SigmaAtLeast decisions.
double PPJDPair(const UserLayout& lu, size_t nu, const UserLayout& lv,
                size_t nv, const LeafPartitionIndex& index,
                const MatchThresholds& t, double eps_u,
                JoinStats* stats = nullptr, size_t* matched_out = nullptr);

/// Evaluates the STPSJoin query with S-PPJ-D. Same output contract as
/// SPPJC. Preconditions: eps_doc > 0, eps_u > 0 (see S-PPJ-F).
std::vector<ScoredUserPair> SPPJD(const ObjectDatabase& db,
                                  const STPSQuery& query,
                                  const SPPJDOptions& options = {},
                                  JoinStats* stats = nullptr);

/// Parallel S-PPJ-D: the leaf index is built once (it is not
/// incremental), then the probing-user loop runs in the fork-join loop
/// with candidates restricted to earlier users. Bit-identical to
/// SPPJD at any thread count.
std::vector<ScoredUserPair> SPPJDParallel(const ObjectDatabase& db,
                                          const STPSQuery& query,
                                          const SPPJDOptions& options,
                                          const ParallelOptions& parallel,
                                          JoinStats* stats = nullptr);

}  // namespace stps

#endif  // STPS_CORE_SPPJ_D_H_
