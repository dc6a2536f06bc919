// Per-user spatial partitioning structures shared by the S-PPJ-* family.
//
// UserGrid materialises, for a query's eps_loc grid, the per-user cell
// lists Cu (sorted by cell id) with the objects Du_c of each cell; the
// PPJ-C / PPJ-B pair kernels merge two such lists. The same structure
// doubles as the per-leaf partition lists of S-PPJ-D (ids are leaf
// ordinals instead of grid cell ids).
//
// Storage is CSR: a UserLayout owns one flat, cell-grouped array of
// object refs plus SoA coordinate mirrors, and each UserPartition is just
// a contiguous range into it. Because the database slots are Z-ordered,
// a cell's objects are (mostly) adjacent in the source arrays too, and
// the batched eps_loc kernels (spatial/batch.h) stream a whole cell block
// per probe instead of chasing one STObject pointer per candidate.
//
// SpatioTextualGridIndex is the spatio-textual grid index of S-PPJ-F and
// TOPK-S-PPJ-* (Figure 3): per occupied cell, an inverted list token ->
// users having an object with that token in the cell. It is built once
// per query over every user as flat CSR arrays; the drivers' earlier-user
// cut over it reproduces Algorithm 2's incremental index exactly.

#ifndef STPS_CORE_USER_GRID_H_
#define STPS_CORE_USER_GRID_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/join_stats.h"
#include "spatial/grid.h"
#include "stjoin/ppj.h"

namespace stps {

/// The objects of one user inside one spatial partition (grid cell or
/// R-tree leaf). `id` is the partition id; `objects` is a view into the
/// owning UserLayout's CSR ref array starting at offset `begin` (the same
/// offset addresses the layout's xs/ys coordinate blocks). Refs carry
/// user-local indices for matched-flag bookkeeping.
struct UserPartition {
  int64_t id = 0;
  std::span<const ObjectRef> objects;
  uint32_t begin = 0;
};

/// Sorted list of partitions occupied by one user (the paper's Cu / Lu).
using UserPartitionList = std::vector<UserPartition>;

/// Cell-grouped CSR layout of one user's objects: `refs` (and the aligned
/// coordinate mirrors `xs`/`ys`) hold the objects partition by partition
/// in ascending partition-id order; `cells` delimits the ranges.
/// Move-only: the partition spans point into `refs`' heap buffer, which a
/// move preserves and a copy would not.
struct UserLayout {
  UserPartitionList cells;
  std::vector<ObjectRef> refs;
  std::vector<double> xs;
  std::vector<double> ys;

  UserLayout() = default;
  UserLayout(const UserLayout&) = delete;
  UserLayout& operator=(const UserLayout&) = delete;
  UserLayout(UserLayout&&) = default;
  UserLayout& operator=(UserLayout&&) = default;

  /// Range-for iterates the partitions, as with a bare UserPartitionList.
  UserPartitionList::const_iterator begin() const { return cells.begin(); }
  UserPartitionList::const_iterator end() const { return cells.end(); }
  bool empty() const { return cells.empty(); }
};

/// Builds a UserLayout from (partition id, ref) pairs that are already
/// sorted ascending by id (order within a partition is preserved). The
/// coordinate mirrors are filled from the refs' STObjects.
UserLayout MakeUserLayout(
    std::span<const std::pair<int64_t, ObjectRef>> keyed);

/// The coordinate block of a possibly-absent partition in its layout:
/// empty for nullptr. This is what the batch kernels consume.
inline CellBlock BlockOf(const UserLayout& layout, const UserPartition* p) {
  if (p == nullptr) return CellBlock{};
  return CellBlock{p->objects, layout.xs.data() + p->begin,
                   layout.ys.data() + p->begin};
}

/// Builds the per-user cell lists for a grid with cell extent eps_loc.
class UserGrid {
 public:
  /// Precondition: db has at least one object, eps_loc > 0.
  UserGrid(const ObjectDatabase& db, double eps_loc);

  const GridGeometry& geometry() const { return geometry_; }

  /// Cu: the cells occupied by user u, ascending by cell id, with the
  /// CSR object/coordinate arrays behind them.
  const UserLayout& UserCells(UserId u) const {
    STPS_DCHECK(u < per_user_.size());
    return per_user_[u];
  }

  size_t num_users() const { return per_user_.size(); }

 private:
  GridGeometry geometry_;
  std::vector<UserLayout> per_user_;
};

/// Returns |Du_p| for partition `id` in a sorted UserPartitionList, or 0
/// when the user does not occupy it.
size_t PartitionObjectCount(const UserPartitionList& list, int64_t id);

/// Finds the partition with the given id; nullptr when absent.
const UserPartition* FindPartition(const UserPartitionList& list, int64_t id);

/// UserLayout conveniences for the same lookups.
inline const UserPartition* FindPartition(const UserLayout& layout,
                                          int64_t id) {
  return FindPartition(layout.cells, id);
}
inline size_t PartitionObjectCount(const UserLayout& layout, int64_t id) {
  return PartitionObjectCount(layout.cells, id);
}

/// The distinct tokens appearing in `objects` (ascending).
TokenVector DistinctTokens(std::span<const ObjectRef> objects);

/// Scratch-reusing variant: clears *out and fills it with the distinct
/// tokens of `objects` (ascending). Hot loops pass a hoisted buffer to
/// avoid one allocation per partition.
void DistinctTokens(std::span<const ObjectRef> objects, TokenVector* out);

/// Sorts `*v` ascending and drops duplicates. The single authoritative
/// dedup for candidate cell/leaf bookkeeping: the filter loops only
/// perform an opportunistic back() check to limit growth, so supporting
/// cell lists MUST pass through here before being counted into the
/// sigma_bar bound (interleaved cell visits leave interior duplicates).
template <typename T>
void SortUnique(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// One element of the merged traversal over two users' partition lists.
struct MergedPartition {
  int64_t id = 0;
  const UserPartition* u = nullptr;  // nullptr when the user is absent
  const UserPartition* v = nullptr;
};

/// Merges two sorted partition lists into the ascending sequence of
/// distinct ids with per-side pointers.
std::vector<MergedPartition> MergePartitionLists(const UserPartitionList& cu,
                                                 const UserPartitionList& cv);

/// Scratch-reusing variant: clears *out and fills it with the merged
/// traversal. Hot loops pass a hoisted buffer to avoid one allocation per
/// user pair.
void MergePartitionLists(const UserPartitionList& cu,
                         const UserPartitionList& cv,
                         std::vector<MergedPartition>* out);

inline void MergePartitionLists(const UserLayout& cu, const UserLayout& cv,
                                std::vector<MergedPartition>* out) {
  MergePartitionLists(cu.cells, cv.cells, out);
}

/// The objects of a possibly-absent partition (empty span for nullptr).
inline std::span<const ObjectRef> PartitionObjects(const UserPartition* p) {
  return p == nullptr ? std::span<const ObjectRef>() : p->objects;
}

/// The cells of u whose objects may match a candidate (my_cells) and the
/// candidate's own supporting cells (their_cells) — the inputs of the
/// sigma_bar count bound. Shared by the S-PPJ-F/-D filters and the top-k
/// drivers (partition ids are cell ids or leaf ordinals alike).
struct CandidateCells {
  std::vector<int64_t> my_cells;
  std::vector<int64_t> their_cells;

  void Clear() {
    my_cells.clear();
    their_cells.clear();
  }
};

/// Dense epoch-stamped per-user candidate accumulator for the filter
/// loops: operator[] is an array index plus a stamp compare, and starting
/// a new probing user is O(1) — no rehash, no per-round clear of the value
/// slots (a slot is lazily Clear()ed the first time its stamp misses the
/// current round). SortedTouched() yields this round's candidates
/// ascending by id, which makes the refine order deterministic.
template <typename V>
class UserCandidateTable {
 public:
  /// Starts a new round for a universe of `num_users` users.
  void BeginRound(size_t num_users) {
    if (stamp_.size() < num_users) {
      stamp_.resize(num_users, 0);
      values_.resize(num_users);
    }
    touched_.clear();
    if (++round_ == 0) {  // stamp wraparound: invalidate everything
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      round_ = 1;
    }
  }

  /// The value slot of user `u`, cleared on first touch this round.
  V& operator[](UserId u) {
    STPS_DCHECK(u < stamp_.size());
    if (stamp_[u] != round_) {
      stamp_[u] = round_;
      values_[u].Clear();
      touched_.push_back(u);
    }
    return values_[u];
  }

  /// Number of users touched this round.
  size_t size() const { return touched_.size(); }

  /// The users touched this round, sorted ascending (in place).
  std::span<const UserId> SortedTouched() {
    std::sort(touched_.begin(), touched_.end());
    return touched_;
  }

 private:
  uint32_t round_ = 0;
  std::vector<uint32_t> stamp_;
  std::vector<V> values_;
  std::vector<UserId> touched_;
};

/// The complete spatio-textual grid index of S-PPJ-F / TOPK-S-PPJ-*,
/// built once per query over every user of a UserGrid.
///
/// An open-addressing table maps each occupied CellId to a dense slot;
/// two counting sorts by slot (and a sort of each cell's short token run)
/// lay out the CSR arrays slot -> users, slot -> sorted distinct tokens,
/// and token entry -> users. Every user
/// list is in processing order (`order` at construction), so a probe that
/// wants only the users processed before u stops at the first entry whose
/// Rank() reaches u's. With that earlier-user cut the complete index
/// yields exactly the candidates of Algorithm 2's incremental index.
class SpatioTextualGridIndex {
 public:
  /// FindCell's answer for a cell holding no object.
  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  /// Indexes every user of `grid`. `order` is the processing order: a
  /// permutation of the grid's user ids.
  SpatioTextualGridIndex(const UserGrid& grid, std::span<const UserId> order);

  /// The slot of `cell`, or kNoSlot when no object lies in it (including
  /// ids outside the grid).
  uint32_t FindCell(CellId cell) const {
    return buckets_[BucketOf(cell)].slot;
  }

  /// Number of occupied cells (slots are 0 .. num_cells() - 1).
  size_t num_cells() const { return cell_user_begin_.size() - 1; }

  /// Number of indexed users.
  size_t num_users() const { return rank_.size(); }

  /// Position of user `u` in the processing order.
  uint32_t Rank(UserId u) const {
    STPS_DCHECK(u < rank_.size());
    return rank_[u];
  }

  /// Every user with an object in the slot's cell, one entry each, in
  /// processing order. Includes users whose objects there carry no token
  /// (the JoinStats spatial/textual breakdown counts them).
  std::span<const UserId> CellUsers(uint32_t slot) const {
    return Range(cell_users_, cell_user_begin_, slot);
  }

  /// The distinct tokens of the slot's cell, ascending.
  std::span<const TokenId> CellTokens(uint32_t slot) const {
    return Range(tokens_, cell_token_begin_, slot);
  }

  /// The users (in processing order) having an object in the slot's cell
  /// that carries CellTokens(slot)[i].
  std::span<const UserId> TokenUsers(uint32_t slot, size_t i) const {
    return Range(entry_users_, entry_user_begin_,
                 cell_token_begin_[slot] + static_cast<uint32_t>(i));
  }

  /// Merges the ascending `tokens` with the slot's token run: calls
  /// fn(i, users) for every tokens[i] that also occurs in the cell, in
  /// ascending order, with that token's TokenUsers.
  template <typename Fn>
  void ForEachSharedToken(uint32_t slot, std::span<const TokenId> tokens,
                          Fn&& fn) const {
    const std::span<const TokenId> run = CellTokens(slot);
    const TokenId* it = run.data();
    const TokenId* const end = run.data() + run.size();
    for (size_t i = 0; i < tokens.size(); ++i) {
      it = std::lower_bound(it, end, tokens[i]);
      if (it == end) return;
      if (*it == tokens[i]) {
        fn(i, TokenUsers(slot, static_cast<size_t>(it - run.data())));
      }
    }
  }

 private:
  struct Bucket {
    CellId cell = 0;
    uint32_t slot = kNoSlot;
  };

  // The bucket holding `cell`, or the empty bucket where it would go:
  // linear probing from the top bits of the id times 2^64 / phi.
  size_t BucketOf(CellId cell) const {
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(cell) * 0x9E3779B97F4A7C15ull) >>
        bucket_shift_);
    while (buckets_[i].slot != kNoSlot && buckets_[i].cell != cell) {
      i = (i + 1) & bucket_mask_;
    }
    return i;
  }

  template <typename T>
  static std::span<const T> Range(const std::vector<T>& values,
                                  const std::vector<uint32_t>& begin,
                                  size_t i) {
    return std::span<const T>(values.data() + begin[i],
                              begin[i + 1] - begin[i]);
  }

  std::vector<Bucket> buckets_;  // power-of-two open-addressing table
  size_t bucket_mask_ = 0;
  int bucket_shift_ = 0;
  std::vector<uint32_t> rank_;             // user -> processing position
  std::vector<uint32_t> cell_user_begin_;  // slot -> cell_users_ offset
  std::vector<UserId> cell_users_;
  std::vector<uint32_t> cell_token_begin_;  // slot -> tokens_ offset
  std::vector<TokenId> tokens_;             // one token entry each
  std::vector<uint32_t> entry_user_begin_;  // entry -> entry_users_ offset
  std::vector<UserId> entry_users_;
};

/// The S-PPJ-F filter for the user of rank `rank_u`: token-probes each
/// cell of `cu` against the index over the cell and its neighbours and
/// records, per user of earlier rank sharing a token, the supporting cells
/// of both sides. `candidates` must have had BeginRound called for this
/// user. When `colocated` is non-null it receives the number of distinct
/// earlier users with any object in those neighbourhoods — the users that
/// pass the spatial part of the filter, for the JoinStats spatial/textual
/// breakdown. Shared by S-PPJ-F and the TOPK-S-PPJ-* drivers.
void CollectCandidates(const GridGeometry& geometry,
                       const SpatioTextualGridIndex& index,
                       const UserLayout& cu, uint32_t rank_u,
                       UserCandidateTable<CandidateCells>* candidates,
                       JoinStats* stats, size_t* colocated = nullptr);

}  // namespace stps

#endif  // STPS_CORE_USER_GRID_H_
