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

/// A set over the dense universe 0 .. size - 1 that empties in O(1): an
/// element is in the set while its stamp equals the current round, so
/// starting a round only bumps the counter (the stamps are refilled when
/// it wraps around).
class RoundStampSet {
 public:
  /// Starts a new, empty round over a universe of at least `size`.
  void BeginRound(size_t size) {
    if (stamp_.size() < size) stamp_.resize(size, 0);
    if (++round_ == 0) {  // stamp wraparound: invalidate everything
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      round_ = 1;
    }
  }

  /// Adds `i`; true when it was not yet in the set this round.
  bool Insert(size_t i) {
    STPS_DCHECK(i < stamp_.size());
    if (stamp_[i] == round_) return false;
    stamp_[i] = round_;
    return true;
  }

 private:
  uint32_t round_ = 0;
  std::vector<uint32_t> stamp_;
};

/// The sigma_bar bound of one S-PPJ-F / top-k candidate v of the probing
/// user u, counted by CollectCandidates: `m` is the number of objects of
/// u and v in the pair's supporting cells, the bound's integer numerator.
/// `last_cell` is the last cell of u counted into `m`.
struct CandidateBound {
  CellId last_cell = -1;
  size_t m = 0;

  void Clear() {
    last_cell = -1;
    m = 0;
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
    stamps_.BeginRound(num_users);
    if (values_.size() < num_users) values_.resize(num_users);
    touched_.clear();
  }

  /// The value slot of user `u`, cleared on first touch this round.
  V& operator[](UserId u) {
    if (stamps_.Insert(u)) {
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
  RoundStampSet stamps_;
  std::vector<V> values_;
  std::vector<UserId> touched_;
};

/// The complete spatio-textual grid index of S-PPJ-F / TOPK-S-PPJ-*,
/// built once per query over every user of a UserGrid.
///
/// An open-addressing table maps each occupied CellId to a dense slot;
/// two counting sorts by slot (and a sort of each cell's short token run)
/// lay out the CSR arrays slot -> users, slot -> sorted distinct tokens,
/// and token entry -> positions. A position is one (cell, user) pair: the
/// index of that user in the flat array behind CellUsers. Each position
/// also carries |Dv_c|, the user's object count in the cell, so a filter
/// sums the sigma_bar numerator without looking the cell up in Cv.
///
/// Every user list is in processing order (`order` at construction), so a
/// probe that wants only the users processed before u stops at the first
/// entry whose Rank() reaches u's. With that earlier-user cut the complete
/// index yields exactly the candidates of Algorithm 2's incremental index.
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

  /// Number of (cell, user) positions.
  size_t num_positions() const { return cell_users_.size(); }

  /// The user at position `p`.
  UserId PositionUser(uint32_t p) const { return cell_users_[p]; }

  /// |Dv_c| of the (cell, user) pair at position `p`.
  uint32_t PositionObjectCount(uint32_t p) const { return cell_objects_[p]; }

  /// The distinct tokens of the slot's cell, ascending.
  std::span<const TokenId> CellTokens(uint32_t slot) const {
    return Range(tokens_, cell_token_begin_, slot);
  }

  /// The positions (ascending, so in processing order) of the slot's users
  /// having an object in the cell that carries CellTokens(slot)[i].
  std::span<const uint32_t> TokenPositions(uint32_t slot, size_t i) const {
    return Range(entry_positions_, entry_begin_,
                 cell_token_begin_[slot] + static_cast<uint32_t>(i));
  }

  /// Merges the ascending `tokens` with the slot's token run: calls
  /// fn(i, positions) for every tokens[i] that also occurs in the cell, in
  /// ascending order, with that token's TokenPositions.
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
        fn(i, TokenPositions(slot, static_cast<size_t>(it - run.data())));
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
  std::vector<uint32_t> cell_user_begin_;  // slot -> first position
  std::vector<UserId> cell_users_;         // position -> user
  std::vector<uint32_t> cell_objects_;     // position -> |Dv_c|
  std::vector<uint32_t> cell_token_begin_;  // slot -> tokens_ offset
  std::vector<TokenId> tokens_;             // one token entry each
  std::vector<uint32_t> entry_begin_;  // entry -> entry_positions_ offset
  std::vector<uint32_t> entry_positions_;
};

/// The S-PPJ-F filter for the user of rank `rank_u`: token-probes each
/// cell of `cu` against the index over the cell and its neighbours and
/// counts, per user of earlier rank sharing a token, the sigma_bar
/// numerator: the objects of both users in the pair's supporting cells,
/// each supporting cell counted once. `candidates` must have had
/// BeginRound called for this user. When `colocated` is non-null it
/// receives the number of distinct earlier users with any object in those
/// neighbourhoods — the users that pass the spatial part of the filter,
/// for the JoinStats spatial/textual breakdown. Shared by S-PPJ-F and the
/// TOPK-S-PPJ-* drivers.
void CollectCandidates(const GridGeometry& geometry,
                       const SpatioTextualGridIndex& index,
                       const UserLayout& cu, uint32_t rank_u,
                       UserCandidateTable<CandidateBound>* candidates,
                       JoinStats* stats, size_t* colocated = nullptr);

}  // namespace stps

#endif  // STPS_CORE_USER_GRID_H_
