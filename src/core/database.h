// ObjectDatabase: the paper's database D of spatio-textual objects,
// grouped per user into the point sets Du.
//
// Construction goes through DatabaseBuilder, which assigns dense user and
// object ids, computes global token document frequencies, and remaps token
// ids into ascending-frequency order so every stored token set is
// prefix-filter ready.

#ifndef STPS_CORE_DATABASE_H_
#define STPS_CORE_DATABASE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/column.h"
#include "common/macros.h"
#include "common/string_table.h"
#include "spatial/geometry.h"
#include "stjoin/object.h"
#include "text/dictionary.h"

namespace stps {

struct PlannerStats;   // planner/planner_stats.h
class SnapshotLoader;  // io/snapshot_v3.cc

/// Immutable database of spatio-textual objects grouped by user.
///
/// All token sets live in one CSR arena (`token_data_` + `token_begin_`):
/// object i's tokens occupy token_data_[token_begin_[i], token_begin_[i+1])
/// and its STObject::doc span points straight into that buffer, so a user's
/// point set is fully contiguous in memory — object headers in one run,
/// tokens in another. The database is move-only: moving a std::vector
/// keeps its heap buffer, so the spans survive; copying would leave them
/// dangling into the source.
///
/// Physical order is (user, Z-order): within each user's run, objects are
/// sorted by the Morton key of their quantized coordinates (ties keep
/// insertion order), so spatially adjacent objects sit in adjacent slots
/// and the grid cell ranges over them are contiguous. Alongside the AoS
/// `objects_`, the same slot order is mirrored into SoA arrays (`xs_`,
/// `ys_`, `users_`, `sigs_`) that the batched spatial kernels
/// (spatial/batch.h) stream without touching STObject records.
/// ObjectIds are still physical slots; `insertion_order()` maps a slot
/// back to its AddObject sequence number, so external consumers can
/// recover the original input order.
///
/// The flat arrays are Column<T>: owned vectors when built by
/// DatabaseBuilder, borrowed arena views when loaded from an mmap'd v3
/// snapshot (io/binary.h). In the borrowed case `arena_` pins the mapping
/// for the database's lifetime; only the AoS object headers are
/// materialized at load, everything else pages on demand.
class ObjectDatabase {
 public:
  ObjectDatabase() = default;
  ObjectDatabase(const ObjectDatabase&) = delete;
  ObjectDatabase& operator=(const ObjectDatabase&) = delete;
  ObjectDatabase(ObjectDatabase&&) = default;
  ObjectDatabase& operator=(ObjectDatabase&&) = default;

  /// Number of users |U|.
  size_t num_users() const {
    return user_begin_.empty() ? 0 : user_begin_.size() - 1;
  }

  /// Number of objects |D|.
  size_t num_objects() const { return objects_.size(); }

  /// The point set Du of a user, as a contiguous span. The i-th element's
  /// *local index* is i; per-user matched flags are addressed by it.
  std::span<const STObject> UserObjects(UserId u) const {
    STPS_DCHECK(u + 1 < user_begin_.size());
    return std::span<const STObject>(objects_.data() + user_begin_[u],
                                     user_begin_[u + 1] - user_begin_[u]);
  }

  /// |Du|.
  size_t UserObjectCount(UserId u) const {
    STPS_DCHECK(u + 1 < user_begin_.size());
    return user_begin_[u + 1] - user_begin_[u];
  }

  /// All objects, grouped by user (user u occupies one contiguous run).
  std::span<const STObject> AllObjects() const {
    return std::span<const STObject>(objects_);
  }

  /// Object by dense id.
  const STObject& object(ObjectId id) const {
    STPS_DCHECK(id < objects_.size());
    return objects_[id];
  }

  /// The position of `o` within its user's span (object ids are slot
  /// indices into the user-grouped object array).
  uint32_t LocalIndex(const STObject& o) const {
    STPS_DCHECK(o.user + 1 < user_begin_.size());
    return o.id - user_begin_[o.user];
  }

  /// The external label of a user (the key passed to AddObject), useful
  /// for presenting results. The view points into the database's storage
  /// (owned or mapped) and is valid for the database's lifetime.
  std::string_view UserName(UserId u) const {
    STPS_DCHECK(u < user_names_.size());
    return user_names_[u];
  }

  /// Resolves an external user key back to its dense id (the inverse of
  /// UserName; amortized O(1) — the reverse index is built on first use).
  /// Returns false for unknown keys.
  bool FindUser(std::string_view user_key, UserId* out) const {
    return user_names_.Find(user_key, out);
  }

  /// The token set of an object as a view into the CSR arena (same span
  /// as object(id).doc).
  std::span<const TokenId> ObjectTokens(ObjectId id) const {
    STPS_DCHECK(id + 1 < token_begin_.size());
    return std::span<const TokenId>(token_data_.data() + token_begin_[id],
                                    token_begin_[id + 1] - token_begin_[id]);
  }

  /// Total number of stored tokens across all objects (arena size).
  size_t total_tokens() const { return token_data_.size(); }

  /// Bounding rectangle of all object locations.
  const Rect& bounds() const { return bounds_; }

  /// SoA mirrors of the object slots (same indexing as AllObjects()):
  /// xs()[i] == object(i).loc.x etc. The batch kernels stream these.
  std::span<const double> xs() const { return xs_; }
  std::span<const double> ys() const { return ys_; }
  std::span<const UserId> users() const { return users_; }
  std::span<const TokenSignature> sigs() const { return sigs_; }

  /// Permutation table of the Z-order layout: insertion_order()[slot] is
  /// the 0-based AddObject sequence number of the object now stored in
  /// `slot`. Reported ObjectIds are slots; this recovers the input order.
  std::span<const uint32_t> insertion_order() const {
    return insertion_order_;
  }

  /// The token dictionary (finalized by frequency). Token ids stored in
  /// objects index into it.
  const Dictionary& dictionary() const { return dictionary_; }

  /// The build-time statistics summary the query planner reads (dyadic
  /// occupancy ladder, token skew, Table-1 dataset stats; see
  /// planner/planner_stats.h). Computed once by DatabaseBuilder::Build —
  /// ComputeDatasetStats and the planner both read this cache instead of
  /// rescanning. A default-constructed (empty) database has none.
  const PlannerStats& planner_stats() const {
    STPS_DCHECK(planner_stats_ != nullptr);
    return *planner_stats_;
  }
  bool has_planner_stats() const { return planner_stats_ != nullptr; }

 private:
  friend class DatabaseBuilder;
  friend class SnapshotLoader;      // io/snapshot_v3.cc: arena-view loads
  friend class UpdatableDatabase;   // core/update.cc: delta publish splice

  std::vector<STObject> objects_;  // always owned (doc spans -> columns)
  Column<uint32_t> user_begin_;    // size num_users() + 1
  Column<TokenId> token_data_;     // CSR token arena, grouped like objects_
  Column<uint32_t> token_begin_;   // size num_objects() + 1
  Column<double> xs_;              // SoA mirrors, slot-indexed
  Column<double> ys_;
  Column<UserId> users_;
  Column<TokenSignature> sigs_;
  Column<uint32_t> insertion_order_;  // slot -> AddObject sequence
  StringTable user_names_;
  Rect bounds_ = Rect::Empty();
  Dictionary dictionary_;
  // shared_ptr (not unique_ptr): the deleter is type-erased, so the
  // forward declaration above suffices for the implicit special members.
  std::shared_ptr<const PlannerStats> planner_stats_;
  // Keep-alive for borrowed columns (the mmap'd region). Destruction
  // order is irrelevant: no member destructor dereferences a view.
  std::shared_ptr<const void> arena_;
};

/// Accumulates raw objects and produces an ObjectDatabase.
class DatabaseBuilder {
 public:
  DatabaseBuilder() = default;
  STPS_DISALLOW_COPY_AND_ASSIGN(DatabaseBuilder);

  /// Adds one object for the user identified by `user_key` (users are
  /// created on first sight). `keywords` is an arbitrary bag of strings;
  /// duplicates within one object are collapsed. `time` is the optional
  /// timestamp of the temporal extension.
  void AddObject(std::string_view user_key, Point loc,
                 std::span<const std::string_view> keywords,
                 double time = 0.0);

  /// Convenience overload for std::string keyword containers.
  void AddObject(std::string_view user_key, Point loc,
                 std::span<const std::string> keywords, double time = 0.0);

  /// Number of objects added so far.
  size_t size() const { return objects_.size(); }

  /// Finalizes token frequencies, remaps token ids, groups objects by
  /// user, and returns the immutable database. The builder is consumed.
  ObjectDatabase Build() &&;

 private:
  struct PendingObject {
    uint32_t user = 0;
    Point loc;
    double time = 0.0;
    TokenVector tokens;  // provisional ids
  };

  std::unordered_map<std::string, uint32_t> user_index_;
  std::vector<std::string> user_names_;
  std::vector<PendingObject> objects_;
  Dictionary dictionary_;
};

}  // namespace stps

#endif  // STPS_CORE_DATABASE_H_
