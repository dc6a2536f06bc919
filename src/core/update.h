// UpdatableDatabase: incremental insert/delete on top of the immutable
// ObjectDatabase, with epoch/RCU-style snapshots.
//
// The paper's join algorithms run against an immutable, heavily
// layout-optimised ObjectDatabase (user-grouped Z-order slots, CSR token
// arena, SoA mirrors, grid cells, planner stats — see
// DESIGN.md). Those structures are interlinked by spans and prefix sums;
// mutating them in place would invalidate every reader. Instead this
// layer splits the lifecycle in two:
//
//  * A mutable *store* absorbs writes in O(1) amortised per object:
//    per-user slot lists, a slot free list recycling deleted entries, and
//    an interned-token arena whose holes are tracked and periodically
//    compacted. No query ever reads the store.
//  * Publish() produces the next epoch's immutable ObjectDatabase and
//    swaps it in. Small deltas take the O(delta) splice path: only dirty
//    users' blocks (Z-order reorder, SoA mirrors, signatures, planner
//    keys) are rebuilt, everything else is copied from the
//    previous snapshot's columns. Large deltas — or mutations that
//    invalidate a global structure (bounds growth, boundary deletes) —
//    fall back to replaying every survivor through
//    DatabaseBuilder::Build. Both paths produce bit-identical databases;
//    see DESIGN.md §13 for the argument.
//
// Readers obtain `shared_ptr<const DatabaseSnapshot>` and keep it for the
// whole query: writers never block readers, readers never block writers,
// and superseded snapshots stay alive until the last in-flight query
// drops its reference (RCU grace period by shared_ptr refcount).
//
// Correctness contract (enforced by tests/core/update_test.cc): after any
// interleaving of InsertObjects/DeleteUser, the published snapshot is
// *the same database* a fresh DatabaseBuilder::Build over the surviving
// raw objects (in first-insertion order) would produce — so every join /
// top-k variant returns bit-identical results on either.

#ifndef STPS_CORE_UPDATE_H_
#define STPS_CORE_UPDATE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "core/database.h"

namespace stps {

/// One incoming raw object (a check-in): the external user key plus the
/// object payload, exactly what DatabaseBuilder::AddObject accepts.
struct RawObject {
  std::string user;
  Point loc;
  std::vector<std::string> keywords;
  double time = 0.0;
};

/// An immutable, epoch-stamped view of the database. Queries hold the
/// shared_ptr for their whole run; the view never changes underneath
/// them. Epoch 0 is the empty database before the first Publish().
struct DatabaseSnapshot {
  uint64_t epoch = 0;
  ObjectDatabase db;
};

/// Write-side tuning knobs.
struct UpdateOptions {
  /// Auto-publish when this many mutations (inserted or deleted objects)
  /// accumulate since the last publish. 0 disables auto-publish; callers
  /// then control epochs explicitly via Publish().
  size_t publish_threshold = 0;
  /// Compact the token arena / slot array when dead entries exceed this
  /// fraction of their capacity. Compaction is O(live) and amortised by
  /// the fraction; 0 compacts on every delete (useful in tests).
  double compact_fraction = 0.5;
  /// Publish takes the delta path (splice unchanged users' blocks from
  /// the previous snapshot, rebuild only dirty users — see DESIGN.md §13)
  /// while the dirty-user fraction is at most this value; beyond it, or
  /// when a mutation invalidated a global structure (bounds growth /
  /// boundary deletes), Publish falls back to the full rebuild. <= 0
  /// disables the delta path entirely (every publish is a full rebuild).
  double delta_publish_max_fraction = 0.25;
};

/// Write-side observability counters (monotone unless noted).
struct UpdateStats {
  uint64_t objects_inserted = 0;
  uint64_t objects_deleted = 0;
  uint64_t users_deleted = 0;
  uint64_t publishes = 0;
  uint64_t arena_compactions = 0;
  uint64_t slot_compactions = 0;
  /// Publishes that took the delta (splice) path / the full-rebuild path;
  /// delta_publishes + full_publishes == publishes.
  uint64_t delta_publishes = 0;
  uint64_t full_publishes = 0;
  /// Total dirty users across delta publishes (the "delta size" actually
  /// paid for; full publishes don't count here).
  uint64_t dirty_users_published = 0;
  /// Per-user blocks spliced from the previous snapshot vs rebuilt from
  /// the store. Full publishes count every user as rebuilt.
  uint64_t blocks_reused = 0;
  uint64_t blocks_rebuilt = 0;
  /// Wall-clock of the most recent publish and which path it took
  /// (not monotone; meaningless until the first publish).
  double last_publish_ms = 0.0;
  bool last_publish_delta = false;
};

/// Human-readable one-per-line rendering of UpdateStats (the CLI
/// `--explain` / server diagnostics format).
std::string FormatUpdateStats(const UpdateStats& stats);

/// Outcome of a publish attempt (PublishIfDirty): the snapshot to read,
/// whether this call produced it, and how.
struct PublishResult {
  std::shared_ptr<const DatabaseSnapshot> snapshot;
  /// True when this call built and swapped in a new epoch; false when the
  /// store was clean and `snapshot` is the pre-existing epoch.
  bool published = false;
  /// Valid when `published`: true = delta (splice) path, false = full.
  bool delta = false;
  /// Valid when `published`: wall-clock milliseconds of the build+swap.
  double publish_ms = 0.0;
};

/// Mutable database front end. Thread safety: any number of concurrent
/// readers (snapshot()) against any number of concurrent writers
/// (InsertObjects / DeleteUser / Publish); writers serialise on an
/// internal mutex, readers only touch the snapshot pointer.
class UpdatableDatabase {
 public:
  explicit UpdatableDatabase(UpdateOptions options = {});
  ~UpdatableDatabase() = default;
  STPS_DISALLOW_COPY_AND_ASSIGN(UpdatableDatabase);

  /// Seeds the store with every object of `db` (in its original insertion
  /// order, recovered through db.insertion_order()) and publishes a new
  /// epoch, which is equivalent to `db` itself. Intended for loading an
  /// initial dataset into a fresh instance.
  void SeedFrom(const ObjectDatabase& db);

  /// Inserts one object / a batch of objects. O(tokens) each, amortised.
  void InsertObject(const RawObject& object);
  void InsertObjects(std::span<const RawObject> objects);

  /// Deletes a user's entire point set. Returns false when the user does
  /// not exist (or holds no live objects); the store is unchanged then.
  /// Freed slots and token ranges go onto free lists for reuse; heavily
  /// fragmented storage is compacted per UpdateOptions::compact_fraction.
  bool DeleteUser(std::string_view user_key);

  /// The latest published snapshot. Never null; epoch 0 / empty database
  /// before the first Publish. Wait-free with respect to writers apart
  /// from the pointer copy.
  std::shared_ptr<const DatabaseSnapshot> snapshot() const;

  /// Builds and publishes a new epoch from the current store contents,
  /// even when nothing changed. Returns the new snapshot.
  std::shared_ptr<const DatabaseSnapshot> Publish();

  /// Publishes only when mutations happened since the last publish;
  /// otherwise returns the current snapshot unchanged. The result says
  /// whether an epoch was produced, which path built it, and how long it
  /// took — the server PUBLISH reply forwards all three.
  PublishResult PublishIfDirty();

  /// True when mutations are pending that no snapshot reflects yet.
  bool dirty() const;

  /// Live (surviving) object count in the store — counts pending
  /// mutations, unlike snapshot()->db.num_objects().
  size_t live_objects() const;

  /// Number of users with at least one live object.
  size_t live_users() const;

  /// Epoch of the latest published snapshot.
  uint64_t epoch() const;

  /// Copy of the write-side counters.
  UpdateStats stats() const;

 private:
  // One stored object. Tokens live in token_arena_[token_begin,
  // token_begin + token_count) as sorted unique interned ids; dead slots
  // keep their extents until compaction reclaims them.
  struct Slot {
    uint32_t user = 0;        // index into users_
    Point loc;
    double time = 0.0;
    uint64_t seq = 0;         // global insertion sequence number
    uint32_t token_begin = 0;
    uint32_t token_count = 0;
    bool live = false;
  };

  struct UserEntry {
    std::string key;
    std::vector<uint32_t> slots;  // live slot ids of this user's set
  };

  // Outputs of a publish body that RefreshAfterPublishLocked adopts. The
  // planner pairs are maintained by both paths; the two id mappings are
  // filled only by the delta path (which computes them anyway), letting
  // the refresh skip the per-user / per-token hash lookups the full path
  // needs. Empty vectors mean "resolve through the indexes".
  struct PublishScaffold {
    // The published (ZOrderKey, user) pair per object, sorted by key.
    std::vector<std::pair<uint64_t, UserId>> planner_pairs;
    // Store user -> published id (size users_.size(), kNone for users
    // with no published objects).
    std::vector<uint32_t> user_ids;
    // Published dictionary id -> store token id.
    std::vector<uint32_t> dict_store_ids;
  };

  // All private helpers expect mutex_ held.
  uint32_t InternUser(std::string_view key);
  uint32_t InternToken(std::string_view token);
  void InsertLocked(const RawObject& object);
  void MaybeCompactLocked();
  void CompactArenaLocked();
  void CompactSlotsLocked();
  PublishResult PublishLocked();
  void PublishThresholdLocked();
  // True when the pending delta qualifies for the splice path against the
  // current snapshot (fraction threshold, no blocking mutations).
  bool CanDeltaPublishLocked() const;
  // The two publish bodies. Both return the built database and leave the
  // refresh inputs in *out (see PublishScaffold).
  ObjectDatabase BuildFullLocked(PublishScaffold* out);
  ObjectDatabase BuildDeltaLocked(const ObjectDatabase& prev,
                                  PublishScaffold* out);
  // Post-build bookkeeping shared by both paths: store-user -> published
  // id map, dict-id -> store-token map, dirty-set reset, planner pair
  // adoption, publish_seq_ advance.
  void RefreshAfterPublishLocked(const ObjectDatabase& db,
                                 PublishScaffold scaffold);
  // Marks a store user dirty (idempotent within one publish window).
  void MarkUserDirtyLocked(uint32_t user);
  // Marks a token's document frequency as changed since the last publish
  // (idempotent): the delta path re-sorts exactly these tokens and
  // splices the rest of the dictionary order.
  void MarkTokenDirtyLocked(uint32_t token);

  const UpdateOptions options_;

  mutable std::mutex mutex_;  // guards the store (everything below)
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;   // recycled dead slot ids
  std::vector<TokenId> token_arena_;   // store-local interned token ids
  size_t dead_tokens_ = 0;             // arena entries owned by dead slots
  std::vector<UserEntry> users_;
  std::unordered_map<std::string, uint32_t> user_index_;
  std::vector<std::string> token_strings_;  // store-local id -> string
  std::unordered_map<std::string, uint32_t> token_index_;
  uint64_t next_seq_ = 0;
  size_t pending_mutations_ = 0;
  UpdateStats stats_;

  // Delta-publish bookkeeping (see DESIGN.md §13). Store-local token ids
  // are stable for the store's lifetime (compaction never renumbers
  // them), so token_df_ is a plain parallel array.
  std::vector<uint32_t> token_df_;     // live document frequency per token
  // Tokens whose df changed since the last publish (flag + dense list,
  // reset by RefreshAfterPublishLocked). Everything *not* here kept its
  // (df, string) sort key, so the previous dictionary order splices.
  std::vector<uint8_t> token_dirty_;
  std::vector<uint32_t> dirty_token_list_;
  // Current snapshot's dictionary id -> store token id. Rebuilt on every
  // publish; the delta path composes prev->new token maps through it
  // instead of string hashing.
  std::vector<uint32_t> dict_store_ids_;
  std::vector<uint8_t> user_dirty_;    // store user touched since publish
  size_t dirty_users_ = 0;             // count of set user_dirty_ flags
  bool delta_blocked_ = false;         // a mutation forced the next
                                       // publish onto the full path
  uint64_t publish_seq_ = 0;           // next_seq_ at the last publish
  // Store user -> dense id in the current snapshot (UINT32_MAX when the
  // user has no published objects). Rebuilt on every publish.
  std::vector<uint32_t> user_prev_id_;
  // The snapshot's (ZOrderKey, user) pair per object, sorted by key: the
  // planner-stats input, maintained across delta publishes by filtering
  // out dirty users' pairs and merging in their recomputed ones.
  std::vector<std::pair<uint64_t, UserId>> planner_keys_;

  mutable std::mutex snapshot_mutex_;  // guards snapshot_ only
  std::shared_ptr<const DatabaseSnapshot> snapshot_;
};

}  // namespace stps

#endif  // STPS_CORE_UPDATE_H_
