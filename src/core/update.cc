#include "core/update.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/timer.h"
#include "planner/planner_stats.h"
#include "spatial/batch.h"
#include "text/dictionary.h"
#include "text/token_set.h"

namespace stps {

namespace {
constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
}  // namespace

std::string FormatUpdateStats(const UpdateStats& stats) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "objects: inserted=%llu deleted=%llu users_deleted=%llu\n"
      "publishes: total=%llu delta=%llu full=%llu dirty_users=%llu\n"
      "blocks: reused=%llu rebuilt=%llu\n"
      "last publish: %s, %.3f ms\n"
      "compactions: arena=%llu slots=%llu",
      static_cast<unsigned long long>(stats.objects_inserted),
      static_cast<unsigned long long>(stats.objects_deleted),
      static_cast<unsigned long long>(stats.users_deleted),
      static_cast<unsigned long long>(stats.publishes),
      static_cast<unsigned long long>(stats.delta_publishes),
      static_cast<unsigned long long>(stats.full_publishes),
      static_cast<unsigned long long>(stats.dirty_users_published),
      static_cast<unsigned long long>(stats.blocks_reused),
      static_cast<unsigned long long>(stats.blocks_rebuilt),
      stats.publishes == 0 ? "none"
      : stats.last_publish_delta ? "delta"
                                 : "full",
      stats.last_publish_ms,
      static_cast<unsigned long long>(stats.arena_compactions),
      static_cast<unsigned long long>(stats.slot_compactions));
  return std::string(buf);
}

UpdatableDatabase::UpdatableDatabase(UpdateOptions options)
    : options_(options) {
  // Epoch 0 is a *built* empty database, not a default-constructed one:
  // queries rely on Build()'s invariants (user_begin_ sentinel, planner
  // stats) even when the database holds nothing yet.
  auto initial = std::make_shared<DatabaseSnapshot>();
  DatabaseBuilder builder;
  initial->db = std::move(builder).Build();
  snapshot_ = std::move(initial);
}

uint32_t UpdatableDatabase::InternUser(std::string_view key) {
  auto [it, inserted] = user_index_.try_emplace(
      std::string(key), static_cast<uint32_t>(users_.size()));
  if (inserted) {
    users_.push_back(UserEntry{std::string(key), {}});
  }
  return it->second;
}

uint32_t UpdatableDatabase::InternToken(std::string_view token) {
  auto [it, inserted] = token_index_.try_emplace(
      std::string(token), static_cast<uint32_t>(token_strings_.size()));
  if (inserted) {
    token_strings_.emplace_back(token);
    token_df_.push_back(0);
    token_dirty_.push_back(0);
  }
  return it->second;
}

void UpdatableDatabase::MarkTokenDirtyLocked(uint32_t token) {
  if (!token_dirty_[token]) {
    token_dirty_[token] = 1;
    dirty_token_list_.push_back(token);
  }
}

void UpdatableDatabase::MarkUserDirtyLocked(uint32_t user) {
  if (user >= user_dirty_.size()) user_dirty_.resize(users_.size(), 0);
  if (!user_dirty_[user]) {
    user_dirty_[user] = 1;
    ++dirty_users_;
  }
}

void UpdatableDatabase::InsertLocked(const RawObject& object) {
  // Intern, sort, and dedup the keyword set up front (AddObject collapses
  // duplicates the same way, so publishing the normalized set builds the
  // same database as publishing the raw one).
  TokenVector tokens;
  tokens.reserve(object.keywords.size());
  for (const std::string& kw : object.keywords) {
    tokens.push_back(InternToken(kw));
  }
  NormalizeTokenSet(&tokens);
  // Document frequency counts each token once per (normalized) object —
  // the same accounting DatabaseBuilder::AddObject performs, maintained
  // here incrementally so the delta path can rebuild the dictionary
  // without re-interning every survivor.
  for (const TokenId t : tokens) {
    ++token_df_[t];
    MarkTokenDirtyLocked(t);
  }

  // An insert outside the published bounds grows them, which would shift
  // every Z-order key — only a full rebuild can absorb that. Inserts inside (or on) the bounds leave them untouched.
  // Safe without snapshot_mutex_: snapshot_ is only ever reassigned under
  // mutex_, which this thread holds.
  const Rect& bounds = snapshot_->db.bounds();
  if (bounds.IsEmpty() || !bounds.Contains(object.loc)) {
    delta_blocked_ = true;
  }

  uint32_t slot_id;
  if (!free_slots_.empty()) {
    slot_id = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot_id = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[slot_id];
  slot.user = InternUser(object.user);
  slot.loc = object.loc;
  slot.time = object.time;
  slot.seq = next_seq_++;
  slot.token_begin = static_cast<uint32_t>(token_arena_.size());
  slot.token_count = static_cast<uint32_t>(tokens.size());
  slot.live = true;
  token_arena_.insert(token_arena_.end(), tokens.begin(), tokens.end());
  users_[slot.user].slots.push_back(slot_id);
  MarkUserDirtyLocked(slot.user);
  ++stats_.objects_inserted;
  ++pending_mutations_;
}

void UpdatableDatabase::InsertObject(const RawObject& object) {
  InsertObjects(std::span<const RawObject>(&object, 1));
}

void UpdatableDatabase::InsertObjects(std::span<const RawObject> objects) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const RawObject& object : objects) InsertLocked(object);
  PublishThresholdLocked();
}

bool UpdatableDatabase::DeleteUser(std::string_view user_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = user_index_.find(std::string(user_key));
  if (it == user_index_.end()) return false;
  UserEntry& user = users_[it->second];
  if (user.slots.empty()) return false;
  const Rect& bounds = snapshot_->db.bounds();  // safe, see InsertLocked
  for (const uint32_t slot_id : user.slots) {
    Slot& slot = slots_[slot_id];
    STPS_DCHECK(slot.live);
    slot.live = false;
    dead_tokens_ += slot.token_count;
    for (uint32_t i = 0; i < slot.token_count; ++i) {
      const TokenId t = token_arena_[slot.token_begin + i];
      STPS_DCHECK(token_df_[t] > 0);
      --token_df_[t];
      MarkTokenDirtyLocked(t);
    }
    // Deleting a point that sits on the published bounds boundary can
    // shrink the survivors' bounds; interior deletes cannot (the extreme
    // points still survive), so only boundary deletes block the delta
    // path. min/max are exact over the fold order, so "no boundary
    // deletes and no out-of-bounds inserts" proves bounds equality.
    if (!bounds.IsEmpty() &&
        (slot.loc.x == bounds.min_x || slot.loc.x == bounds.max_x ||
         slot.loc.y == bounds.min_y || slot.loc.y == bounds.max_y)) {
      delta_blocked_ = true;
    }
    free_slots_.push_back(slot_id);
    ++stats_.objects_deleted;
    ++pending_mutations_;
  }
  user.slots.clear();
  MarkUserDirtyLocked(it->second);
  ++stats_.users_deleted;
  MaybeCompactLocked();
  PublishThresholdLocked();
  return true;
}

void UpdatableDatabase::MaybeCompactLocked() {
  if (dead_tokens_ >
      options_.compact_fraction * static_cast<double>(token_arena_.size())) {
    CompactArenaLocked();
  }
  if (static_cast<double>(free_slots_.size()) >
      options_.compact_fraction * static_cast<double>(slots_.size())) {
    CompactSlotsLocked();
  }
}

void UpdatableDatabase::CompactArenaLocked() {
  // Rewrite the arena keeping only live extents. Live runs are copied in
  // slot order (the arena's order is irrelevant to publishing, which
  // walks slots); extents shrink-to-front so no slot ever overlaps the
  // region still to be copied.
  std::vector<TokenId> packed;
  packed.reserve(token_arena_.size() - dead_tokens_);
  for (Slot& slot : slots_) {
    if (!slot.live) continue;
    const uint32_t begin = static_cast<uint32_t>(packed.size());
    packed.insert(packed.end(), token_arena_.begin() + slot.token_begin,
                  token_arena_.begin() + slot.token_begin + slot.token_count);
    slot.token_begin = begin;
  }
  token_arena_ = std::move(packed);
  dead_tokens_ = 0;
  ++stats_.arena_compactions;
}

void UpdatableDatabase::CompactSlotsLocked() {
  // Drop dead slots, renumbering the live ones in place (stable, so seq
  // order within the array is preserved) and rewriting the per-user slot
  // lists to the new ids.
  std::vector<uint32_t> remap(slots_.size(), 0);
  size_t next = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].live) continue;
    remap[i] = static_cast<uint32_t>(next);
    if (next != i) slots_[next] = std::move(slots_[i]);
    ++next;
  }
  slots_.resize(next);
  free_slots_.clear();
  for (UserEntry& user : users_) {
    for (uint32_t& slot_id : user.slots) slot_id = remap[slot_id];
  }
  ++stats_.slot_compactions;
}

bool UpdatableDatabase::CanDeltaPublishLocked() const {
  if (options_.delta_publish_max_fraction <= 0.0) return false;
  if (delta_blocked_) return false;
  const ObjectDatabase& prev = snapshot_->db;
  if (prev.num_users() == 0) return false;  // epoch 0 / emptied database
  const double fraction = static_cast<double>(dirty_users_) /
                          static_cast<double>(prev.num_users());
  return fraction <= options_.delta_publish_max_fraction;
}

ObjectDatabase UpdatableDatabase::BuildFullLocked(PublishScaffold* out) {
  // Surviving objects replay through DatabaseBuilder in their original
  // insertion order, which makes the published database definitionally
  // identical to a fresh build of the survivors — Build() refreshes the
  // Z-order layout, CSR arena, SoA mirrors, signatures and PlannerStats
  // in one pass.
  std::vector<const Slot*> live;
  live.reserve(slots_.size() - free_slots_.size());
  for (const Slot& slot : slots_) {
    if (slot.live) live.push_back(&slot);
  }
  std::sort(live.begin(), live.end(),
            [](const Slot* a, const Slot* b) { return a->seq < b->seq; });

  DatabaseBuilder builder;
  std::vector<std::string_view> keywords;
  for (const Slot* slot : live) {
    keywords.clear();
    for (uint32_t i = 0; i < slot->token_count; ++i) {
      keywords.push_back(token_strings_[token_arena_[slot->token_begin + i]]);
    }
    builder.AddObject(users_[slot->user].key, slot->loc,
                      std::span<const std::string_view>(keywords),
                      slot->time);
  }
  ObjectDatabase db = std::move(builder).Build();

  // (Re)seed the maintained planner pairs from the fresh database. The
  // id mappings stay empty: RefreshAfterPublishLocked resolves them
  // through the indexes on the full path.
  out->planner_pairs.clear();
  out->planner_pairs.reserve(db.num_objects());
  for (const STObject& o : db.AllObjects()) {
    out->planner_pairs.emplace_back(ZOrderKey(db.bounds(), o.loc), o.user);
  }
  std::sort(out->planner_pairs.begin(), out->planner_pairs.end());
  return db;
}

ObjectDatabase UpdatableDatabase::BuildDeltaLocked(const ObjectDatabase& prev,
                                                   PublishScaffold* out) {
  const bool profile = std::getenv("STPS_DELTA_PROFILE") != nullptr;
  Timer stage_timer;
  double last_elapsed = 0.0;
  const auto stage = [&](const char* name) {
    if (!profile) return;
    const double now = stage_timer.ElapsedMillis();
    std::fprintf(stderr, "  delta stage %-12s %8.3f ms\n", name,
                 now - last_elapsed);
    last_elapsed = now;
  };
  // The O(delta) publish path: rebuild dirty users' blocks from the
  // store, splice every other user's columns from `prev`. Bit-identity
  // with BuildFullLocked rests on three facts the guards established:
  //  * bounds are unchanged (no out-of-bounds insert, no boundary
  //    delete), so Z-order keys are unchanged;
  //  * only whole-user deletes exist, so a retained user kept all its
  //    previous objects — its block survives verbatim modulo token-id
  //    remapping and replay-rank compaction;
  //  * token dfs are maintained exactly as AddObject counts them, so the
  //    rebuilt dictionary is the one a fresh build would finalize.

  // --- 1. Classify store users and fix the new user ordering. ---
  // Fresh-build user ids follow first appearance in the survivor replay.
  // Retained users (first live slot predates the last publish) replay
  // their previous first object, so they keep their relative prev-id
  // order and all precede every fresh user (whose objects are all
  // pending); fresh users order by their first pending seq.
  struct NewUser {
    uint32_t store = 0;     // index into users_
    uint32_t prev = kNone;  // id in `prev` (retained users only)
    bool dirty = false;
  };
  std::vector<NewUser> new_users;
  std::vector<std::pair<uint64_t, uint32_t>> fresh;  // (first seq, store u)
  for (uint32_t u = 0; u < users_.size(); ++u) {
    if (users_[u].slots.empty()) continue;
    const bool dirty = u < user_dirty_.size() && user_dirty_[u] != 0;
    const uint64_t first_seq = slots_[users_[u].slots.front()].seq;
    if (first_seq < publish_seq_) {
      STPS_CHECK(u < user_prev_id_.size() && user_prev_id_[u] != kNone);
      new_users.push_back(NewUser{u, user_prev_id_[u], dirty});
    } else {
      STPS_DCHECK(dirty);  // fresh users were inserted into post-publish
      fresh.emplace_back(first_seq, u);
    }
  }
  std::sort(
      new_users.begin(), new_users.end(),
      [](const NewUser& a, const NewUser& b) { return a.prev < b.prev; });
  std::sort(fresh.begin(), fresh.end());
  for (const auto& [seq, u] : fresh) {
    new_users.push_back(NewUser{u, kNone, true});
  }
  const size_t num_users = new_users.size();

  // prev id -> new id for *clean* retained users (planner-pair
  // rewrites); prev_retained additionally covers dirty
  // retained users (their previous objects survive, their blocks don't).
  std::vector<uint32_t> prev_to_new_user(prev.num_users(), kNone);
  std::vector<uint8_t> prev_retained(prev.num_users(), 0);
  size_t clean_count = 0;
  for (uint32_t nu = 0; nu < num_users; ++nu) {
    const NewUser& info = new_users[nu];
    if (info.prev == kNone) continue;
    prev_retained[info.prev] = 1;
    if (!info.dirty) {
      prev_to_new_user[info.prev] = nu;
      ++clean_count;
    }
  }
  stats_.blocks_reused += clean_count;
  stats_.blocks_rebuilt += num_users - clean_count;

  stage("classify");
  // --- 2. Dictionary splice from the maintained live dfs. ---
  // Exactly FinalizeByFrequency's order: ascending (df, string). A token
  // whose df did not move since the last publish kept its sort key, so
  // the previous dictionary order — filtered of dirty tokens — is a
  // sorted subsequence of the new order; only the dirty live tokens are
  // re-sorted and merged in. Keys are unique (strings are), so the merge
  // reproduces the full sort without touching O(V log V) comparisons.
  const Dictionary& prev_dict = prev.dictionary();
  STPS_DCHECK(dict_store_ids_.size() == prev_dict.size());
  std::vector<uint32_t> changed;
  changed.reserve(dirty_token_list_.size());
  for (const uint32_t t : dirty_token_list_) {
    if (token_df_[t] > 0) changed.push_back(t);
  }
  const auto token_less = [this](uint32_t a, uint32_t b) {
    if (token_df_[a] != token_df_[b]) return token_df_[a] < token_df_[b];
    return token_strings_[a] < token_strings_[b];
  };
  std::sort(changed.begin(), changed.end(), token_less);
  std::vector<uint32_t>& dict_store_ids = out->dict_store_ids;
  dict_store_ids.clear();
  dict_store_ids.reserve(dict_store_ids_.size() + changed.size());
  size_t ci = 0;
  for (const uint32_t s : dict_store_ids_) {
    if (token_dirty_[s]) continue;  // re-emitted from `changed` if live
    while (ci < changed.size() && token_less(changed[ci], s)) {
      dict_store_ids.push_back(changed[ci++]);
    }
    dict_store_ids.push_back(s);
  }
  while (ci < changed.size()) dict_store_ids.push_back(changed[ci++]);

  std::vector<std::string> dict_strings;
  std::vector<uint64_t> dict_freq;
  dict_strings.reserve(dict_store_ids.size());
  dict_freq.reserve(dict_store_ids.size());
  std::vector<TokenId> store_to_new(token_df_.size(), kNone);
  for (uint32_t i = 0; i < dict_store_ids.size(); ++i) {
    const uint32_t t = dict_store_ids[i];
    STPS_DCHECK(token_df_[t] > 0);
    store_to_new[t] = static_cast<TokenId>(i);
    dict_strings.push_back(token_strings_[t]);
    dict_freq.push_back(token_df_[t]);
  }
  stage("dict-sort");
  // prev token id -> new token id: a pure array composition through the
  // maintained store ids. kNone for tokens whose last surviving
  // occurrence was deleted — those are only ever referenced by blocks we
  // rebuild from the store anyway.
  std::vector<TokenId> prev_to_new_token(prev_dict.size(), kNone);
  for (TokenId pt = 0; pt < prev_dict.size(); ++pt) {
    prev_to_new_token[pt] = store_to_new[dict_store_ids_[pt]];
  }

  stage("dict-remap");
  // --- 3. Replay-rank scaffolding. ---
  // insertion_order() values are ranks in the survivor replay: previous
  // survivors keep their previous replay order compacted over deleted
  // users' objects; pending inserts follow, in seq order.
  const size_t n_prev = prev.num_objects();
  const std::span<const uint32_t> prev_io = prev.insertion_order();
  const std::span<const UserId> prev_user_col = prev.users();
  std::vector<uint8_t> survived(n_prev, 0);
  for (size_t s = 0; s < n_prev; ++s) {
    survived[prev_io[s]] = prev_retained[prev_user_col[s]];
  }
  std::vector<uint32_t> compact(n_prev, 0);  // prev rank -> survivor rank
  uint32_t r_surv = 0;
  for (size_t r = 0; r < n_prev; ++r) {
    compact[r] = r_surv;
    r_surv += survived[r];
  }
  std::vector<uint64_t> pending_seqs;
  for (const Slot& slot : slots_) {
    if (slot.live && slot.seq >= publish_seq_) {
      pending_seqs.push_back(slot.seq);
    }
  }
  std::sort(pending_seqs.begin(), pending_seqs.end());
  const auto replay_of_seq = [&](uint64_t seq) {
    const auto it =
        std::lower_bound(pending_seqs.begin(), pending_seqs.end(), seq);
    STPS_DCHECK(it != pending_seqs.end() && *it == seq);
    return r_surv + static_cast<uint32_t>(it - pending_seqs.begin());
  };

  stage("scaffold");
  // --- 4. Per-user blocks: slot plan, counts, token extents. ---
  const Rect& bounds = prev.bounds();
  std::vector<uint32_t> user_begin(num_users + 1, 0);
  for (uint32_t nu = 0; nu < num_users; ++nu) {
    const NewUser& info = new_users[nu];
    const uint32_t count =
        info.dirty ? static_cast<uint32_t>(users_[info.store].slots.size())
                   : static_cast<uint32_t>(prev.UserObjectCount(info.prev));
    user_begin[nu + 1] = user_begin[nu] + count;
  }
  const size_t n = user_begin.back();
  STPS_CHECK(n == r_surv + pending_seqs.size());

  std::vector<uint32_t> insertion_order(n, 0);
  std::vector<uint32_t> store_slot_of(n, kNone);  // dirty blocks only
  std::vector<uint32_t> prev_slot_of(n, kNone);   // clean blocks only
  std::vector<uint32_t> token_begin(n + 1, 0);
  std::vector<uint32_t> block_ranks;                       // scratch
  std::vector<uint32_t> replay;                            // scratch
  std::vector<std::pair<uint64_t, uint32_t>> slot_order;   // scratch
  for (uint32_t nu = 0; nu < num_users; ++nu) {
    const NewUser& info = new_users[nu];
    const uint32_t base = user_begin[nu];
    if (!info.dirty) {
      // Splice: the block keeps its previous physical (Z-order) layout —
      // same point set, same bounds, same keys.
      const uint32_t pb = prev.user_begin_[info.prev];
      const uint32_t pe = prev.user_begin_[info.prev + 1];
      for (uint32_t i = 0; i < pe - pb; ++i) {
        prev_slot_of[base + i] = pb + i;
        insertion_order[base + i] = compact[prev_io[pb + i]];
        token_begin[base + i + 1] =
            prev.token_begin_[pb + i + 1] - prev.token_begin_[pb + i];
      }
      continue;
    }
    // Rebuild: the store's slot list is in seq order. A dirty retained
    // user's first |prev block| slots are its previous objects, and the
    // block's sorted previous replay ranks align 1:1 with that seq-
    // ordered prefix (whole-user deletes: the user kept everything).
    const std::vector<uint32_t>& slot_ids = users_[info.store].slots;
    const size_t k = slot_ids.size();
    replay.resize(k);
    size_t prev_count = 0;
    if (info.prev != kNone) {
      const uint32_t pb = prev.user_begin_[info.prev];
      const uint32_t pe = prev.user_begin_[info.prev + 1];
      block_ranks.assign(prev_io.begin() + pb, prev_io.begin() + pe);
      std::sort(block_ranks.begin(), block_ranks.end());
      prev_count = block_ranks.size();
      STPS_CHECK(prev_count <= k);
    }
    slot_order.clear();
    slot_order.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      const Slot& slot = slots_[slot_ids[i]];
      if (i < prev_count) {
        STPS_DCHECK(slot.seq < publish_seq_);
        replay[i] = compact[block_ranks[i]];
      } else {
        STPS_DCHECK(slot.seq >= publish_seq_);
        replay[i] = replay_of_seq(slot.seq);
      }
      slot_order.emplace_back(ZOrderKey(bounds, slot.loc),
                              static_cast<uint32_t>(i));
    }
    // Physical order within the block: (zkey, replay) — replay is
    // monotone in list position, so a stable sort by key matches the
    // builder's stable sort over replay-ordered input.
    std::stable_sort(slot_order.begin(), slot_order.end(),
                     [](const std::pair<uint64_t, uint32_t>& a,
                        const std::pair<uint64_t, uint32_t>& b) {
                       return a.first < b.first;
                     });
    for (size_t j = 0; j < k; ++j) {
      const uint32_t idx = slot_order[j].second;
      store_slot_of[base + j] = slot_ids[idx];
      insertion_order[base + j] = replay[idx];
      token_begin[base + j + 1] = slots_[slot_ids[idx]].token_count;
    }
  }
  for (size_t i = 0; i < n; ++i) token_begin[i + 1] += token_begin[i];

  stage("blocks");
  // --- 5. Token arena: gather + remap, re-sorting only when the id
  // permutation reordered an object's set. ---
  std::vector<TokenId> token_data(token_begin.back());
  for (size_t i = 0; i < n; ++i) {
    TokenId* dst = token_data.data() + token_begin[i];
    const size_t count = token_begin[i + 1] - token_begin[i];
    if (prev_slot_of[i] != kNone) {
      const uint32_t ps = prev_slot_of[i];
      const TokenId* src = prev.token_data_.data() + prev.token_begin_[ps];
      for (size_t t = 0; t < count; ++t) {
        STPS_DCHECK(prev_to_new_token[src[t]] != kNone);
        dst[t] = prev_to_new_token[src[t]];
      }
    } else {
      const Slot& slot = slots_[store_slot_of[i]];
      const TokenId* src = token_arena_.data() + slot.token_begin;
      for (size_t t = 0; t < count; ++t) {
        STPS_DCHECK(store_to_new[src[t]] != kNone);
        dst[t] = store_to_new[src[t]];
      }
    }
    if (!std::is_sorted(dst, dst + count)) std::sort(dst, dst + count);
  }

  stage("arena");
  // --- 6. Assemble the database: columns, AoS objects, SoA mirrors. ---
  ObjectDatabase db;
  db.bounds_ = bounds;
  db.dictionary_ = Dictionary::FromSortedEntries(std::move(dict_strings),
                                                 std::move(dict_freq));
  db.user_begin_ = std::move(user_begin);
  db.token_begin_ = std::move(token_begin);
  db.token_data_ = std::move(token_data);

  // No user appeared or disappeared (the common delta): every retained
  // user keeps its previous id (retained users precede fresh ones and
  // sort by prev id), so the name table is element-wise the previous
  // one — share it. StringTable copies are O(1) (shared string storage),
  // and the already-built lazy Find index rides along. Otherwise build
  // the names fresh, leaving the name -> id index to StringTable's lazy
  // (call_once) build: the first FindUser pays it, not the publish.
  // Either way serialization and equality only see the strings.
  if (fresh.empty() && num_users == prev.num_users()) {
    db.user_names_ = prev.user_names_;
  } else {
    std::vector<std::string> names(num_users);
    for (uint32_t nu = 0; nu < num_users; ++nu) {
      names[nu] = users_[new_users[nu].store].key;
    }
    db.user_names_ = StringTable(std::move(names));
  }
  stage("names");

  std::vector<double> xs(n), ys(n);
  std::vector<UserId> users_col(n);
  std::vector<TokenSignature> sigs(n);
  db.objects_.resize(n);
  for (uint32_t nu = 0; nu < num_users; ++nu) {
    const uint32_t begin = db.user_begin_[nu];
    const uint32_t end = db.user_begin_[nu + 1];
    for (uint32_t i = begin; i < end; ++i) {
      STObject& out = db.objects_[i];
      out.id = static_cast<ObjectId>(i);
      out.user = nu;
      if (prev_slot_of[i] != kNone) {
        const STObject& po = prev.objects_[prev_slot_of[i]];
        out.loc = po.loc;
        out.time = po.time;
      } else {
        const Slot& slot = slots_[store_slot_of[i]];
        out.loc = slot.loc;
        out.time = slot.time;
      }
      // Signatures hash token *ids*, which the dictionary rebuild may
      // have shifted even for clean users — recompute for everyone
      // (multiply-shift per token, negligible next to a full rebuild).
      out.set_doc(db.ObjectTokens(i));
      xs[i] = out.loc.x;
      ys[i] = out.loc.y;
      users_col[i] = nu;
      sigs[i] = out.sig;
    }
  }
  db.xs_ = std::move(xs);
  db.ys_ = std::move(ys);
  db.users_ = std::move(users_col);
  db.sigs_ = std::move(sigs);
  db.insertion_order_ = std::move(insertion_order);

  stage("assemble");
  // --- 7. Planner stats from the maintained key multiset: drop dirty /
  // deleted users' pairs, rewrite clean users' ids, merge in the dirty
  // users' recomputed pairs. Keys are bounds-relative and bounds are
  // unchanged, so kept keys are exact. ---
  STPS_DCHECK(planner_keys_.size() == n_prev);
  std::vector<std::pair<uint64_t, UserId>> kept;
  kept.reserve(planner_keys_.size());
  for (const auto& [key, pu] : planner_keys_) {
    const uint32_t nu = prev_to_new_user[pu];
    if (nu == kNone) continue;
    kept.emplace_back(key, nu);
  }
  std::vector<std::pair<uint64_t, UserId>> dirty_pairs;
  for (size_t i = 0; i < n; ++i) {
    if (store_slot_of[i] == kNone) continue;
    dirty_pairs.emplace_back(ZOrderKey(bounds, db.objects_[i].loc),
                             db.objects_[i].user);
  }
  std::sort(dirty_pairs.begin(), dirty_pairs.end());
  out->planner_pairs.resize(kept.size() + dirty_pairs.size());
  std::merge(kept.begin(), kept.end(), dirty_pairs.begin(),
             dirty_pairs.end(), out->planner_pairs.begin(),
             [](const std::pair<uint64_t, UserId>& a,
                const std::pair<uint64_t, UserId>& b) {
               return a.first < b.first;
             });
  std::vector<uint64_t> sorted_keys(out->planner_pairs.size());
  for (size_t i = 0; i < out->planner_pairs.size(); ++i) {
    sorted_keys[i] = out->planner_pairs[i].first;
  }
  stage("planner-merge");
  db.planner_stats_ = std::make_shared<const PlannerStats>(
      ComputePlannerStats(db, sorted_keys));
  stage("planner-stats");

  // The build already knows every store user's published id — hand the
  // mapping to the refresh so it skips the per-user name lookups.
  out->user_ids.assign(users_.size(), kNone);
  for (uint32_t nu = 0; nu < num_users; ++nu) {
    out->user_ids[new_users[nu].store] = nu;
  }
  return db;
}

void UpdatableDatabase::RefreshAfterPublishLocked(const ObjectDatabase& db,
                                                  PublishScaffold scaffold) {
  planner_keys_ = std::move(scaffold.planner_pairs);
  if (scaffold.user_ids.size() == users_.size()) {
    user_prev_id_ = std::move(scaffold.user_ids);
  } else {
    user_prev_id_.assign(users_.size(), kNone);
    for (uint32_t u = 0; u < users_.size(); ++u) {
      if (users_[u].slots.empty()) continue;
      uint32_t id = 0;
      const bool found = db.FindUser(users_[u].key, &id);
      STPS_CHECK(found);
      user_prev_id_[u] = id;
    }
  }
  const Dictionary& dict = db.dictionary();
  if (scaffold.dict_store_ids.size() == dict.size() &&
      !scaffold.dict_store_ids.empty()) {
    dict_store_ids_ = std::move(scaffold.dict_store_ids);
  } else {
    // Full path: every published token was interned in the store, so the
    // string index recovers its store id.
    dict_store_ids_.assign(dict.size(), 0);
    for (TokenId t = 0; t < dict.size(); ++t) {
      const auto it = token_index_.find(std::string(dict.TokenString(t)));
      STPS_CHECK(it != token_index_.end());
      dict_store_ids_[t] = it->second;
    }
  }
  for (const uint32_t t : dirty_token_list_) token_dirty_[t] = 0;
  dirty_token_list_.clear();
  user_dirty_.assign(users_.size(), 0);
  dirty_users_ = 0;
  delta_blocked_ = false;
  publish_seq_ = next_seq_;
  pending_mutations_ = 0;
}

PublishResult UpdatableDatabase::PublishLocked() {
  Timer timer;
  const bool use_delta = CanDeltaPublishLocked();
  PublishScaffold scaffold;
  auto next = std::make_shared<DatabaseSnapshot>();
  // Safe without snapshot_mutex_: snapshot_ is only ever reassigned under
  // mutex_, which this thread holds.
  next->epoch = snapshot_->epoch + 1;
  if (use_delta) {
    ++stats_.delta_publishes;
    stats_.dirty_users_published += dirty_users_;
    next->db = BuildDeltaLocked(snapshot_->db, &scaffold);
  } else {
    ++stats_.full_publishes;
    next->db = BuildFullLocked(&scaffold);
    stats_.blocks_rebuilt += next->db.num_users();
  }
  RefreshAfterPublishLocked(next->db, std::move(scaffold));
  ++stats_.publishes;
  stats_.last_publish_delta = use_delta;
  std::shared_ptr<const DatabaseSnapshot> published = std::move(next);
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    snapshot_ = published;
  }
  stats_.last_publish_ms = timer.ElapsedMillis();
  PublishResult result;
  result.snapshot = std::move(published);
  result.published = true;
  result.delta = use_delta;
  result.publish_ms = stats_.last_publish_ms;
  return result;
}

void UpdatableDatabase::PublishThresholdLocked() {
  if (options_.publish_threshold > 0 &&
      pending_mutations_ >= options_.publish_threshold) {
    PublishLocked();
  }
}

std::shared_ptr<const DatabaseSnapshot> UpdatableDatabase::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

std::shared_ptr<const DatabaseSnapshot> UpdatableDatabase::Publish() {
  std::lock_guard<std::mutex> lock(mutex_);
  return PublishLocked().snapshot;
}

PublishResult UpdatableDatabase::PublishIfDirty() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_mutations_ == 0) {
    PublishResult result;
    result.snapshot = snapshot_;  // reassignments hold mutex_, safe
    return result;
  }
  return PublishLocked();
}

bool UpdatableDatabase::dirty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_mutations_ > 0;
}

size_t UpdatableDatabase::live_objects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size() - free_slots_.size();
}

size_t UpdatableDatabase::live_users() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t count = 0;
  for (const UserEntry& user : users_) {
    if (!user.slots.empty()) ++count;
  }
  return count;
}

uint64_t UpdatableDatabase::epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_->epoch;
}

UpdateStats UpdatableDatabase::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void UpdatableDatabase::SeedFrom(const ObjectDatabase& db) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Walk slots in AddObject sequence order so the store replays the
    // exact insertion history of `db`.
    const std::span<const uint32_t> seq = db.insertion_order();
    std::vector<uint32_t> by_seq(db.num_objects());
    for (uint32_t slot = 0; slot < by_seq.size(); ++slot) {
      STPS_DCHECK(seq[slot] < by_seq.size());
      by_seq[seq[slot]] = slot;
    }
    const Dictionary& dict = db.dictionary();
    RawObject raw;
    for (const uint32_t slot : by_seq) {
      const STObject& o = db.object(slot);
      raw.user = db.UserName(o.user);
      raw.loc = o.loc;
      raw.time = o.time;
      raw.keywords.clear();
      for (const TokenId t : o.doc) raw.keywords.emplace_back(dict.TokenString(t));
      InsertLocked(raw);
    }
  }
  Publish();
}

}  // namespace stps
