#include "core/user_grid.h"

#include <algorithm>

#include "text/token_set.h"

namespace stps {

UserLayout MakeUserLayout(
    std::span<const std::pair<int64_t, ObjectRef>> keyed) {
  UserLayout layout;
  const size_t n = keyed.size();
  layout.refs.reserve(n);
  layout.xs.reserve(n);
  layout.ys.reserve(n);
  for (const auto& [id, ref] : keyed) {
    if (layout.cells.empty() || layout.cells.back().id != id) {
      layout.cells.push_back(UserPartition{
          id, {}, static_cast<uint32_t>(layout.refs.size())});
    }
    layout.refs.push_back(ref);
    layout.xs.push_back(ref.object->loc.x);
    layout.ys.push_back(ref.object->loc.y);
  }
  // Fix up the partition spans only now that refs has its final buffer.
  for (size_t c = 0; c < layout.cells.size(); ++c) {
    UserPartition& p = layout.cells[c];
    const uint32_t end = c + 1 < layout.cells.size()
                             ? layout.cells[c + 1].begin
                             : static_cast<uint32_t>(layout.refs.size());
    p.objects = std::span<const ObjectRef>(layout.refs.data() + p.begin,
                                           end - p.begin);
  }
  return layout;
}

UserGrid::UserGrid(const ObjectDatabase& db, double eps_loc)
    : geometry_(db.bounds(), eps_loc) {
  per_user_.resize(db.num_users());
  std::vector<std::pair<CellId, uint32_t>> scratch;  // (cell, local index)
  std::vector<std::pair<int64_t, ObjectRef>> keyed;
  for (UserId u = 0; u < db.num_users(); ++u) {
    const std::span<const STObject> objects = db.UserObjects(u);
    scratch.clear();
    scratch.reserve(objects.size());
    for (uint32_t i = 0; i < objects.size(); ++i) {
      scratch.emplace_back(geometry_.CellOf(objects[i].loc), i);
    }
    // The Z-ordered slots arrive nearly cell-sorted already; the sort key
    // keeps (cell, local) so a cell's objects stay in slot order.
    std::sort(scratch.begin(), scratch.end());
    keyed.clear();
    keyed.reserve(scratch.size());
    for (const auto& [cell, local] : scratch) {
      keyed.emplace_back(cell, ObjectRef{&objects[local], local});
    }
    per_user_[u] = MakeUserLayout(keyed);
  }
}

const UserPartition* FindPartition(const UserPartitionList& list,
                                   int64_t id) {
  const auto it = std::lower_bound(
      list.begin(), list.end(), id,
      [](const UserPartition& p, int64_t v) { return p.id < v; });
  if (it == list.end() || it->id != id) return nullptr;
  return &*it;
}

size_t PartitionObjectCount(const UserPartitionList& list, int64_t id) {
  const UserPartition* p = FindPartition(list, id);
  return p == nullptr ? 0 : p->objects.size();
}

void MergePartitionLists(const UserPartitionList& cu,
                         const UserPartitionList& cv,
                         std::vector<MergedPartition>* out) {
  out->clear();
  out->reserve(cu.size() + cv.size());
  size_t i = 0, j = 0;
  while (i < cu.size() || j < cv.size()) {
    if (j >= cv.size() || (i < cu.size() && cu[i].id < cv[j].id)) {
      out->push_back({cu[i].id, &cu[i], nullptr});
      ++i;
    } else if (i >= cu.size() || cv[j].id < cu[i].id) {
      out->push_back({cv[j].id, nullptr, &cv[j]});
      ++j;
    } else {
      out->push_back({cu[i].id, &cu[i], &cv[j]});
      ++i;
      ++j;
    }
  }
}

std::vector<MergedPartition> MergePartitionLists(
    const UserPartitionList& cu, const UserPartitionList& cv) {
  std::vector<MergedPartition> merged;
  MergePartitionLists(cu, cv, &merged);
  return merged;
}

void DistinctTokens(std::span<const ObjectRef> objects, TokenVector* out) {
  out->clear();
  for (const ObjectRef& ref : objects) {
    out->insert(out->end(), ref.object->doc.begin(), ref.object->doc.end());
  }
  NormalizeTokenSet(out);
}

TokenVector DistinctTokens(std::span<const ObjectRef> objects) {
  TokenVector tokens;
  DistinctTokens(objects, &tokens);
  return tokens;
}

SpatioTextualGridIndex::SpatioTextualGridIndex(
    const UserGrid& grid, std::span<const UserId> order) {
  const size_t n = grid.num_users();
  STPS_CHECK(order.size() == n);
  rank_.assign(n, 0);
  size_t pairs = 0;  // (user, cell) pairs: an upper bound on the cells
  for (uint32_t r = 0; r < n; ++r) {
    rank_[order[r]] = r;
    pairs += grid.UserCells(order[r]).cells.size();
  }
  size_t capacity = 16;
  int bits = 4;
  while (capacity < 2 * pairs) {  // load factor <= 1/2
    capacity *= 2;
    ++bits;
  }
  buckets_.assign(capacity, Bucket{});
  bucket_mask_ = capacity - 1;
  bucket_shift_ = 64 - bits;

  // Pass 1: give each occupied cell a slot (first-seen order) and count
  // its users and token occurrences.
  std::vector<uint32_t> pair_slot;
  pair_slot.reserve(pairs);
  std::vector<uint32_t> user_count;
  std::vector<uint32_t> key_count;
  for (const UserId u : order) {
    for (const UserPartition& cell : grid.UserCells(u)) {
      Bucket& bucket = buckets_[BucketOf(cell.id)];
      if (bucket.slot == kNoSlot) {
        bucket = Bucket{cell.id, static_cast<uint32_t>(user_count.size())};
        user_count.push_back(0);
        key_count.push_back(0);
      }
      const uint32_t slot = bucket.slot;
      pair_slot.push_back(slot);
      ++user_count[slot];
      for (const ObjectRef& ref : cell.objects) {
        key_count[slot] += static_cast<uint32_t>(ref.object->doc.size());
      }
    }
  }
  const size_t num_slots = user_count.size();
  const auto exclusive_prefix = [num_slots](const std::vector<uint32_t>& c) {
    std::vector<uint32_t> begin(num_slots + 1, 0);
    for (size_t s = 0; s < num_slots; ++s) begin[s + 1] = begin[s] + c[s];
    return begin;
  };

  // Pass 2: counting sorts by slot. Users land in processing order, each
  // at its position with its object count; token occurrences as (token,
  // position) keys, so sorting a cell's run groups it by token with each
  // group in processing order.
  cell_user_begin_ = exclusive_prefix(user_count);
  std::vector<uint32_t> key_begin = exclusive_prefix(key_count);
  cell_users_.resize(pairs);
  cell_objects_.resize(pairs);
  std::vector<uint64_t> keys(key_begin[num_slots]);
  std::vector<uint32_t>& user_cursor = user_count;  // reused as cursors
  std::vector<uint32_t>& key_cursor = key_count;
  std::copy(cell_user_begin_.begin(), cell_user_begin_.end() - 1,
            user_cursor.begin());
  std::copy(key_begin.begin(), key_begin.end() - 1, key_cursor.begin());
  size_t p = 0;
  for (uint32_t r = 0; r < n; ++r) {
    for (const UserPartition& cell : grid.UserCells(order[r])) {
      const uint32_t slot = pair_slot[p++];
      const uint32_t position = user_cursor[slot]++;
      cell_users_[position] = order[r];
      cell_objects_[position] = static_cast<uint32_t>(cell.objects.size());
      for (const ObjectRef& ref : cell.objects) {
        for (const TokenId t : ref.object->doc) {
          keys[key_cursor[slot]++] =
              (static_cast<uint64_t>(t) << 32) | position;
        }
      }
    }
  }

  // Sort each cell's run and drop duplicate keys (a user may carry a token
  // on several objects of the cell), compacting the runs in place.
  size_t kept = 0;
  for (size_t s = 0; s < num_slots; ++s) {
    const auto first = keys.begin() + key_begin[s];
    const auto last = keys.begin() + key_begin[s + 1];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    if (first != keys.begin() + kept) {
      std::copy(first, unique_end, keys.begin() + kept);
    }
    key_begin[s] = static_cast<uint32_t>(kept);
    kept += static_cast<size_t>(unique_end - first);
  }
  key_begin[num_slots] = static_cast<uint32_t>(kept);

  // One token entry per distinct (cell, token); entry_positions_ is the
  // compacted key array without the tokens.
  cell_token_begin_.assign(num_slots + 1, 0);
  entry_positions_.resize(kept);
  for (size_t s = 0; s < num_slots; ++s) {
    cell_token_begin_[s] = static_cast<uint32_t>(tokens_.size());
    for (uint32_t k = key_begin[s]; k < key_begin[s + 1]; ++k) {
      const TokenId t = static_cast<TokenId>(keys[k] >> 32);
      if (k == key_begin[s] || t != tokens_.back()) {
        tokens_.push_back(t);
        entry_begin_.push_back(k);
      }
      entry_positions_[k] = static_cast<uint32_t>(keys[k]);
    }
  }
  cell_token_begin_[num_slots] = static_cast<uint32_t>(tokens_.size());
  entry_begin_.push_back(static_cast<uint32_t>(kept));
}

void CollectCandidates(const GridGeometry& geometry,
                       const SpatioTextualGridIndex& index,
                       const UserLayout& cu, uint32_t rank_u,
                       UserCandidateTable<CandidateBound>* candidates,
                       JoinStats* stats, size_t* colocated) {
  // Hoisted per-thread scratch: this runs once per probing user in every
  // driver. `counted` holds the (cell, candidate) positions already in a
  // candidate's bound; `nearby` the distinct co-located users.
  thread_local std::vector<CellId> neighbors;
  thread_local TokenVector tokens;
  thread_local RoundStampSet counted;
  thread_local RoundStampSet nearby;
  counted.BeginRound(index.num_positions());
  size_t num_nearby = 0;
  if (colocated != nullptr) nearby.BeginRound(index.num_users());
  for (const UserPartition& cell : cu) {
    DistinctTokens(cell.objects, &tokens);
    neighbors.clear();
    geometry.AppendNeighborhood(cell.id, /*include_self=*/true, &neighbors);
    if (stats != nullptr) stats->cells_visited += neighbors.size();
    for (const CellId other : neighbors) {
      const uint32_t slot = index.FindCell(other);
      if (slot == SpatioTextualGridIndex::kNoSlot) continue;
      // The cell's users ascend by rank: none earlier, nothing to probe.
      const std::span<const UserId> cell_users = index.CellUsers(slot);
      if (index.Rank(cell_users.front()) >= rank_u) continue;
      if (colocated != nullptr) {
        for (const UserId v : cell_users) {
          if (index.Rank(v) >= rank_u) break;
          if (nearby.Insert(v)) ++num_nearby;
        }
      }
      index.ForEachSharedToken(
          slot, tokens, [&](size_t, std::span<const uint32_t> positions) {
            for (const uint32_t p : positions) {
              const UserId candidate = index.PositionUser(p);
              if (index.Rank(candidate) >= rank_u) break;
              CandidateBound& bound = (*candidates)[candidate];
              // u's cells arrive in ascending order, so comparing with the
              // last one counted dedups u's side. The candidate's cells
              // interleave across that loop; its (cell, user) position
              // dedups them.
              if (bound.last_cell != cell.id) {
                bound.last_cell = cell.id;
                bound.m += cell.objects.size();
              }
              if (counted.Insert(p)) bound.m += index.PositionObjectCount(p);
            }
          });
    }
  }
  if (colocated != nullptr) *colocated = num_nearby;
}

}  // namespace stps
