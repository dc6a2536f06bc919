#include "sketch/sketch.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string_view>

#include "common/macros.h"
#include "core/database.h"
#include "core/user_grid.h"
#include "sketch/count_min.h"

namespace stps {

namespace {

// Clamped cell coordinate of `v` on an n-cell axis over [lo, lo + width].
// Degenerate axes (width == 0, every point identical) collapse to cell 0.
uint32_t CellCoord(double v, double lo, double width, uint32_t n) {
  if (!(width > 0.0)) return 0;
  const double f = (v - lo) * static_cast<double>(n) / width;
  if (!(f > 0.0)) return 0;
  if (f >= static_cast<double>(n)) return n - 1;
  return static_cast<uint32_t>(f);
}

// Conservative per-axis probe radius in cells: two points within `eps`
// of each other on this axis have cell coordinates differing by at most
// floor(eps * n / width) + 1 in exact arithmetic; one more cell absorbs
// the floating-point rounding of the cell assignment (the same
// always-over policy as Rect::Extended — see common/predicates.h).
int64_t RadiusCells(double eps, double width, uint32_t n) {
  if (!(width > 0.0)) return n;  // degenerate axis: everything co-located
  const double cells = eps * static_cast<double>(n) / width;
  if (!(cells < static_cast<double>(n))) return n;
  return static_cast<int64_t>(cells) + 2;
}

// Dilates an 8x8 occupancy bitmap by rx columns and ry rows (saturating
// at the grid border; radii >= 8 flood the mask).
uint64_t DilateMask(uint64_t m, int64_t rx, int64_t ry) {
  constexpr uint64_t kCol0 = 0x0101010101010101ull;
  constexpr uint64_t kCol7 = 0x8080808080808080ull;
  if (rx >= 8 || ry >= 8) return m != 0 ? ~0ull : 0ull;
  for (int64_t i = 0; i < rx; ++i) {
    m |= ((m & ~kCol7) << 1) | ((m & ~kCol0) >> 1);
  }
  for (int64_t i = 0; i < ry; ++i) {
    m |= (m << 8) | (m >> 8);
  }
  return m;
}

// True when some cell of `au` is within the (rx, ry) window of some cell
// of `av` on the G x G occupancy grid. Probes the longer sorted list with
// one binary search per (cell, row) window of the shorter.
bool CellListsClose(std::span<const uint32_t> au, std::span<const uint32_t> av,
                    int64_t rx, int64_t ry, uint32_t g) {
  if (au.empty() || av.empty()) return false;
  if (au.size() > av.size()) std::swap(au, av);
  const int64_t last = static_cast<int64_t>(g) - 1;
  for (const uint32_t cell : au) {
    const int64_t row = cell / g;
    const int64_t col = cell % g;
    const int64_t r1 = std::min(last, row + ry);
    const int64_t c0 = std::max<int64_t>(0, col - rx);
    const int64_t c1 = std::min(last, col + rx);
    for (int64_t r = std::max<int64_t>(0, row - ry); r <= r1; ++r) {
      const uint32_t lo = static_cast<uint32_t>(r * g + c0);
      const uint32_t hi = static_cast<uint32_t>(r * g + c1);
      const auto it = std::lower_bound(av.begin(), av.end(), lo);
      if (it != av.end() && *it <= hi) return true;
    }
  }
  return false;
}

template <typename T>
void SortUniqueVec(std::vector<T>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// Co-occurrence accumulator slot for UserCandidateTable.
struct PairHits {
  uint32_t hits = 0;
  void Clear() { hits = 0; }
};

uint64_t PairKey(UserId a, UserId b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

void CheckParams(const SketchParams& params) {
  STPS_CHECK(params.num_hashes >= 1);
  STPS_CHECK(params.num_bands >= 1);
  STPS_CHECK(params.index_grid_bits >= 1 && params.index_grid_bits <= 15);
  STPS_CHECK(params.occupancy_grid_bits >= 3 &&
             params.occupancy_grid_bits <= 15);
}

// 64-bit hash of a token: FNV-1a over the token *string*, finished by
// the sketch layer's shared mixer. Every hash family in the sketch layer
// (MinHash rows, LSH bands) keys off this value rather than the token
// id, so a user's sketch rows are a pure function of its token *set*,
// independent of the dictionary's frequency-ordered id assignment.
uint64_t StableTokenHash(std::string_view token) {
  uint64_t h = 0xCBF29CE484222325ull;  // FNV offset basis
  for (const char c : token) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;  // FNV prime
  }
  return SketchMix64(h);
}

// Per-token hash values, indexed by token id. Both hash families key off
// these.
std::vector<uint64_t> ComputeStableHashes(const Dictionary& dict) {
  std::vector<uint64_t> stable(dict.size());
  for (TokenId t = 0; t < stable.size(); ++t) {
    stable[t] = StableTokenHash(dict.TokenString(t));
  }
  return stable;
}

// The per-user arrays the constructor builds (postings are derived from
// them afterwards). minhash/masks/begins are pre-sized by the caller;
// occ_cells/user_keys grow as users are appended in id order.
struct SketchArrays {
  std::vector<uint64_t> minhash;
  std::vector<uint32_t> occ_begin;
  std::vector<uint32_t> user_key_begin;
  std::vector<uint64_t> masks;
  std::vector<uint32_t> occ_cells;
  std::vector<uint64_t> user_keys;
};

struct UserScratch {
  std::vector<uint32_t> cells;
  std::vector<uint64_t> keys;
  TokenVector union_tokens;
};

// Computes user u's rows from the database and appends them to `out`.
// Pure function of (u's point set, params, salts, grid frames).
void AppendUserRows(const ObjectDatabase& db, UserId u,
                    std::span<const uint64_t> stable,
                    const SketchParams& params, uint64_t band_salt,
                    std::span<const uint64_t> row_salts, double min_x,
                    double min_y, double width_x, double width_y,
                    SketchArrays* out, UserScratch* scratch) {
  const uint32_t g = 1u << params.occupancy_grid_bits;
  const uint32_t ic = 1u << params.index_grid_bits;
  const uint32_t fold = params.occupancy_grid_bits - 3;

  std::vector<uint32_t>& cells = scratch->cells;
  std::vector<uint64_t>& keys = scratch->keys;
  TokenVector& union_tokens = scratch->union_tokens;
  cells.clear();
  keys.clear();
  union_tokens.clear();
  for (const STObject& o : db.UserObjects(u)) {
    const uint32_t col = CellCoord(o.loc.x, min_x, width_x, g);
    const uint32_t row = CellCoord(o.loc.y, min_y, width_y, g);
    cells.push_back(row * g + col);
    const uint64_t icell =
        static_cast<uint64_t>(CellCoord(o.loc.y, min_y, width_y, ic)) * ic +
        CellCoord(o.loc.x, min_x, width_x, ic);
    for (const TokenId t : o.doc) {
      union_tokens.push_back(t);
      const uint64_t band =
          SketchMix64(stable[t] ^ band_salt) % params.num_bands;
      keys.push_back(icell * params.num_bands + band);
    }
  }
  SortUniqueVec(&cells);
  SortUniqueVec(&keys);
  SortUniqueVec(&union_tokens);

  out->occ_cells.insert(out->occ_cells.end(), cells.begin(), cells.end());
  out->occ_begin[u + 1] = static_cast<uint32_t>(out->occ_cells.size());
  out->user_keys.insert(out->user_keys.end(), keys.begin(), keys.end());
  out->user_key_begin[u + 1] = static_cast<uint32_t>(out->user_keys.size());

  uint64_t mask = 0;
  for (const uint32_t cell : cells) {
    const uint32_t mrow = (cell / g) >> fold;
    const uint32_t mcol = (cell % g) >> fold;
    mask |= 1ull << (mrow * 8 + mcol);
  }
  out->masks[u] = mask;

  uint64_t* rows =
      out->minhash.data() + static_cast<size_t>(u) * params.num_hashes;
  for (const TokenId t : union_tokens) {
    for (uint32_t i = 0; i < params.num_hashes; ++i) {
      const uint64_t h = SketchMix64(stable[t] ^ row_salts[i]);
      if (h < rows[i]) rows[i] = h;
    }
  }
}

// Inverts the per-user key lists into flat postings (sorted distinct keys
// -> ascending user lists). Small key spaces (the default 16x16 grid x
// 256 bands = 65536) take an O(keys + space) counting sort: one count
// pass, one offset pass emitting the distinct keys, one scatter walking
// users in ascending id so per-key user lists come out ascending without
// a comparison sort. Larger spaces fall back to the flat pair sort; both
// paths produce identical arrays.
void BuildPostings(std::span<const uint64_t> user_keys,
                   std::span<const uint32_t> user_key_begin,
                   size_t num_users, uint64_t key_space,
                   std::vector<uint64_t>* post_keys,
                   std::vector<uint32_t>* post_begin,
                   std::vector<UserId>* post_users) {
  constexpr uint64_t kCountingSortLimit = 1ull << 24;
  if (key_space > 0 && key_space <= kCountingSortLimit) {
    std::vector<uint32_t> counts(key_space, 0);
    for (const uint64_t key : user_keys) {
      STPS_DCHECK(key < key_space);
      ++counts[key];
    }
    post_users->resize(user_keys.size());
    const size_t max_distinct =
        std::min<size_t>(key_space, user_keys.size());
    post_keys->reserve(max_distinct);
    post_begin->reserve(max_distinct + 1);
    uint32_t offset = 0;
    for (uint64_t key = 0; key < key_space; ++key) {
      const uint32_t count = counts[key];
      if (count == 0) continue;
      post_keys->push_back(key);
      post_begin->push_back(offset);
      counts[key] = offset;  // becomes the scatter cursor
      offset += count;
    }
    post_begin->push_back(offset);
    for (UserId u = 0; u < num_users; ++u) {
      for (uint32_t i = user_key_begin[u]; i < user_key_begin[u + 1]; ++i) {
        (*post_users)[counts[user_keys[i]]++] = u;
      }
    }
    return;
  }

  std::vector<std::pair<uint64_t, UserId>> flat;
  flat.reserve(user_keys.size());
  for (UserId u = 0; u < num_users; ++u) {
    for (uint32_t i = user_key_begin[u]; i < user_key_begin[u + 1]; ++i) {
      flat.emplace_back(user_keys[i], u);
    }
  }
  std::sort(flat.begin(), flat.end());
  post_users->reserve(flat.size());
  for (const auto& [key, u] : flat) {
    if (post_keys->empty() || post_keys->back() != key) {
      post_keys->push_back(key);
      post_begin->push_back(static_cast<uint32_t>(post_users->size()));
    }
    post_users->push_back(u);
  }
  post_begin->push_back(static_cast<uint32_t>(post_users->size()));
}

uint64_t KeySpace(const SketchParams& params) {
  const uint64_t ic = uint64_t{1} << params.index_grid_bits;
  return ic * ic * params.num_bands;
}

}  // namespace

UserSketchIndex::UserSketchIndex(const ObjectDatabase& db,
                                 const SketchParams& params)
    : params_(params), num_users_(db.num_users()) {
  CheckParams(params_);

  SketchSaltStream salts(params_.seed);
  const uint64_t band_salt = salts.Next();
  std::vector<uint64_t> row_salts;
  row_salts.reserve(params_.num_hashes);
  for (uint32_t i = 0; i < params_.num_hashes; ++i) {
    row_salts.push_back(salts.Next());
  }

  const Rect& bounds = db.bounds();
  if (!bounds.IsEmpty()) {
    min_x_ = bounds.min_x;
    min_y_ = bounds.min_y;
    width_x_ = bounds.max_x - bounds.min_x;
    width_y_ = bounds.max_y - bounds.min_y;
  }

  const std::vector<uint64_t> stable = ComputeStableHashes(db.dictionary());

  SketchArrays arrays;
  arrays.minhash.assign(num_users_ * params_.num_hashes,
                        std::numeric_limits<uint64_t>::max());
  arrays.masks.assign(num_users_, 0);
  arrays.occ_begin.assign(num_users_ + 1, 0);
  arrays.user_key_begin.assign(num_users_ + 1, 0);

  UserScratch scratch;
  for (UserId u = 0; u < num_users_; ++u) {
    AppendUserRows(db, u, stable, params_, band_salt, row_salts, min_x_,
                   min_y_, width_x_, width_y_, &arrays, &scratch);
  }
  BuildPostings(arrays.user_keys, arrays.user_key_begin, num_users_,
                KeySpace(params_), &post_keys_, &post_begin_, &post_users_);

  minhash_ = std::move(arrays.minhash);
  occ_cells_ = std::move(arrays.occ_cells);
  occ_begin_ = std::move(arrays.occ_begin);
  masks_ = std::move(arrays.masks);
  user_keys_ = std::move(arrays.user_keys);
  user_key_begin_ = std::move(arrays.user_key_begin);
}

std::span<const UserId> UserSketchIndex::Postings(uint64_t key) const {
  const auto it = std::lower_bound(post_keys_.begin(), post_keys_.end(), key);
  if (it == post_keys_.end() || *it != key) return {};
  const size_t i = static_cast<size_t>(it - post_keys_.begin());
  return {post_users_.data() + post_begin_[i],
          post_begin_[i + 1] - post_begin_[i]};
}

double UserSketchIndex::EstimateUnionJaccard(UserId u, UserId v) const {
  // Empty union token sets have sentinel-only signatures; their Jaccard
  // is 0 by convention, not the 1.0 the all-equal rows would suggest.
  if (UserKeys(u).empty() || UserKeys(v).empty()) return 0.0;
  const std::span<const uint64_t> a = MinHash(u);
  const std::span<const uint64_t> b = MinHash(v);
  uint32_t equal = 0;
  for (size_t i = 0; i < a.size(); ++i) equal += a[i] == b[i] ? 1 : 0;
  return static_cast<double>(equal) / static_cast<double>(a.size());
}

bool UserSketchIndex::OccupancyClose(UserId u, UserId v,
                                     double eps_loc) const {
  const uint32_t g = 1u << params_.occupancy_grid_bits;
  const uint64_t dilated = DilateMask(masks_[u],
                                      RadiusCells(eps_loc, width_x_, 8),
                                      RadiusCells(eps_loc, width_y_, 8));
  if ((dilated & masks_[v]) == 0) return false;
  return CellListsClose(OccupancyCells(u), OccupancyCells(v),
                        RadiusCells(eps_loc, width_x_, g),
                        RadiusCells(eps_loc, width_y_, g), g);
}

SketchCandidates UserSketchIndex::GenerateCandidates(
    double eps_loc, uint32_t heavy_capacity) const {
  SketchCandidates out;
  if (num_users_ == 0 || post_keys_.empty()) return out;

  const uint64_t bands = params_.num_bands;
  const uint32_t g = 1u << params_.occupancy_grid_bits;
  const int64_t ic = int64_t{1} << params_.index_grid_bits;
  const int64_t irx = RadiusCells(eps_loc, width_x_, static_cast<uint32_t>(ic));
  const int64_t iry = RadiusCells(eps_loc, width_y_, static_cast<uint32_t>(ic));
  const int64_t mrx = RadiusCells(eps_loc, width_x_, 8);
  const int64_t mry = RadiusCells(eps_loc, width_y_, 8);
  const int64_t frx = RadiusCells(eps_loc, width_x_, g);
  const int64_t fry = RadiusCells(eps_loc, width_y_, g);

  struct Cand {
    UserId a = 0;
    UserId b = 0;
    uint64_t estimate = 0;
  };
  std::vector<Cand> cands;
  UserCandidateTable<PairHits> table;
  CountMinSketch cms(/*log2_width=*/12, /*depth=*/4,
                     params_.seed ^ 0xC0117E57ull);

  for (UserId u = 0; u < num_users_; ++u) {
    table.BeginRound(num_users_);
    for (const uint64_t key : UserKeys(u)) {
      const uint64_t band = key % bands;
      const int64_t icell = static_cast<int64_t>(key / bands);
      const int64_t irow = icell / ic;
      const int64_t icol = icell % ic;
      const int64_t r1 = std::min(ic - 1, irow + iry);
      const int64_t c0 = std::max<int64_t>(0, icol - irx);
      const int64_t c1 = std::min(ic - 1, icol + irx);
      for (int64_t r = std::max<int64_t>(0, irow - iry); r <= r1; ++r) {
        for (int64_t c = c0; c <= c1; ++c) {
          const uint64_t probe =
              static_cast<uint64_t>(r * ic + c) * bands + band;
          for (const UserId v : Postings(probe)) {
            if (v >= u) break;  // postings ascend by user id
            ++table[v].hits;
          }
        }
      }
    }
    if (table.size() == 0) continue;
    const uint64_t dilated = DilateMask(masks_[u], mrx, mry);
    for (const UserId v : table.SortedTouched()) {
      // Occupancy rejection is exact spatial disproof: the bitmap first
      // (one AND), then the fine cell lists. Dilation radii round
      // outward, so a rejected pair provably has no object pair within
      // eps_loc — rejection can never drop a result.
      if ((dilated & masks_[v]) == 0 ||
          !CellListsClose(OccupancyCells(u), OccupancyCells(v), frx, fry,
                          g)) {
        ++out.rejections;
        continue;
      }
      const uint32_t hits = table[v].hits;
      const uint64_t key = PairKey(v, u);
      cms.Add(key, hits);
      cands.push_back({v, u, cms.Estimate(key)});
    }
  }

  // Canonical (a, b) order for the pair list; the priority permutation
  // carries the heavy-hitters-first verification order on top of it.
  std::sort(cands.begin(), cands.end(), [](const Cand& x, const Cand& y) {
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  const uint32_t total = static_cast<uint32_t>(cands.size());
  out.pairs.reserve(total);
  for (const Cand& c : cands) out.pairs.emplace_back(c.a, c.b);

  out.priority.resize(total);
  std::iota(out.priority.begin(), out.priority.end(), 0u);
  const auto heavier = [&cands](uint32_t i, uint32_t j) {
    if (cands[i].estimate != cands[j].estimate) {
      return cands[i].estimate > cands[j].estimate;
    }
    return i < j;  // ties: ascending (a, b)
  };
  const uint32_t heavy = std::min<uint32_t>(heavy_capacity, total);
  if (heavy < total) {
    std::nth_element(out.priority.begin(), out.priority.begin() + heavy,
                     out.priority.end(), heavier);
    std::sort(out.priority.begin(), out.priority.begin() + heavy, heavier);
    std::sort(out.priority.begin() + heavy, out.priority.end());
  } else {
    std::sort(out.priority.begin(), out.priority.end(), heavier);
  }
  return out;
}

std::shared_ptr<const UserSketchIndex> BuildUserSketches(
    const ObjectDatabase& db, const SketchParams& params) {
  return std::make_shared<const UserSketchIndex>(db, params);
}

}  // namespace stps
