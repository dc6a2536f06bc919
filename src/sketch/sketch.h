// Per-user sketch layer: MinHash signatures over each user's union token
// set, spatial occupancy bitmaps over a fixed coarse grid, and a
// deterministic (cell, token-band) inverted index that generates
// candidate user pairs without enumerating the quadratic pair space.
//
// Soundness contract (the whole point — see DESIGN.md "Sketch layer"):
// for any query with eps_doc > 0, a user pair with sigma > 0 has at least
// one matching object pair, which (a) shares a token — and a shared token
// lands both users in the *same* band, because the band of a token is a
// pure function band(t) = mix(t) mod B, not a probabilistic minhash row —
// and (b) lies within eps_loc, so the two objects' index cells are within
// the conservatively-rounded probe radius. GenerateCandidates therefore
// returns a superset of every pair any threshold join (eps_u > 0) or
// top-k query at that eps_loc can report. The probabilistic structures
// (MinHash, count-min) only *order* candidates for verification; they
// never decide membership. Candidates are rejected only by the occupancy
// sketches, whose dilation radii round outward, so every rejection is a
// proof of spatial separation.
//
// A standalone experiment, like S-PPJ-C or the Hausdorff comparator: the
// caller builds the index explicitly (BuildUserSketches) and passes it to
// the drivers in sketch/sketch_join.h. No database, snapshot, epoch or
// plan carries one. The index is independent of any query threshold: the
// index grid is fixed-resolution, and eps_loc enters only through the
// probe radius at generation time.

#ifndef STPS_SKETCH_SKETCH_H_
#define STPS_SKETCH_SKETCH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sketch/count_min.h"
#include "stjoin/object.h"

namespace stps {

class ObjectDatabase;

/// Build-time shape of the sketch layer. The defaults are sized for the
/// library's workloads (hundreds of thousands of users, tens of tokens
/// per object); they are index parameters, not query parameters.
struct SketchParams {
  /// MinHash rows per user (k = 64: standard error 1/sqrt(k) ~ 0.125).
  uint32_t num_hashes = 64;
  /// Token band count B of the deterministic LSH-band index. More bands
  /// mean fewer spurious band collisions (two different tokens mapping to
  /// one band) at the cost of more index entries per user.
  uint32_t num_bands = 256;
  /// log2 of the inverted-index grid resolution per axis (4 -> 16x16).
  /// Coarse on purpose: index entries are (cell, band) pairs, and the
  /// probe loop scans a neighbourhood of cells per entry.
  uint32_t index_grid_bits = 4;
  /// log2 of the occupancy grid resolution per axis (6 -> 64x64). The
  /// per-user sorted cell lists at this resolution (plus their 8x8
  /// folded bitmap) provide the pair-level spatial rejection test.
  uint32_t occupancy_grid_bits = 6;
  /// Master seed for every hash family in the layer.
  uint64_t seed = 0x53545053u;  // "STPS"
};

/// Default size of the count-min heavy-hitters list that seeds the top-k
/// verification order (see GenerateCandidates).
inline constexpr uint32_t kDefaultHeavyCapacity = 1024;

/// Output of one candidate-generation pass.
struct SketchCandidates {
  /// Candidate pairs, a < b, sorted ascending by (a, b) — a superset of
  /// every pair the exact join can report at the generating eps_loc.
  std::vector<std::pair<UserId, UserId>> pairs;
  /// Verification order as indices into `pairs`: the count-min heavy
  /// hitters first (descending estimated co-occurrence), then the rest in
  /// (a, b) order. Top-k drivers follow it so the queue threshold rises
  /// early; threshold joins ignore it.
  std::vector<uint32_t> priority;
  /// Pairs surfaced by the band index but disproven by the occupancy
  /// sketches (counted into JoinStats::sketch_rejections).
  uint64_t rejections = 0;
};

/// Immutable per-user sketches + band index for one database.
class UserSketchIndex {
 public:
  UserSketchIndex(const ObjectDatabase& db, const SketchParams& params);

  size_t num_users() const { return num_users_; }

  /// The MinHash signature of user u's union token set (num_hashes rows;
  /// rows are UINT64_MAX when the union is empty).
  std::span<const uint64_t> MinHash(UserId u) const {
    return {minhash_.data() + static_cast<size_t>(u) * params_.num_hashes,
            params_.num_hashes};
  }

  /// MinHash estimate of the Jaccard similarity of the union token sets
  /// (matching rows / num_hashes; 0 when either union is empty).
  double EstimateUnionJaccard(UserId u, UserId v) const;

  /// Sorted distinct occupancy-grid cells (row * G + col) of user u.
  std::span<const uint32_t> OccupancyCells(UserId u) const {
    return {occ_cells_.data() + occ_begin_[u],
            occ_begin_[u + 1] - occ_begin_[u]};
  }

  /// 8x8 folded occupancy bitmap of user u (bit row * 8 + col).
  uint64_t OccupancyMask(UserId u) const { return masks_[u]; }

  /// Sorted distinct (index cell * num_bands + band) keys of user u.
  std::span<const uint64_t> UserKeys(UserId u) const {
    return {user_keys_.data() + user_key_begin_[u],
            user_key_begin_[u + 1] - user_key_begin_[u]};
  }

  /// Generates the candidate pairs for queries at `eps_loc` (see the
  /// soundness contract above). `heavy_capacity` is the length of the
  /// count-min heavy-hitters head of `priority` (highest estimated
  /// co-occurrence first, so a top-k queue's threshold rises early); it
  /// orders verification only and never changes `pairs`. Deterministic
  /// in (db, params, eps_loc, heavy_capacity).
  SketchCandidates GenerateCandidates(
      double eps_loc, uint32_t heavy_capacity = kDefaultHeavyCapacity) const;

  /// True when the occupancy sketches cannot rule out that u and v have
  /// objects within eps_loc of each other (bitmap test, then the exact
  /// cell-list window probe). A false return is a proof of separation.
  bool OccupancyClose(UserId u, UserId v, double eps_loc) const;

 private:
  // Users with any object in index cell `key / num_bands` holding a token
  // of band `key % num_bands`, ascending by user id; empty when none.
  std::span<const UserId> Postings(uint64_t key) const;

  SketchParams params_;
  size_t num_users_ = 0;
  // Grid frames (index grid and occupancy grid share the db bounds).
  double min_x_ = 0.0, min_y_ = 0.0, width_x_ = 0.0, width_y_ = 0.0;

  std::vector<uint64_t> minhash_;      // num_users * num_hashes
  std::vector<uint32_t> occ_cells_;    // CSR: sorted distinct fine cells
  std::vector<uint32_t> occ_begin_;    // size num_users + 1
  std::vector<uint64_t> masks_;        // 8x8 folds of occ_cells_
  std::vector<uint64_t> user_keys_;    // CSR: sorted distinct (cell, band)
  std::vector<uint32_t> user_key_begin_;
  // Flat postings: sorted distinct keys -> ascending user lists.
  std::vector<uint64_t> post_keys_;
  std::vector<uint32_t> post_begin_;   // size post_keys_ + 1
  std::vector<UserId> post_users_;
};

/// Builds the sketch layer for a finished database: the index every
/// driver in sketch/sketch_join.h takes.
std::shared_ptr<const UserSketchIndex> BuildUserSketches(
    const ObjectDatabase& db, const SketchParams& params = {});

}  // namespace stps

#endif  // STPS_SKETCH_SKETCH_H_
