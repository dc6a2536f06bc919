#include "core/ppjb.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/predicates.h"
#include "core/similarity.h"
#include "stjoin/ppj.h"

namespace stps {

namespace {

// The paper numbers grid rows from 1 at the bottom; rows 1, 3, 5, ... are
// the "odd" rows that perform the wide join step and host the bound
// checks. GridGeometry rows are 0-based, so paper-odd <=> even index.
bool IsOddRow(int64_t row) { return (row % 2) == 0; }

// Per-thread scratch for the pair kernels: the flag vectors, neighbour
// list, and merged traversal are reused across the millions of user pairs
// a join evaluates (thread_local so the workers never share).
struct PairScratch {
  std::vector<uint8_t> matched_u;
  std::vector<uint8_t> matched_v;
  std::vector<CellId> neighbors;
  std::vector<MergedPartition> merged;
};

PairScratch& LocalScratch() {
  thread_local PairScratch scratch;
  return scratch;
}

// Warms the cache lines of the next merged cell's coordinate blocks while
// the current cell is being joined — the traversal order is known, so the
// streamed SoA reads of the batch kernel rarely miss.
inline void PrefetchMerged(const UserLayout& cu, const UserLayout& cv,
                           const std::vector<MergedPartition>& merged,
                           size_t idx) {
  if (idx + 1 >= merged.size()) return;
  const MergedPartition& next = merged[idx + 1];
  if (next.u != nullptr) {
    __builtin_prefetch(cu.xs.data() + next.u->begin);
    __builtin_prefetch(cu.ys.data() + next.u->begin);
  }
  if (next.v != nullptr) {
    __builtin_prefetch(cv.xs.data() + next.v->begin);
    __builtin_prefetch(cv.ys.data() + next.v->begin);
  }
}

}  // namespace

double PPJCPair(const UserLayout& cu, size_t nu, const UserLayout& cv,
                size_t nv, const GridGeometry& grid,
                const MatchThresholds& t, JoinStats* stats,
                size_t* matched_out) {
  if (matched_out != nullptr) *matched_out = 0;
  if (nu + nv == 0) return 0.0;
  PairScratch& scratch = LocalScratch();
  std::vector<uint8_t>& matched_u = scratch.matched_u;
  std::vector<uint8_t>& matched_v = scratch.matched_v;
  matched_u.assign(nu, 0);
  matched_v.assign(nv, 0);
  uint32_t matched_total = 0;
  std::vector<CellId>& neighbors = scratch.neighbors;
  neighbors.reserve(9);  // 3x3 neighbourhood
  MergePartitionLists(cu, cv, &scratch.merged);
  const std::vector<MergedPartition>& merged = scratch.merged;
  for (size_t idx = 0; idx < merged.size(); ++idx) {
    const MergedPartition& cell = merged[idx];
    PrefetchMerged(cu, cv, merged, idx);
    if (stats != nullptr) ++stats->cells_visited;
    neighbors.clear();
    grid.AppendNeighborhood(cell.id, /*include_self=*/true, &neighbors);
    if (cell.u != nullptr) {
      const CellBlock bu = BlockOf(cu, cell.u);
      // Join Du_c with Dv_n for every adjacent n with id >= c.
      for (const CellId n : neighbors) {
        if (n < cell.id) continue;
        const UserPartition* pv =
            n == cell.id ? cell.v : FindPartition(cv, n);
        if (pv == nullptr) continue;
        matched_total += PPJCrossMarkBatch(bu, BlockOf(cv, pv), t,
                                           &matched_u, &matched_v, stats);
      }
    }
    if (cell.v != nullptr) {
      const CellBlock bv = BlockOf(cv, cell.v);
      // Join Du_n with Dv_c for every adjacent n with id > c (the id == c
      // pair was handled above).
      for (const CellId n : neighbors) {
        if (n <= cell.id) continue;
        const UserPartition* pu = FindPartition(cu, n);
        if (pu == nullptr) continue;
        matched_total += PPJCrossMarkBatch(BlockOf(cu, pu), bv, t,
                                           &matched_u, &matched_v, stats);
      }
    }
  }
  if (matched_out != nullptr) *matched_out = matched_total;
  return static_cast<double>(matched_total) / static_cast<double>(nu + nv);
}

double PPJBPair(const UserLayout& cu, size_t nu, const UserLayout& cv,
                size_t nv, const GridGeometry& grid,
                const MatchThresholds& t, double eps_u, JoinStats* stats,
                size_t* matched_out) {
  if (matched_out != nullptr) *matched_out = 0;
  if (nu + nv == 0) return 0.0;
  const bool bounded = eps_u > 0.0;
  // Lemma 1 as an exact integer budget: stopping when the number of
  // definitely-unmatched objects exceeds it is equivalent to
  // !SigmaAtLeast(best-possible matched, nu + nv, eps_u), so a pair whose
  // sigma lands exactly on eps_u is never pruned (the float form
  // (1 - eps_u) * (nu + nv) could be one ULP too tight).
  const int64_t budget = SigmaUnmatchedBudget(nu + nv, eps_u);
  PairScratch& scratch = LocalScratch();
  std::vector<uint8_t>& matched_u = scratch.matched_u;
  std::vector<uint8_t>& matched_v = scratch.matched_v;
  matched_u.assign(nu, 0);
  matched_v.assign(nv, 0);
  uint32_t matched_total = 0;
  size_t seen_objects = 0;

  MergePartitionLists(cu, cv, &scratch.merged);
  const std::vector<MergedPartition>& merged = scratch.merged;
  std::vector<CellId>& neighbors = scratch.neighbors;
  neighbors.reserve(9);
  int64_t current_row = merged.empty() ? 0 : grid.RowOf(merged.front().id);

  for (size_t idx = 0; idx < merged.size(); ++idx) {
    const MergedPartition& cell = merged[idx];
    PrefetchMerged(cu, cv, merged, idx);
    const int64_t row = grid.RowOf(cell.id);
    if (row != current_row) {
      // The previous row is complete. Every object seen so far has had all
      // of its candidate pairs examined when the completed row was odd, or
      // when an empty row separates it from the next occupied row.
      if (bounded && (IsOddRow(current_row) || row > current_row + 1)) {
        // matched_total may exceed seen_objects (matches can mark objects
        // in cells not yet traversed), so compute the lower bound signed.
        const int64_t unmatched_lower_bound =
            static_cast<int64_t>(seen_objects) -
            static_cast<int64_t>(matched_total);
        if (unmatched_lower_bound > budget) {
          if (stats != nullptr) ++stats->refine_early_stops;
          return 0.0;
        }
      }
      current_row = row;
    }
    if (stats != nullptr) ++stats->cells_visited;
    seen_objects += (cell.u ? cell.u->objects.size() : 0) +
                    (cell.v ? cell.v->objects.size() : 0);

    neighbors.clear();
    if (IsOddRow(row)) {
      grid.AppendOddRowNeighbors(cell.id, &neighbors);
    } else {
      grid.AppendEvenRowNeighbors(cell.id, &neighbors);
    }
    for (const CellId n : neighbors) {
      if (n == cell.id) {
        if (cell.u != nullptr && cell.v != nullptr) {
          matched_total +=
              PPJCrossMarkBatch(BlockOf(cu, cell.u), BlockOf(cv, cell.v), t,
                                &matched_u, &matched_v, stats);
        }
        continue;
      }
      // The traversal enumerates each unordered adjacent cell pair exactly
      // once, so both cross directions are joined here.
      if (cell.u != nullptr) {
        const UserPartition* pv = FindPartition(cv, n);
        if (pv != nullptr) {
          matched_total +=
              PPJCrossMarkBatch(BlockOf(cu, cell.u), BlockOf(cv, pv), t,
                                &matched_u, &matched_v, stats);
        }
      }
      if (cell.v != nullptr) {
        const UserPartition* pu = FindPartition(cu, n);
        if (pu != nullptr) {
          matched_total +=
              PPJCrossMarkBatch(BlockOf(cu, pu), BlockOf(cv, cell.v), t,
                                &matched_u, &matched_v, stats);
        }
      }
    }
  }
  if (matched_out != nullptr) *matched_out = matched_total;
  return static_cast<double>(matched_total) / static_cast<double>(nu + nv);
}

double PairSigma(std::span<const STObject> du, std::span<const STObject> dv,
                 const MatchThresholds& t, size_t* matched_out) {
  if (matched_out != nullptr) *matched_out = 0;
  if (du.empty() || dv.empty()) return 0.0;
  Rect bounds = Rect::Empty();
  for (const STObject& o : du) bounds.ExpandToInclude(o.loc);
  for (const STObject& o : dv) bounds.ExpandToInclude(o.loc);
  const GridGeometry grid(bounds, t.eps_loc);

  const auto build = [&grid](std::span<const STObject> objects) {
    std::vector<std::pair<int64_t, ObjectRef>> keyed;
    keyed.reserve(objects.size());
    for (uint32_t i = 0; i < objects.size(); ++i) {
      keyed.emplace_back(grid.CellOf(objects[i].loc),
                         ObjectRef{&objects[i], i});
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    return MakeUserLayout(keyed);
  };
  const UserLayout cu = build(du);
  const UserLayout cv = build(dv);
  return PPJCPair(cu, du.size(), cv, dv.size(), grid, t, nullptr,
                  matched_out);
}

}  // namespace stps
