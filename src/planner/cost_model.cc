#include "planner/cost_model.h"

#include <algorithm>
#include <cmath>

namespace stps {

namespace {

// Fixed charge (in work units) for spinning up the thread pool and
// merging per-worker results; at the default ~ns-per-unit scale this is
// a few hundred microseconds, which matches the measured break-even of
// the pool drivers on small inputs.
constexpr double kPoolOverheadUnits = 150e3;
// Fraction of perfect scaling the fork-join loop achieves on the
// join workloads (memory-bound refine stages do not scale linearly).
constexpr double kParallelEfficiency = 0.75;
// Units per merged cell of the S-PPJ-B/C pair walk: one partition lookup
// for each cell of its 3x3 neighbourhood.
constexpr double kWalkUnitsPerCell = 9.0;

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

double NonNegative(double v) {
  return (std::isfinite(v) && v > 0.0) ? v : 0.0;
}

// Log-space interpolation of a per-level occupancy series at fractional
// level `x` (continuous, monotone between the rungs because the series
// itself is monotone in the level).
double InterpolateLevels(const PlannerStats& stats, double x,
                         uint64_t OccupancyLevel::*field) {
  const int last = PlannerStats::kLevels - 1;
  x = std::clamp(x, 0.0, static_cast<double>(last));
  const int i = std::min(static_cast<int>(x), last - 1);
  const double frac = x - i;
  const double lo =
      static_cast<double>(std::max<uint64_t>(1, stats.occupancy[i].*field));
  const double hi = static_cast<double>(
      std::max<uint64_t>(1, stats.occupancy[i + 1].*field));
  return std::exp((1.0 - frac) * std::log(lo) + frac * std::log(hi));
}

}  // namespace

PlanEstimate EstimateJoinStages(const PlannerStats& stats, double eps_loc,
                                double eps_doc, double eps_u) {
  PlanEstimate est;
  const double n = static_cast<double>(stats.dataset.num_objects);
  const double users = static_cast<double>(stats.dataset.num_users);
  if (n <= 0.0 || users < 2.0) return est;
  const double m = std::max(1.0, stats.dataset.objects_per_user_mean);
  const double t = std::max(0.0, stats.dataset.tokens_per_object_mean);
  const double max_user_pairs = users * (users - 1.0) / 2.0;
  const double max_object_pairs = n * (n - 1.0) / 2.0;

  // Spatial stage: pick the dyadic level whose cell size matches eps_loc
  // (level = log2(extent / eps_loc)) and read the co-located object-pair
  // mass off the occupancy ladder. Smaller eps_loc -> finer level ->
  // smaller sum of squared cell counts, so the estimate is nondecreasing
  // in eps_loc by construction.
  const double extent = std::max(stats.extent_x, stats.extent_y);
  double level = static_cast<double>(PlannerStats::kLevels - 1);
  if (eps_loc > 0.0 && extent > 0.0 && eps_loc < extent) {
    level = std::log2(extent / eps_loc);
  } else if (eps_loc > 0.0) {
    level = 0.0;  // threshold covers the whole extent: everything pairs
  }
  const double sum_sq =
      InterpolateLevels(stats, level, &OccupancyLevel::sum_sq_counts);
  const double occupied =
      InterpolateLevels(stats, level, &OccupancyLevel::occupied_cells);
  // Same-cell unordered pairs, inflated ~4.5x for the 8-cell adjacency
  // the grid filters probe, capped at the all-pairs ceiling.
  const double within = std::max(0.0, (sum_sq - n) / 2.0);
  est.colocated_object_pairs =
      std::min(max_object_pairs, 4.5 * within);
  est.cells_visited = NonNegative(occupied * 9.0);

  // A user pair is a spatial candidate when at least one of its object
  // pairs is co-located; with ~(1 - 1/U) of co-located pairs crossing
  // users, saturate Poisson-style against the all-pairs ceiling (keeps
  // the estimate monotone and below U(U-1)/2).
  const double crossing =
      est.colocated_object_pairs * (1.0 - 1.0 / users);
  const double lambda =
      max_user_pairs > 0.0 ? crossing / max_user_pairs : 0.0;
  est.candidate_pairs = max_user_pairs * (1.0 - std::exp(-lambda));

  // Textual stage: probability a candidate pair shares any token,
  // estimated from the dictionary's collision rate over the ~m*t token
  // occurrences each side holds. eps_doc only tightens the filter, so
  // survivors interpolate from "everything" at eps_doc = 0 down to the
  // shared-token mass at eps_doc = 1 (nonincreasing in eps_doc).
  const double tokens_per_user = m * t;
  const double share_rate = NonNegative(
      tokens_per_user * tokens_per_user * stats.token_collision_rate);
  const double p_share = 1.0 - std::exp(-share_rate);
  const double doc = Clamp01(eps_doc);
  est.text_survivors =
      est.candidate_pairs * ((1.0 - doc) + doc * p_share);

  // Count-bound stage: the sigma_bar upper bound kills a fraction of
  // candidates that grows with eps_u (half at eps_u = 1 is the measured
  // ballpark on the bench presets; feedback refines it).
  est.verified_pairs = est.text_survivors * (1.0 - 0.5 * Clamp01(eps_u));

  // Refine cost: a verified pair compares the co-located object pairs of
  // the merged cell walk (at least one pass over a point set, at most
  // the full |Du| x |Dv| product), each comparison costing a distance
  // test plus a token-list intersection.
  const double pairs_per_candidate =
      est.colocated_object_pairs / std::max(1.0, est.candidate_pairs);
  est.verify_cost_per_pair =
      std::clamp(pairs_per_candidate, m, m * m) * (t + 4.0);

  // All-pairs cell walk: S-PPJ-B/C merge the cell lists of every user
  // pair, so each user's cells are walked once per other user, (U - 1) x
  // Σ_u cells(u) in all. A user's objects rarely share an eps_loc cell,
  // so cells(u) is its object count, capped by the cells occupied at
  // this resolution. Lemma 1 stops a pair once its unmatched objects
  // exceed (1 - eps_u)(|Du| + |Dv|); almost no pair matches, so S-PPJ-B's
  // walk ends after about that share of the cells (measured 0.55-0.74 of
  // S-PPJ-C's cells at eps_u 0.5-0.3, 0.42 at 0.6).
  est.walk_cells = (users - 1.0) * users * std::min(m, occupied);
  est.bounded_walk_cells = est.walk_cells * (1.0 - 0.9 * Clamp01(eps_u));

  est.cells_visited = NonNegative(est.cells_visited);
  est.colocated_object_pairs = NonNegative(est.colocated_object_pairs);
  est.candidate_pairs = NonNegative(est.candidate_pairs);
  est.text_survivors = NonNegative(est.text_survivors);
  est.verified_pairs = NonNegative(est.verified_pairs);
  est.verify_cost_per_pair = NonNegative(est.verify_cost_per_pair);
  est.walk_cells = NonNegative(est.walk_cells);
  est.bounded_walk_cells = NonNegative(est.bounded_walk_cells);
  return est;
}

double EstimateShapeCost(const PlannerStats& stats, const PlanShape& shape,
                         const PlanEstimate& est,
                         double candidate_correction) {
  const double n = static_cast<double>(stats.dataset.num_objects);
  const double users = static_cast<double>(stats.dataset.num_users);
  const double m = std::max(1.0, stats.dataset.objects_per_user_mean);
  const double t = std::max(0.0, stats.dataset.tokens_per_object_mean);
  const double correction =
      (std::isfinite(candidate_correction) && candidate_correction > 0.0)
          ? candidate_correction
          : 1.0;
  const double max_user_pairs = std::max(0.0, users * (users - 1.0) / 2.0);
  const double per_pair = std::max(1.0, est.verify_cost_per_pair);
  const double brute_per_pair = m * m * (t + 4.0);

  double build = 0.0;   // query-independent setup (grid/index/tree)
  double refine = 0.0;  // candidate-driven work, parallelisable
  const JoinAlgorithm algorithm =
      shape.topk ? JoinAlgorithm::kSPPJF : shape.join;

  switch (algorithm) {
    case JoinAlgorithm::kBruteForce:
      refine = max_user_pairs * brute_per_pair;
      break;
    case JoinAlgorithm::kSPPJC:
      // No filter at all: the cell merge runs for every user pair (an
      // exact count, so no learned correction), walking the union of
      // both users' cells and touching every co-located object pair.
      build = 2.0 * n;
      refine = max_user_pairs * per_pair +
               2.0 * est.colocated_object_pairs +
               kWalkUnitsPerCell * est.walk_cells;
      break;
    case JoinAlgorithm::kSPPJB:
      // S-PPJ-C's pairs with the odd/even row partitioning halving the
      // duplicate neighbour visits and Lemma 1 cutting the walk short.
      build = 2.0 * n;
      refine = 0.9 * (max_user_pairs * per_pair +
                      2.0 * est.colocated_object_pairs) +
               kWalkUnitsPerCell * est.bounded_walk_cells;
      break;
    case JoinAlgorithm::kSPPJF:
      // Per-query inverted grid index: pay per stored (object, token) to
      // build and probe, refine only the textual survivors, plus
      // per-candidate bookkeeping for the count bound.
      build = 2.0 * n * (t + 2.0);
      refine = correction * (est.text_survivors * per_pair +
                             4.0 * est.candidate_pairs) +
               est.cells_visited * (t + 1.0);
      break;
    case JoinAlgorithm::kSPPJD:
      // S-PPJ-F's funnel over R-tree leaves: tree build on top, mildly
      // worse partition locality.
      build = 2.0 * n * (t + 2.0) +
              n * std::log2(std::max(2.0, n));
      refine = 1.15 * (correction * (est.text_survivors * per_pair +
                                     4.0 * est.candidate_pairs) +
                       est.cells_visited * (t + 1.0));
      break;
    default:
      refine = max_user_pairs * brute_per_pair;
      break;
  }

  if (shape.topk) {
    // The result-queue threshold prunes the refine tail once k real
    // pairs are queued; the discount is deliberately mild (the queue
    // only helps after it fills).
    refine *= 0.8;
    if (shape.topk_algorithm == TopKAlgorithm::kS) refine *= 1.05;
    if (shape.topk_algorithm == TopKAlgorithm::kP) refine *= 0.9;
    if (shape.topk_algorithm == TopKAlgorithm::kBruteForce) {
      build = 0.0;
      refine = max_user_pairs * brute_per_pair;
    }
  }

  double total = build + refine;
  if (shape.threads > 1) {
    total = build + refine / (kParallelEfficiency * shape.threads) +
            kPoolOverheadUnits;
  }
  return NonNegative(total);
}

bool UsesCandidateCorrection(const PlanShape& shape) {
  if (shape.topk) return shape.topk_algorithm != TopKAlgorithm::kBruteForce;
  return shape.join != JoinAlgorithm::kSPPJB &&
         shape.join != JoinAlgorithm::kSPPJC &&
         shape.join != JoinAlgorithm::kBruteForce;
}

std::string PlanShapeName(const PlanShape& shape) {
  return std::string(shape.topk ? TopKAlgorithmName(shape.topk_algorithm)
                                 : JoinAlgorithmName(shape.join));
}

}  // namespace stps
