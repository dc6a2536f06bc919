// Point-set similarity (the paper's sigma measure), query descriptors,
// result types, and the brute-force reference implementations used by the
// test suite and as the baseline in benchmarks.

#ifndef STPS_CORE_SIMILARITY_H_
#define STPS_CORE_SIMILARITY_H_

#include <limits>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "core/database.h"
#include "sketch/options.h"
#include "stjoin/object.h"

namespace stps {

/// An STPSJoin query Q = <eps_loc, eps_doc, eps_u> (Definition 1), plus
/// the optional temporal threshold of the future-work extension
/// (infinite by default, i.e. disabled) and the sketch candidate-
/// generation opt-in (off by default; see sketch/options.h — enabling it
/// never changes results). A join's thread budget is JoinOptions::threads
/// (core/stpsjoin.h).
struct STPSQuery {
  double eps_loc = 0.0;
  double eps_doc = 0.0;
  double eps_u = 0.0;
  double eps_time = std::numeric_limits<double>::infinity();
  SketchOptions sketch = {};

  MatchThresholds match_thresholds() const {
    return {eps_loc, eps_doc, eps_time};
  }
};

/// A top-k STPSJoin query Q = <eps_loc, eps_doc, k> (Definition 2), with
/// the same temporal and sketch knobs, plus its parallel-execution knobs
/// (sequential by default; see common/thread_pool.h).
struct TopKQuery {
  double eps_loc = 0.0;
  double eps_doc = 0.0;
  size_t k = 10;
  double eps_time = std::numeric_limits<double>::infinity();
  ParallelOptions parallel = {};
  SketchOptions sketch = {};

  MatchThresholds match_thresholds() const {
    return {eps_loc, eps_doc, eps_time};
  }
};

/// One result pair with its exact similarity score. Invariant: a < b.
struct ScoredUserPair {
  UserId a = 0;
  UserId b = 0;
  double score = 0.0;

  friend bool operator==(const ScoredUserPair& x, const ScoredUserPair& y) {
    return x.a == y.a && x.b == y.b;
  }
};

/// The deterministic total order used for top-k results: higher score
/// first, ties broken by ascending (a, b). All top-k algorithms in this
/// library agree on it, which makes results reproducible and testable.
inline bool TopKBetter(const ScoredUserPair& x, const ScoredUserPair& y) {
  if (x.score != y.score) return x.score > y.score;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

/// Exact matched-object count (sigma's integer numerator): how many
/// objects of Du and Dv match at least one object of the other set, by
/// exhaustive comparison. O(|Du| * |Dv|). Reference implementation; the
/// optimised kernels must agree with it. Threshold decisions go through
/// SigmaAtLeast(matched, |Du| + |Dv|, eps_u) — never through the rounded
/// quotient (common/predicates.h).
size_t ExactSigmaMatched(std::span<const STObject> du,
                         std::span<const STObject> dv,
                         const MatchThresholds& t);

/// Exact sigma(Du, Dv) as a quotient, for *reporting* scores. O(|Du| *
/// |Dv|). The quotient rounds to nearest; membership decisions must use
/// ExactSigmaMatched + SigmaAtLeast instead.
double ExactSigma(std::span<const STObject> du, std::span<const STObject> dv,
                  const MatchThresholds& t);

// The early-termination bound of Lemma 1 lives in common/predicates.h as
// SigmaUnmatchedBudget(total, eps_u): an *integer* unmatched-object budget
// exactly consistent with SigmaAtLeast. (The historical float form
// (1 - eps_u) * total could reject sigma == eps_u pairs by one ULP.)

/// Brute-force STPSJoin: every user pair, exhaustive sigma. Result sorted
/// by (a, b). Intended for tests and the smallest benchmark sizes only.
std::vector<ScoredUserPair> BruteForceSTPSJoin(const ObjectDatabase& db,
                                               const STPSQuery& query);

/// Brute-force top-k STPSJoin over pairs with sigma > 0, under the
/// TopKBetter total order. Result sorted best-first.
std::vector<ScoredUserPair> BruteForceTopK(const ObjectDatabase& db,
                                           const TopKQuery& query);

}  // namespace stps

#endif  // STPS_CORE_SIMILARITY_H_
