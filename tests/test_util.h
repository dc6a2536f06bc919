// Shared helpers for the stps test suite: random databases with enough
// spatial and textual collisions to exercise every code path, the paper's
// Figure 1 example, and comparison utilities.

#ifndef STPS_TESTS_TEST_UTIL_H_
#define STPS_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "core/similarity.h"
#include "core/stpsjoin.h"

namespace stps {
namespace testing_util {

/// Owns token storage for standalone STObjects (whose `doc` member is a
/// non-owning span). Growing the arena never invalidates handed-out
/// spans: sets live in a deque and each set's heap buffer stays put.
class DocArena {
 public:
  std::span<const TokenId> Add(TokenVector tokens) {
    docs_.push_back(std::move(tokens));
    return docs_.back();
  }

 private:
  std::deque<TokenVector> docs_;
};

/// Knobs for BuildRandomDatabase. Defaults give a small, dense instance
/// where matches are common at eps_loc ~ 0.1, eps_doc ~ 0.3.
struct RandomDbSpec {
  size_t num_users = 30;
  size_t min_objects = 2;
  size_t max_objects = 12;
  size_t vocabulary = 25;    // small vocab -> frequent token collisions
  size_t min_tokens = 1;
  size_t max_tokens = 5;
  double extent = 1.0;       // world is [0, extent]^2
  size_t num_hotspots = 6;   // most points land near a hotspot
  double hotspot_sigma = 0.03;
  double hotspot_probability = 0.7;
  uint64_t seed = 1;
};

/// Builds a random database per `spec`. Deterministic in the spec.
inline ObjectDatabase BuildRandomDatabase(const RandomDbSpec& spec) {
  Rng rng(spec.seed);
  std::vector<Point> hotspots(spec.num_hotspots);
  for (auto& h : hotspots) {
    h = {rng.Uniform(0, spec.extent), rng.Uniform(0, spec.extent)};
  }
  DatabaseBuilder builder;
  std::vector<std::string> keywords;
  for (size_t u = 0; u < spec.num_users; ++u) {
    const std::string key = "user" + std::to_string(u);
    const size_t count = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(spec.min_objects),
                       static_cast<int64_t>(spec.max_objects)));
    for (size_t i = 0; i < count; ++i) {
      Point p;
      if (!hotspots.empty() && rng.Bernoulli(spec.hotspot_probability)) {
        const Point& h = hotspots[rng.NextBelow(hotspots.size())];
        p = {rng.Gaussian(h.x, spec.hotspot_sigma),
             rng.Gaussian(h.y, spec.hotspot_sigma)};
      } else {
        p = {rng.Uniform(0, spec.extent), rng.Uniform(0, spec.extent)};
      }
      const size_t tokens = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(spec.min_tokens),
                         static_cast<int64_t>(spec.max_tokens)));
      keywords.clear();
      for (size_t k = 0; k < tokens; ++k) {
        keywords.push_back("kw" +
                           std::to_string(rng.NextBelow(spec.vocabulary)));
      }
      builder.AddObject(key, p, std::span<const std::string>(keywords));
    }
  }
  return std::move(builder).Build();
}

/// The running example of Figure 1: three users around two "places"
/// (a shopping area and a stadium), with u1 and u3 being the only pair of
/// users with mutually matching objects at sensible thresholds.
inline ObjectDatabase BuildFigure1Database() {
  DatabaseBuilder builder;
  const auto add = [&builder](const char* user, double x, double y,
                              std::vector<std::string> kws) {
    builder.AddObject(user, Point{x, y}, std::span<const std::string>(kws));
  };
  // Shopping cluster (close together).
  add("u1", 0.10, 0.10, {"shop", "jeans"});
  add("u3", 0.11, 0.105, {"shop", "market"});
  // Stadium cluster.
  add("u2", 0.50, 0.52, {"football", "match", "stadium"});
  add("u2", 0.51, 0.50, {"football", "derby"});
  // Scattered, non-matching objects.
  add("u1", 0.80, 0.20, {"tube", "ride"});
  add("u2", 0.82, 0.70, {"hurry", "tube", "time"});
  add("u3", 0.30, 0.80, {"thames", "bridge"});
  add("u3", 0.86, 0.24, {"bus", "ride"});
  return std::move(builder).Build();
}

/// True when the two result vectors contain the same pairs with scores
/// equal to `tolerance`.
inline bool SameResults(const std::vector<ScoredUserPair>& x,
                        const std::vector<ScoredUserPair>& y,
                        double tolerance = 1e-12) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b) return false;
    if (std::fabs(x[i].score - y[i].score) > tolerance) return false;
  }
  return true;
}

/// The rows of an exact join result that involve user `u`, best-first
/// under TopKBetter: what FindSimilarUsers must return for u under the
/// join's query.
inline std::vector<ScoredUserPair> ProbeRowsOf(
    const std::vector<ScoredUserPair>& join, UserId u) {
  std::vector<ScoredUserPair> rows;
  for (const ScoredUserPair& pair : join) {
    if (pair.a == u || pair.b == u) rows.push_back(pair);
  }
  std::sort(rows.begin(), rows.end(), TopKBetter);
  return rows;
}

/// Probes every user of `db` under `query` and compares each answer with
/// its rows of `join`, the exact join result of the same query, with
/// tolerance 0.
inline ::testing::AssertionResult ProbesMatchJoin(
    const ObjectDatabase& db, const STPSQuery& query,
    const std::vector<ScoredUserPair>& join) {
  for (UserId u = 0; u < db.num_users(); ++u) {
    if (!SameResults(FindSimilarUsers(db, u, query), ProbeRowsOf(join, u),
                     /*tolerance=*/0.0)) {
      return ::testing::AssertionFailure()
             << "probe of user " << u << " differs from its join rows";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace testing_util
}  // namespace stps

#endif  // STPS_TESTS_TEST_UTIL_H_
