// Property tests for the per-user sketch layer (sketch/sketch.h):
//
//  * Soundness: candidate generation never drops a pair the exact path
//    reports — over fuzzed databases (with duplicate-token and empty-doc
//    users), at multiple eps_loc / eps_doc / eps_u, for both the
//    threshold join and top-k, and under deliberately collision-heavy
//    sketch parameters. This is the property the whole layer rests on:
//    the band index is a deterministic filter (shared token -> shared
//    band), so unlike classical MinHash-LSH banding it has no false
//    negatives to tolerate.
//  * Occupancy rejections are separation proofs: a pair with any object
//    pair within eps_loc is never OccupancyClose-rejected.
//  * MinHash union-Jaccard estimates stay within Chernoff-style bounds
//    at the fixed build seed.
//  * Count-min never under-counts.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stpsjoin.h"
#include "sketch/count_min.h"
#include "sketch/sketch.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;

// A random database with the sketch layer's adversarial ingredients
// mixed in: users whose objects repeat tokens, users with empty docs
// (alone and mixed with real docs), and duplicate locations.
ObjectDatabase BuildFuzzDatabase(uint64_t seed) {
  Rng rng(seed);
  DatabaseBuilder builder;
  std::vector<std::string> kws;
  const size_t users = 12 + rng.NextBelow(10);
  for (size_t u = 0; u < users; ++u) {
    const std::string key = "user" + std::to_string(u);
    const size_t objects = 1 + rng.NextBelow(6);
    for (size_t o = 0; o < objects; ++o) {
      Point p{rng.Uniform(0, 1), rng.Uniform(0, 1)};
      if (rng.Bernoulli(0.3)) p = {0.25, 0.25};  // duplicate location
      kws.clear();
      const size_t tokens = rng.NextBelow(5);  // 0 => empty doc
      for (size_t t = 0; t < tokens; ++t) {
        kws.push_back("kw" + std::to_string(rng.NextBelow(12)));
      }
      if (!kws.empty() && rng.Bernoulli(0.5)) {
        kws.push_back(kws.front());  // duplicate token within the object
      }
      builder.AddObject(key, p, std::span<const std::string>(kws));
    }
  }
  // One user with only empty docs, one with heavy duplication.
  builder.AddObject("all_empty", {0.5, 0.5}, std::span<const std::string>());
  builder.AddObject("all_empty", {0.25, 0.25},
                    std::span<const std::string>());
  const std::vector<std::string> dup = {"kw1", "kw1", "kw1", "kw2"};
  builder.AddObject("dup_heavy", {0.25, 0.25},
                    std::span<const std::string>(dup));
  builder.AddObject("dup_heavy", {0.7, 0.7},
                    std::span<const std::string>(dup));
  return std::move(builder).Build();
}

bool ContainsPair(const std::vector<std::pair<UserId, UserId>>& pairs,
                  UserId a, UserId b) {
  return std::binary_search(pairs.begin(), pairs.end(),
                            std::make_pair(a, b));
}

// Every pair the exact join / top-k reports must appear in the candidate
// set generated at the query's eps_loc.
void CheckSoundness(const ObjectDatabase& db, const UserSketchIndex& index,
                    uint64_t seed) {
  for (const double eps_loc : {0.03, 0.12, 0.4}) {
    const SketchCandidates cand = index.GenerateCandidates(eps_loc);
    // Structural sanity: sorted unique (a, b) pairs, a < b, priority is a
    // permutation.
    for (size_t i = 0; i < cand.pairs.size(); ++i) {
      EXPECT_LT(cand.pairs[i].first, cand.pairs[i].second);
      if (i > 0) {
        EXPECT_LT(cand.pairs[i - 1], cand.pairs[i]);
      }
    }
    std::vector<uint32_t> priority = cand.priority;
    std::sort(priority.begin(), priority.end());
    ASSERT_EQ(priority.size(), cand.pairs.size());
    for (size_t i = 0; i < priority.size(); ++i) {
      EXPECT_EQ(priority[i], i);
    }

    for (const double eps_doc : {0.25, 0.5, 1.0}) {
      for (const double eps_u : {0.05, 0.3, 0.6}) {
        const STPSQuery query{eps_loc, eps_doc, eps_u};
        for (const ScoredUserPair& pair : BruteForceSTPSJoin(db, query)) {
          EXPECT_TRUE(ContainsPair(cand.pairs, pair.a, pair.b))
              << "seed=" << seed << " dropped join pair (" << pair.a << ","
              << pair.b << ") eps_loc=" << eps_loc << " eps_doc=" << eps_doc
              << " eps_u=" << eps_u;
        }
      }
      const TopKQuery topk{eps_loc, eps_doc, 1000};
      for (const ScoredUserPair& pair : BruteForceTopK(db, topk)) {
        EXPECT_TRUE(ContainsPair(cand.pairs, pair.a, pair.b))
            << "seed=" << seed << " dropped top-k pair (" << pair.a << ","
            << pair.b << ") eps_loc=" << eps_loc << " eps_doc=" << eps_doc;
      }
    }
  }
}

class SketchSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SketchSoundnessTest, BandIndexNeverDropsAnExactPair) {
  const ObjectDatabase db = BuildFuzzDatabase(GetParam());
  CheckSoundness(db, *BuildUserSketches(db), GetParam());
}

TEST_P(SketchSoundnessTest, SoundUnderCollisionHeavyParams) {
  // Tiny band count and grids force maximal aliasing: many tokens per
  // band, many points per cell. Soundness must not depend on resolution.
  const ObjectDatabase db = BuildFuzzDatabase(GetParam() + 777);
  SketchParams params;
  params.num_hashes = 8;
  params.num_bands = 4;
  params.index_grid_bits = 1;
  params.occupancy_grid_bits = 3;
  params.seed = GetParam();
  CheckSoundness(db, *BuildUserSketches(db, params), GetParam());
}

TEST_P(SketchSoundnessTest, HotspotDatabasesStaySound) {
  RandomDbSpec spec;
  spec.seed = GetParam();
  spec.num_users = 25;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  CheckSoundness(db, *BuildUserSketches(db), GetParam());
}

TEST_P(SketchSoundnessTest, OccupancyRejectionIsASeparationProof) {
  const ObjectDatabase db = BuildFuzzDatabase(GetParam() + 31);
  const UserSketchIndex index(db, SketchParams{});
  for (const double eps_loc : {0.02, 0.1, 0.5}) {
    for (UserId u = 0; u < db.num_users(); ++u) {
      for (UserId v = u + 1; v < db.num_users(); ++v) {
        bool spatially_close = false;
        for (const STObject& a : db.UserObjects(u)) {
          for (const STObject& b : db.UserObjects(v)) {
            if (WithinDistance(a.loc, b.loc, eps_loc)) {
              spatially_close = true;
              break;
            }
          }
          if (spatially_close) break;
        }
        if (spatially_close) {
          EXPECT_TRUE(index.OccupancyClose(u, v, eps_loc))
              << "rejected a spatially close pair (" << u << "," << v
              << ") at eps_loc=" << eps_loc;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SketchSoundnessTest,
                         ::testing::Values(3, 17, 42, 91, 128));

TEST(SketchMinHashTest, EstimatesWithinChernoffBounds) {
  // 40 users with structured overlap (nested prefixes of a 60-token
  // vocabulary: exact Jaccards at many distinct rationals). With k = 64
  // rows, P(|est - J| >= 0.35) <= 2 exp(-2 * 64 * 0.35^2) ~ 3e-7 per
  // pair; at the fixed build seed the bound must hold for every pair,
  // and the mean absolute error must be well inside 1/sqrt(k).
  DatabaseBuilder builder;
  std::vector<std::string> kws;
  for (int u = 0; u < 40; ++u) {
    kws.clear();
    for (int t = 0; t <= u + u % 3; ++t) {
      kws.push_back("tok" + std::to_string(t));
    }
    builder.AddObject("user" + std::to_string(u),
                      {0.1 * (u % 7), 0.1 * (u / 7)},
                      std::span<const std::string>(kws));
  }
  const ObjectDatabase db = std::move(builder).Build();
  const UserSketchIndex index(db, SketchParams{});

  std::vector<std::set<TokenId>> unions(db.num_users());
  for (const STObject& o : db.AllObjects()) {
    unions[o.user].insert(o.doc.begin(), o.doc.end());
  }
  double total_error = 0.0;
  size_t pairs = 0;
  for (UserId u = 0; u < db.num_users(); ++u) {
    for (UserId v = u + 1; v < db.num_users(); ++v) {
      std::vector<TokenId> common;
      std::set_intersection(unions[u].begin(), unions[u].end(),
                            unions[v].begin(), unions[v].end(),
                            std::back_inserter(common));
      const size_t inter = common.size();
      const size_t uni = unions[u].size() + unions[v].size() - inter;
      const double truth =
          uni == 0 ? 0.0
                   : static_cast<double>(inter) / static_cast<double>(uni);
      const double estimate = index.EstimateUnionJaccard(u, v);
      const double error = std::fabs(estimate - truth);
      EXPECT_LE(error, 0.35) << "pair (" << u << "," << v << ") truth="
                             << truth << " estimate=" << estimate;
      total_error += error;
      ++pairs;
    }
  }
  EXPECT_LE(total_error / static_cast<double>(pairs), 0.08);
}

TEST(SketchMinHashTest, EmptyUnionEstimatesZero) {
  DatabaseBuilder builder;
  const std::vector<std::string> doc = {"a", "b"};
  builder.AddObject("empty1", {0, 0}, std::span<const std::string>());
  builder.AddObject("empty2", {1, 1}, std::span<const std::string>());
  builder.AddObject("full", {2, 2}, std::span<const std::string>(doc));
  const ObjectDatabase db = std::move(builder).Build();
  const UserSketchIndex index(db, SketchParams{});
  // Two empty unions: Jaccard 0 by convention, not the 1.0 their
  // identical all-sentinel signatures would suggest.
  EXPECT_EQ(index.EstimateUnionJaccard(0, 1), 0.0);
  EXPECT_EQ(index.EstimateUnionJaccard(0, 2), 0.0);
  EXPECT_EQ(index.EstimateUnionJaccard(2, 2), 1.0);
}

TEST(CountMinTest, NeverUnderCounts) {
  Rng rng(2024);
  // Width 256 with 4000 adds over 700 keys: heavy collision pressure, so
  // estimates genuinely exceed truth — the test is that they never dip
  // below it.
  CountMinSketch cms(/*log2_width=*/8, /*depth=*/4, /*seed=*/7);
  std::unordered_map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 4000; ++i) {
    const uint64_t key = rng.NextBelow(700);
    const uint64_t count = 1 + rng.NextBelow(9);
    truth[key] += count;
    cms.Add(key, count);
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(cms.Estimate(key), count) << "key=" << key;
  }
  // Keys never added can only report collision mass, never underflow.
  EXPECT_GE(cms.Estimate(999999), 0u);
}

TEST(CountMinTest, ExactWithoutCollisions) {
  // 8 keys in a 2^16-wide sketch: collisions are (deterministically, at
  // this seed) absent and the estimate is exact.
  CountMinSketch cms(/*log2_width=*/16, /*depth=*/4, /*seed=*/11);
  for (uint64_t key = 0; key < 8; ++key) cms.Add(key, key + 1);
  for (uint64_t key = 0; key < 8; ++key) {
    EXPECT_EQ(cms.Estimate(key), key + 1);
  }
}

TEST(SketchCandidateTest, HeavyCapacityBoundsThePriorityHead) {
  RandomDbSpec spec;
  spec.seed = 5;
  spec.num_users = 30;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  constexpr uint32_t kFew = 3;
  const SketchCandidates cand =
      BuildUserSketches(db)->GenerateCandidates(0.1, kFew);
  if (cand.pairs.size() <= kFew) return;
  // Beyond the heavy head the order must be the natural (a, b) order.
  for (size_t i = kFew + 1; i < cand.priority.size(); ++i) {
    EXPECT_LT(cand.priority[i - 1], cand.priority[i]);
  }
}

}  // namespace
}  // namespace stps
