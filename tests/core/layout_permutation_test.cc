// Layout-permutation invariance: the Z-order/SoA database layout reorders
// objects physically, and the filter drivers iterate candidates in
// different orders than the seed code — none of which may leak into
// results. Feeding the same logical records in shuffled insertion orders
// must produce identical *name-keyed* result sets (user ids are assigned
// by first sight, so ids legitimately differ between permutations) with
// bit-identical scores, for every join variant, sequential and parallel.

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "core/sppj_d.h"
#include "core/stpsjoin.h"
#include "core/topk.h"

namespace stps {
namespace {

struct Record {
  std::string user;
  Point loc;
  std::vector<std::string> doc;
  double time = 0.0;
};

// Clustered records with heavy token overlap, so every variant exercises
// its filter, bound, and refine stages.
std::vector<Record> MakeRecords() {
  Rng rng(424242);
  std::vector<Record> records;
  const Point hotspots[] = {{0.0, 0.0}, {1.0, 1.0}, {5.0, -2.0}};
  for (int u = 0; u < 24; ++u) {
    const int objects = 2 + static_cast<int>(rng.NextBelow(5));
    for (int o = 0; o < objects; ++o) {
      Record r;
      r.user = "user" + std::to_string(u);
      const Point& h = hotspots[rng.NextBelow(3)];
      r.loc = {h.x + rng.NextDouble() * 0.3, h.y + rng.NextDouble() * 0.3};
      const int vocab = 2 + static_cast<int>(rng.NextBelow(5));
      for (int t = 0; t < vocab; ++t) {
        r.doc.push_back("tok" + std::to_string(rng.NextBelow(12)));
      }
      r.time = static_cast<double>(rng.NextBelow(100));
      records.push_back(std::move(r));
    }
  }
  return records;
}

ObjectDatabase BuildShuffled(std::vector<Record> records, uint64_t seed) {
  if (seed != 0) {  // seed 0 = original order
    Rng rng(seed);
    for (size_t i = records.size(); i > 1; --i) {
      std::swap(records[i - 1], records[rng.NextBelow(i)]);
    }
  }
  DatabaseBuilder builder;
  for (const Record& r : records) {
    builder.AddObject(r.user, r.loc, std::span<const std::string>(r.doc),
                      r.time);
  }
  return std::move(builder).Build();
}

using NamedPair = std::tuple<std::string, std::string, double>;

// Canonical name-keyed form: (min name, max name, score), sorted.
std::vector<NamedPair> Named(const ObjectDatabase& db,
                             const std::vector<ScoredUserPair>& pairs) {
  std::vector<NamedPair> named;
  named.reserve(pairs.size());
  for (const ScoredUserPair& p : pairs) {
    std::string a(db.UserName(p.a));
    std::string b(db.UserName(p.b));
    if (b < a) std::swap(a, b);
    named.emplace_back(std::move(a), std::move(b), p.score);
  }
  std::sort(named.begin(), named.end());
  return named;
}

std::vector<double> Scores(const std::vector<ScoredUserPair>& pairs) {
  std::vector<double> scores;
  scores.reserve(pairs.size());
  for (const ScoredUserPair& p : pairs) scores.push_back(p.score);
  std::sort(scores.begin(), scores.end());
  return scores;
}

constexpr uint64_t kShuffleSeeds[] = {0, 17, 91, 2024};

TEST(LayoutPermutationTest, JoinVariantsAreInsertionOrderInvariant) {
  const std::vector<Record> records = MakeRecords();
  const STPSQuery queries[] = {
      {0.25, 0.3, 0.1},
      {0.1, 0.5, 0.05},
      {0.4, 0.2, 0.15},
  };
  for (const STPSQuery& base : queries) {
    // Reference: original insertion order, sequential S-PPJ-C.
    const ObjectDatabase ref_db = BuildShuffled(records, 0);
    JoinOptions ref_options;
    ref_options.algorithm = JoinAlgorithm::kSPPJC;
    ref_options.rtree_fanout = 16;
    const std::vector<NamedPair> expected =
        Named(ref_db, RunSTPSJoin(ref_db, base, ref_options));
    ASSERT_FALSE(expected.empty());  // guard against a vacuous test

    for (const uint64_t seed : kShuffleSeeds) {
      const ObjectDatabase db = BuildShuffled(records, seed);
      for (const JoinAlgorithm algorithm :
           {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB,
            JoinAlgorithm::kSPPJF, JoinAlgorithm::kSPPJD}) {
        JoinOptions options;
        options.algorithm = algorithm;
        options.rtree_fanout = 16;
        EXPECT_EQ(Named(db, RunSTPSJoin(db, base, options)), expected)
            << JoinAlgorithmName(algorithm) << " shuffle=" << seed;
        options.threads = 3;
        EXPECT_EQ(Named(db, RunSTPSJoin(db, base, options)), expected)
            << "parallel " << JoinAlgorithmName(algorithm)
            << " shuffle=" << seed;
      }
    }
  }
}

TEST(LayoutPermutationTest, TopKVariantsAreInsertionOrderInvariant) {
  const std::vector<Record> records = MakeRecords();
  const ObjectDatabase ref_db = BuildShuffled(records, 0);

  // k past the result size: the full match set must come back, so the
  // name-keyed pair sets are comparable exactly.
  const TopKQuery all{0.25, 0.3, 10000};
  const std::vector<NamedPair> expected_all =
      Named(ref_db, RunTopKSTPSJoin(ref_db, all, TopKAlgorithm::kF));
  ASSERT_FALSE(expected_all.empty());

  // Small k: the boundary may cut through a band of tied scores, and ties
  // are broken on permutation-dependent user ids — so the guaranteed
  // invariant is the score multiset, not the pair identities.
  const TopKQuery small{0.25, 0.3, 5};
  const std::vector<double> expected_scores =
      Scores(RunTopKSTPSJoin(ref_db, small, TopKAlgorithm::kF));
  ASSERT_EQ(expected_scores.size(), 5u);

  for (const uint64_t seed : kShuffleSeeds) {
    const ObjectDatabase db = BuildShuffled(records, seed);
    for (const TopKAlgorithm algorithm :
         {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP}) {
      EXPECT_EQ(Named(db, RunTopKSTPSJoin(db, all, algorithm)), expected_all)
          << TopKAlgorithmName(algorithm) << " shuffle=" << seed;
      EXPECT_EQ(Scores(RunTopKSTPSJoin(db, small, algorithm)),
                expected_scores)
          << TopKAlgorithmName(algorithm) << " shuffle=" << seed;
      TopKQuery parallel_small = small;
      parallel_small.parallel = ParallelOptions{3};
      EXPECT_EQ(Scores(RunTopKSTPSJoin(db, parallel_small, algorithm)),
                expected_scores)
          << "parallel " << TopKAlgorithmName(algorithm)
          << " shuffle=" << seed;
    }
    EXPECT_EQ(Named(db, TopKSPPJD(db, all, /*fanout=*/16)), expected_all)
        << "TopKSPPJD shuffle=" << seed;
    EXPECT_EQ(Scores(TopKSPPJD(db, small, /*fanout=*/16)), expected_scores)
        << "TopKSPPJD shuffle=" << seed;
  }
}

}  // namespace
}  // namespace stps
