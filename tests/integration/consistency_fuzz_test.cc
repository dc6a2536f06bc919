// Randomised cross-algorithm consistency: many random databases and
// random queries, every STPSJoin algorithm and every top-k variant —
// sequential and pool-parallel — must produce identical results, and the
// JoinStats filter counters must satisfy their accounting invariants.
// This is the broadest net in the suite — any unsound pruning bound,
// traversal gap, duplicate join, or worker race shows up here.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/sppj_d.h"
#include "core/stpsjoin.h"
#include "core/topk.h"
#include "sketch/sketch.h"
#include "sketch/sketch_join.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

// The counters partition every considered pair into disjoint outcomes;
// see join_stats.h. `matches` < 0 skips the exact-match check (top-k
// counts every sigma > 0 discovery, not just the surviving k).
void CheckStatsInvariants(const JoinStats& stats, int64_t matches,
                          const char* label) {
  EXPECT_EQ(stats.pairs_candidate,
            stats.pairs_pruned_count + stats.pairs_verified)
      << label;
  EXPECT_GE(stats.pairs_verified, stats.matches_found) << label;
  if (matches >= 0) {
    EXPECT_EQ(stats.matches_found, static_cast<uint64_t>(matches)) << label;
  }
}

// Sketch-driver accounting (sketch/sketch_join.h, a standalone driver the
// caller hands a BuildUserSketches index): every band-index candidate
// flows into the
// exact verify path (so the sketch counter IS the candidate counter) and
// candidates dominate survivors — the monotone chain
// sketch_candidate_pairs == pairs_candidate >= matches_found.
void CheckSketchInvariants(const JoinStats& stats, const char* label) {
  EXPECT_EQ(stats.sketch_candidate_pairs, stats.pairs_candidate) << label;
  EXPECT_GE(stats.sketch_candidate_pairs, stats.matches_found) << label;
}

class ConsistencyFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConsistencyFuzzTest, AllJoinAlgorithmsAgreeOnRandomConfigs) {
  Rng rng(GetParam());
  for (int round = 0; round < 7; ++round) {
    RandomDbSpec spec;
    spec.seed = rng.Next();
    spec.num_users = 15 + rng.NextBelow(25);
    spec.vocabulary = 10 + rng.NextBelow(30);
    spec.num_hotspots = 2 + rng.NextBelow(8);
    spec.hotspot_sigma = rng.Uniform(0.01, 0.08);
    spec.hotspot_probability = rng.Uniform(0.4, 0.95);
    const ObjectDatabase db = BuildRandomDatabase(spec);
    STPSQuery query;
    query.eps_loc = rng.Uniform(0.01, 0.3);
    query.eps_doc = rng.Uniform(0.1, 0.9);
    query.eps_u = rng.Uniform(0.05, 0.8);
    // Half of the rounds also exercise the temporal extension (all
    // generated timestamps are 0, so pick eps_time around that — either
    // permissive or prohibitive).
    if (rng.Bernoulli(0.3)) query.eps_time = rng.Uniform(0.0, 2.0);
    const auto expected = BruteForceSTPSJoin(db, query);
    // The single-user probe returns exactly each user's join rows.
    ASSERT_TRUE(testing_util::ProbesMatchJoin(db, query, expected))
        << "seed=" << spec.seed << " eps_loc=" << query.eps_loc
        << " eps_doc=" << query.eps_doc << " eps_u=" << query.eps_u
        << " eps_time=" << query.eps_time;
    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB,
          JoinAlgorithm::kSPPJF, JoinAlgorithm::kSPPJD}) {
      JoinOptions options;
      options.algorithm = algorithm;
      options.rtree_fanout = 2 + static_cast<int>(rng.NextBelow(60));
      // The umbrella always uses the R-tree; additionally exercise the
      // quadtree backend of S-PPJ-D directly.
      if (algorithm == JoinAlgorithm::kSPPJD) {
        SPPJDOptions d_options;
        d_options.fanout = options.rtree_fanout;
        d_options.partitioning = PartitioningScheme::kQuadTree;
        ASSERT_TRUE(SameResults(SPPJD(db, query, d_options), expected))
            << "quadtree backend, seed=" << spec.seed;
      }
      JoinStats stats;
      const auto sequential = RunSTPSJoin(db, query, options, &stats);
      ASSERT_TRUE(SameResults(sequential, expected))
          << JoinAlgorithmName(algorithm) << " seed=" << spec.seed
          << " eps_loc=" << query.eps_loc << " eps_doc=" << query.eps_doc
          << " eps_u=" << query.eps_u
          << " fanout=" << options.rtree_fanout;
      CheckStatsInvariants(stats, static_cast<int64_t>(expected.size()),
                           JoinAlgorithmName(algorithm).data());

      // The pool-parallel driver must be bit-identical with identical
      // counters (thread count varies with the round).
      options.threads = 2 + round % 3;
      JoinStats parallel_stats;
      const auto parallel = RunSTPSJoin(db, query, options, &parallel_stats);
      options.threads = 1;
      ASSERT_TRUE(SameResults(parallel, expected, /*tolerance=*/0.0))
          << "parallel " << JoinAlgorithmName(algorithm)
          << " seed=" << spec.seed;
      // Field-level comparisons first (sharper failure messages than the
      // aggregate equality): the work a pair triggers must not depend on
      // which worker ran it.
      EXPECT_EQ(parallel_stats.matches_found, stats.matches_found)
          << "parallel " << JoinAlgorithmName(algorithm)
          << " seed=" << spec.seed;
      EXPECT_EQ(parallel_stats.pairs_verified, stats.pairs_verified)
          << "parallel " << JoinAlgorithmName(algorithm)
          << " seed=" << spec.seed;
      EXPECT_EQ(parallel_stats.signature_rejections,
                stats.signature_rejections)
          << "parallel " << JoinAlgorithmName(algorithm)
          << " seed=" << spec.seed;
      EXPECT_EQ(parallel_stats, stats)
          << "parallel " << JoinAlgorithmName(algorithm)
          << " seed=" << spec.seed;
    }

    // The standalone sketch driver: bit-identical results and identical
    // counters at 1, 2, and 8 threads (it verifies a fixed candidate
    // list, so not even matches_found may depend on the thread count).
    const auto sketches = BuildUserSketches(db);
    JoinStats first_sketch_stats;
    for (const int threads : {1, 2, 8}) {
      JoinStats sketch_stats;
      const auto sketched = SketchSTPSJoin(
          db, *sketches, query, ParallelOptions{threads, 0}, &sketch_stats);
      ASSERT_TRUE(SameResults(sketched, expected, /*tolerance=*/0.0))
          << "sketch threads=" << threads << " seed=" << spec.seed;
      CheckStatsInvariants(sketch_stats,
                           static_cast<int64_t>(expected.size()), "sketch");
      CheckSketchInvariants(sketch_stats, "sketch");
      if (threads == 1) {
        first_sketch_stats = sketch_stats;
      } else {
        EXPECT_EQ(sketch_stats, first_sketch_stats)
            << "sketch threads=" << threads << " seed=" << spec.seed;
      }
    }

    // The planner route: whatever shape kAuto resolves to (the choice
    // may vary with thread budget and learned feedback), the results must
    // be the brute-force results, bit for bit.
    for (const int threads : {1, 2, 8}) {
      JoinOptions auto_options;
      auto_options.algorithm = JoinAlgorithm::kAuto;
      auto_options.threads = threads;
      JoinStats auto_stats;
      ASSERT_TRUE(SameResults(RunSTPSJoin(db, query, auto_options,
                                          &auto_stats),
                              expected, /*tolerance=*/0.0))
          << "kAuto threads=" << threads << " seed=" << spec.seed;
      CheckStatsInvariants(auto_stats, static_cast<int64_t>(expected.size()),
                           "kAuto");
    }
  }
}

// Duplicate object locations (and duplicate docs) stress tie handling in
// grid cell assignment, partition merging, and the matched-flag counting:
// every co-located pair either matches or is rejected purely textually.
TEST(ConsistencyDuplicateLocationsTest, AllAlgorithmsAgree) {
  DatabaseBuilder builder;
  const std::vector<std::string> docs[] = {
      {"coffee", "park"}, {"coffee", "park"}, {"museum"},
      {"coffee", "museum", "park"}, {"park"}};
  // Five users, all objects stacked on three distinct points; several
  // objects share both location and keyword set exactly.
  const Point points[] = {{0.25, 0.25}, {0.25, 0.25}, {0.75, 0.75}};
  Rng rng(12345);
  for (int u = 0; u < 5; ++u) {
    const std::string user = "user" + std::to_string(u);
    for (int o = 0; o < 6; ++o) {
      const auto& doc = docs[rng.NextBelow(5)];
      builder.AddObject(user, points[rng.NextBelow(3)],
                        std::span<const std::string>(doc));
    }
  }
  const ObjectDatabase db = std::move(builder).Build();
  for (const double eps_doc : {0.2, 0.5, 1.0}) {
    STPSQuery query;
    query.eps_loc = 0.1;
    query.eps_doc = eps_doc;
    query.eps_u = 0.3;
    const auto expected = BruteForceSTPSJoin(db, query);
    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB,
          JoinAlgorithm::kSPPJF, JoinAlgorithm::kSPPJD}) {
      JoinOptions options;
      options.algorithm = algorithm;
      JoinStats stats;
      ASSERT_TRUE(SameResults(RunSTPSJoin(db, query, options, &stats),
                              expected))
          << JoinAlgorithmName(algorithm) << " eps_doc=" << eps_doc;
      CheckStatsInvariants(stats, static_cast<int64_t>(expected.size()),
                           JoinAlgorithmName(algorithm).data());

      options.threads = 3;
      JoinStats parallel_stats;
      const auto parallel = RunSTPSJoin(db, query, options, &parallel_stats);
      options.threads = 1;
      ASSERT_TRUE(SameResults(parallel, expected, /*tolerance=*/0.0))
          << "parallel " << JoinAlgorithmName(algorithm)
          << " eps_doc=" << eps_doc;
      EXPECT_EQ(parallel_stats.matches_found, stats.matches_found)
          << JoinAlgorithmName(algorithm) << " eps_doc=" << eps_doc;
      EXPECT_EQ(parallel_stats.pairs_verified, stats.pairs_verified)
          << JoinAlgorithmName(algorithm) << " eps_doc=" << eps_doc;
      EXPECT_EQ(parallel_stats, stats)
          << JoinAlgorithmName(algorithm) << " eps_doc=" << eps_doc;
    }

    // Duplicate locations collapse many pairs into one sketch cell and
    // band; the candidate superset must still cover every match.
    const auto sketches = BuildUserSketches(db);
    for (const int threads : {1, 3}) {
      JoinStats sketch_stats;
      ASSERT_TRUE(SameResults(
          SketchSTPSJoin(db, *sketches, query, ParallelOptions{threads, 0},
                         &sketch_stats),
          expected, /*tolerance=*/0.0))
          << "sketch threads=" << threads << " eps_doc=" << eps_doc;
      CheckStatsInvariants(sketch_stats,
                           static_cast<int64_t>(expected.size()), "sketch");
      CheckSketchInvariants(sketch_stats, "sketch");
    }
  }
}

TEST_P(ConsistencyFuzzTest, AllTopKVariantsAgreeOnRandomConfigs) {
  Rng rng(GetParam() + 9999);
  for (int round = 0; round < 7; ++round) {
    RandomDbSpec spec;
    spec.seed = rng.Next();
    spec.num_users = 15 + rng.NextBelow(25);
    spec.vocabulary = 10 + rng.NextBelow(30);
    const ObjectDatabase db = BuildRandomDatabase(spec);
    TopKQuery query;
    query.eps_loc = rng.Uniform(0.01, 0.3);
    query.eps_doc = rng.Uniform(0.1, 0.9);
    query.k = 1 + rng.NextBelow(30);
    const auto expected = BruteForceTopK(db, query);
    for (const TopKAlgorithm algorithm :
         {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP}) {
      JoinStats stats;
      ASSERT_TRUE(SameResults(RunTopKSTPSJoin(db, query, algorithm, &stats),
                              expected))
          << TopKAlgorithmName(algorithm) << " seed=" << spec.seed
          << " k=" << query.k << " eps_loc=" << query.eps_loc
          << " eps_doc=" << query.eps_doc;
      CheckStatsInvariants(stats, /*matches=*/-1,
                           TopKAlgorithmName(algorithm).data());

      query.parallel = ParallelOptions{2 + round % 3, 0};
      JoinStats parallel_stats;
      const auto parallel =
          RunTopKSTPSJoin(db, query, algorithm, &parallel_stats);
      query.parallel = ParallelOptions{};
      ASSERT_TRUE(SameResults(parallel, expected, /*tolerance=*/0.0))
          << "parallel " << TopKAlgorithmName(algorithm)
          << " seed=" << spec.seed << " k=" << query.k;
      CheckStatsInvariants(parallel_stats, /*matches=*/-1,
                           TopKAlgorithmName(algorithm).data());
    }

    // The standalone sketch top-k driver, candidates in heavy-hitters
    // order: bit-identical top-k at 1, 2, and 8 threads, at a
    // round-varying heavy-list capacity (the verification order must
    // never leak into the results).
    const auto sketches = BuildUserSketches(db);
    const uint32_t heavy_capacity = 1 + static_cast<uint32_t>(round) * 7;
    for (const int threads : {1, 2, 8}) {
      JoinStats sketch_stats;
      ASSERT_TRUE(SameResults(
          SketchTopKSTPSJoin(db, *sketches, query,
                             ParallelOptions{threads, 0}, &sketch_stats,
                             heavy_capacity),
          expected, /*tolerance=*/0.0))
          << "sketch threads=" << threads << " seed=" << spec.seed
          << " k=" << query.k << " heavy_capacity=" << heavy_capacity;
      CheckStatsInvariants(sketch_stats, /*matches=*/-1, "sketch");
      CheckSketchInvariants(sketch_stats, "sketch");
    }

    // kAuto top-k resolves through the planner; the unique top-k under
    // the TopKBetter order must come back whatever shape it picks.
    for (const int threads : {1, 2, 8}) {
      query.parallel = ParallelOptions{threads, 0};
      ASSERT_TRUE(
          SameResults(RunTopKSTPSJoin(db, query, TopKAlgorithm::kAuto),
                      expected, /*tolerance=*/0.0))
          << "kAuto topk threads=" << threads << " seed=" << spec.seed
          << " k=" << query.k;
    }
    query.parallel = ParallelOptions{};
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsistencyFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace stps
