// Determinism suite for the pool-parallel join drivers: every parallel
// algorithm must produce bit-identical results (tolerance 0) to its
// sequential counterpart at 1, 2, and 8 threads, with identical
// JoinStats counters, on seeded random datasets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/sppj_b.h"
#include "core/sppj_c.h"
#include "core/sppj_d.h"
#include "core/sppj_f.h"
#include "core/sppj_f_parallel.h"
#include "core/stpsjoin.h"
#include "core/topk.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;
using testing_util::SameResults;

class ParallelJoinTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelJoinTest, SPPJFMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam()};
  for (const uint64_t seed : {1u, 2u, 3u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    JoinStats seq_stats, par_stats;
    const auto expected = SPPJF(db, query, &seq_stats);
    const auto actual = SPPJFParallel(db, query, parallel, &par_stats);
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << "threads=" << parallel.num_threads << " seed=" << seed;
    EXPECT_EQ(par_stats, seq_stats)
        << "threads=" << parallel.num_threads << " seed=" << seed;
  }
}

TEST_P(ParallelJoinTest, SPPJBMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam()};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_users = 20;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    JoinStats seq_stats, par_stats;
    const auto expected = SPPJB(db, query, &seq_stats);
    const auto actual = SPPJBParallel(db, query, parallel, &par_stats);
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << "threads=" << parallel.num_threads << " seed=" << seed;
    EXPECT_EQ(par_stats, seq_stats);
  }
}

TEST_P(ParallelJoinTest, SPPJCMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam()};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    spec.num_users = 20;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    JoinStats seq_stats, par_stats;
    const auto expected = SPPJC(db, query, &seq_stats);
    const auto actual = SPPJCParallel(db, query, parallel, &par_stats);
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << "threads=" << parallel.num_threads << " seed=" << seed;
    EXPECT_EQ(par_stats, seq_stats);
  }
}

TEST_P(ParallelJoinTest, SPPJDMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam()};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    const STPSQuery query{0.1, 0.3, 0.25};
    for (const PartitioningScheme scheme :
         {PartitioningScheme::kRTree, PartitioningScheme::kQuadTree}) {
      SPPJDOptions options;
      options.fanout = 16;
      options.partitioning = scheme;
      JoinStats seq_stats, par_stats;
      const auto expected = SPPJD(db, query, options, &seq_stats);
      const auto actual =
          SPPJDParallel(db, query, options, parallel, &par_stats);
      EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
          << "threads=" << parallel.num_threads << " seed=" << seed;
      EXPECT_EQ(par_stats, seq_stats);
    }
  }
}

TEST_P(ParallelJoinTest, TopKMatchesSequentialBitIdentical) {
  const ParallelOptions parallel{GetParam()};
  for (const uint64_t seed : {1u, 2u}) {
    RandomDbSpec spec;
    spec.seed = seed;
    const ObjectDatabase db = BuildRandomDatabase(spec);
    for (const size_t k : {size_t{1}, size_t{5}, size_t{40}}) {
      TopKQuery query;
      query.eps_loc = 0.1;
      query.eps_doc = 0.3;
      query.k = k;
      for (const TopKVariant variant :
           {TopKVariant::kF, TopKVariant::kS, TopKVariant::kP}) {
        const auto expected = TopKSTPSJoin(db, query, variant);
        const auto actual =
            TopKSTPSJoinParallel(db, query, variant, parallel);
        EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
            << "threads=" << parallel.num_threads << " seed=" << seed
            << " k=" << k << " variant=" << static_cast<int>(variant);
      }
    }
  }
}

TEST_P(ParallelJoinTest, DeterministicAcrossRuns) {
  const ParallelOptions parallel{GetParam()};
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const STPSQuery query{0.08, 0.4, 0.2};
  const auto first = SPPJFParallel(db, query, parallel);
  const auto second = SPPJFParallel(db, query, parallel);
  EXPECT_TRUE(SameResults(first, second, /*tolerance=*/0.0));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelJoinTest,
                         ::testing::Values(1, 2, 8));

TEST(ParallelJoinTest, EmptyDatabase) {
  DatabaseBuilder builder;
  const ObjectDatabase db = std::move(builder).Build();
  EXPECT_TRUE(SPPJFParallel(db, {0.1, 0.3, 0.3}, ParallelOptions{4}).empty());
}

TEST(ParallelJoinTest, MoreThreadsThanUsers) {
  RandomDbSpec spec;
  spec.num_users = 3;
  const ObjectDatabase db = BuildRandomDatabase(spec);
  const STPSQuery query{0.2, 0.2, 0.1};
  EXPECT_TRUE(SameResults(SPPJFParallel(db, query, ParallelOptions{16}),
                          SPPJF(db, query)));
}

TEST(ParallelJoinTest, JoinOptionsThreadsRouteThroughRunSTPSJoin) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  const STPSQuery query{0.1, 0.3, 0.25};
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD}) {
    JoinOptions options;
    options.algorithm = algorithm;
    JoinStats seq_stats, par_stats;
    const auto expected = RunSTPSJoin(db, query, options, &seq_stats);
    options.threads = 8;
    const auto actual = RunSTPSJoin(db, query, options, &par_stats);
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << JoinAlgorithmName(algorithm);
    EXPECT_EQ(par_stats, seq_stats) << JoinAlgorithmName(algorithm);
  }
}

TEST(ParallelJoinTest, QueryParallelOptionsRouteThroughRunTopK) {
  const ObjectDatabase db = BuildRandomDatabase(RandomDbSpec{});
  TopKQuery query;
  query.eps_loc = 0.1;
  query.eps_doc = 0.3;
  query.k = 10;
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP}) {
    const auto expected = RunTopKSTPSJoin(db, query, algorithm);
    query.parallel = ParallelOptions{8};
    const auto actual = RunTopKSTPSJoin(db, query, algorithm);
    query.parallel = ParallelOptions{};
    EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
        << TopKAlgorithmName(algorithm);
  }
}

// Parallel TOPK-S-PPJ-P on the CheckinSparse corpus of the sweep_sparse
// benchmark (1,600 users) and its six top-k queries: the same results at
// 2 and 4 threads as at one, from at most 4x the verified pairs. Workers
// that start at the end of the ascending-size order and prune only
// against their own queue verify 7-21x the pairs at 2 threads.
TEST(ParallelJoinTest, TopKPVerifiesAtMostFourTimesOneThread) {
  const ObjectDatabase db = GenerateDataset(
      PresetSpec(DatasetKind::kCheckinSparse, 1600, 20160315));
  double worst[2] = {0.0, 0.0};
  for (const double eps_loc : {0.001, 0.004}) {
    for (const double eps_doc : {0.3, 0.4, 0.5}) {
      TopKQuery query;
      query.eps_loc = eps_loc;
      query.eps_doc = eps_doc;
      query.k = 10;
      JoinStats one;
      const auto expected = TopKSTPSJoin(db, query, TopKVariant::kP, &one);
      ASSERT_GT(one.pairs_verified, 0u);
      for (const int threads : {2, 4}) {
        JoinStats par;
        const auto actual = TopKSTPSJoinParallel(
            db, query, TopKVariant::kP, ParallelOptions{threads}, &par);
        EXPECT_TRUE(SameResults(actual, expected, /*tolerance=*/0.0))
            << "threads=" << threads << " eps_loc=" << eps_loc
            << " eps_doc=" << eps_doc;
        EXPECT_LE(par.pairs_verified, 4 * one.pairs_verified)
            << "threads=" << threads << " eps_loc=" << eps_loc
            << " eps_doc=" << eps_doc << " one thread verified "
            << one.pairs_verified;
        double& w = worst[threads == 2 ? 0 : 1];
        w = std::max(w, static_cast<double>(par.pairs_verified) /
                            static_cast<double>(one.pairs_verified));
      }
    }
  }
  std::printf("TOPK-S-PPJ-P verified pairs, largest ratio to one thread: "
              "%.2fx at 2 threads, %.2fx at 4\n",
              worst[0], worst[1]);
}

// Regression for the supporting-cell dedup in the S-PPJ-F filter: the
// probing user's cells are processed in ascending order, but a
// candidate's supporting cells arrive interleaved across that outer
// loop, so a last-cell check alone would count a cell twice and inflate
// the sigma_bar count bound. Layout (eps_loc = 0.1, so
// cells are 0.1 wide): the candidate sits in cells (0,0) and (2,0); the
// prober's cell (1,0) pulls both in, then its cell (0,1) pulls (0,0) in
// again -> the candidate's cells arrive as (0,0), (2,0), (0,0).
TEST(ParallelJoinTest, InterleavedCandidateCellsAreDeduplicated) {
  DatabaseBuilder builder;
  const auto add = [&builder](const char* user, double x, double y,
                              std::vector<std::string> kws) {
    builder.AddObject(user, Point{x, y}, std::span<const std::string>(kws));
  };
  add("a", 0.05, 0.05, {"t1"});
  add("a", 0.25, 0.05, {"t1"});
  add("b", 0.15, 0.05, {"t1"});
  add("b", 0.05, 0.15, {"t1"});
  const ObjectDatabase db = std::move(builder).Build();
  const STPSQuery query{0.1, 0.5, 0.3};

  const auto expected = BruteForceSTPSJoin(db, query);
  JoinStats seq_stats;
  const auto sequential = SPPJF(db, query, &seq_stats);
  EXPECT_TRUE(SameResults(sequential, expected));
  EXPECT_EQ(seq_stats.pairs_candidate,
            seq_stats.pairs_pruned_count + seq_stats.pairs_verified);
  for (const int threads : {1, 2, 8}) {
    JoinStats par_stats;
    const auto parallel = SPPJFParallel(
        db, query, ParallelOptions{threads}, &par_stats);
    EXPECT_TRUE(SameResults(parallel, sequential, /*tolerance=*/0.0));
    // Identical counters imply both sides counted the same deduplicated
    // supporting cells (a missed dedup shifts pairs_pruned_count).
    EXPECT_EQ(par_stats, seq_stats) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace stps
