// Boundary-adversarial differential oracle (the companion of
// common/predicates.h). Every database here is built so that threshold
// comparisons land exactly ON predicate boundaries — point pairs at
// exactly eps_loc apart and one ULP to either side, token sets whose
// Jaccard is exactly the threshold rational, user pairs whose sigma equals
// eps_u as a rational, duplicate locations, empty and singleton docs —
// and every join variant (sequential and pool-parallel) plus every top-k
// variant is differentially checked against the brute-force O(n^2)
// reference. Before the unified predicate layer, each layer rounded
// thresholds its own way, and these inputs are precisely the ones where
// the layers used to disagree by one ULP.

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/predicates.h"
#include "common/rng.h"
#include "core/sppj_d.h"
#include "core/stpsjoin.h"
#include "core/topk.h"
#include "sketch/sketch.h"
#include "sketch/sketch_join.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::SameResults;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Token sets are drawn from the nested prefix family P_k = {w0, ..., wk}:
// Jaccard(P_i, P_j) = (i+1)/(j+1) for i <= j, so every small rational is
// realisable exactly, including the query thresholds themselves.
std::vector<std::string> PrefixDoc(int k) {
  std::vector<std::string> doc;
  for (int i = 0; i <= k; ++i) doc.push_back("w" + std::to_string(i));
  return doc;
}

// Builds the adversarial database for a given lattice pitch (== eps_loc of
// the boundary queries). Deterministic in `seed`.
ObjectDatabase BuildAdversarialDatabase(double eps_loc, uint64_t seed) {
  Rng rng(seed);
  DatabaseBuilder builder;
  const auto add = [&builder](const std::string& user, Point p,
                              const std::vector<std::string>& doc) {
    builder.AddObject(user, p, std::span<const std::string>(doc));
  };

  // --- Lattice block: points at exact multiples of eps_loc. Axis
  // neighbours are exactly eps_loc apart (subtraction of equal-exponent
  // multiples is exact for these pitches), diagonal neighbours exactly
  // sqrt(2) * eps_loc — both sides of every spatial boundary.
  const int kLattice = 5;
  for (int u = 0; u < 6; ++u) {
    const std::string user = "lat" + std::to_string(u);
    const int objects = 2 + static_cast<int>(rng.NextBelow(4));
    for (int o = 0; o < objects; ++o) {
      const int gx = static_cast<int>(rng.NextBelow(kLattice));
      const int gy = static_cast<int>(rng.NextBelow(kLattice));
      Point p{eps_loc * gx, eps_loc * gy};
      // A third of the lattice points are nudged one ULP outward or
      // inward, turning "exactly eps_loc apart" into "one ULP above /
      // below eps_loc apart".
      const uint64_t nudge = rng.NextBelow(3);
      if (nudge == 1) p.x = std::nextafter(p.x, kInf);
      if (nudge == 2) p.x = std::nextafter(p.x, -kInf);
      add(user, p, PrefixDoc(static_cast<int>(rng.NextBelow(6))));
    }
  }

  // --- Duplicate-location block: users stacked on the same two points
  // with docs straddling the Jaccard boundary (P_1 vs P_3 gives exactly
  // 1/2, P_1 vs P_5 exactly 1/3, P_0 vs P_4 exactly 1/5).
  const Point stack_a{10.0, 10.0};
  const Point stack_b{10.0 + eps_loc, 10.0};
  for (int u = 0; u < 5; ++u) {
    const std::string user = "dup" + std::to_string(u);
    add(user, stack_a, PrefixDoc(2 * u % 6));
    add(user, u % 2 == 0 ? stack_a : stack_b, PrefixDoc(u % 4));
  }

  // --- Sigma-boundary block: engineered so pairs hit sigma = 1/2 and 1/3
  // exactly. Each "half" user has one object in the shared pile (always
  // matches within the block) and one isolated object; each "third" user
  // has one shared and two isolated (sigma = 2/6 = 1/3 within its group).
  const Point far_pile{-50.0, -50.0};
  for (int u = 0; u < 4; ++u) {
    const std::string user = "half" + std::to_string(u);
    add(user, far_pile, PrefixDoc(3));
    add(user, {-60.0 - 10.0 * u, 40.0}, {"iso_h" + std::to_string(u)});
  }
  const Point third_pile{-80.0, -80.0};
  for (int u = 0; u < 4; ++u) {
    const std::string user = "third" + std::to_string(u);
    add(user, third_pile, PrefixDoc(4));
    add(user, {-90.0 - 10.0 * u, 60.0}, {"iso_t" + std::to_string(u)});
    add(user, {-90.0 - 10.0 * u, 80.0}, {"iso_u" + std::to_string(u)});
  }

  // --- Rounding-up tie block: sigma = 2/10 = 1/5 for every pair of
  // "fifth" users (one object each in a shared pile, four isolated
  // ones). fl(1/5) lies above the rational 1/5, so a top-k prune against
  // the rounded tail score would reject an exact tie.
  const Point fifth_pile{-120.0, -120.0};
  for (int u = 0; u < 5; ++u) {
    const std::string user = "fifth" + std::to_string(u);
    add(user, fifth_pile, PrefixDoc(2));
    for (int o = 0; o < 4; ++o) {
      add(user, {-130.0 - 10.0 * u, 100.0 + 10.0 * o},
          {"iso_f" + std::to_string(u) + "_" + std::to_string(o)});
    }
  }

  // --- Degenerate-doc block: empty docs (never match any positive
  // eps_doc) and singleton docs (Jaccard is 0, 1/2, or 1 — nothing else)
  // sitting right on top of lattice points.
  add("deg0", {0.0, 0.0}, {});
  add("deg0", {eps_loc, 0.0}, {"w0"});
  add("deg1", {0.0, 0.0}, {"w0"});
  add("deg1", {0.0, eps_loc}, {});
  add("deg2", {eps_loc, eps_loc}, {"w0", "w1"});

  return std::move(builder).Build();
}

// One boundary query set per lattice pitch: thresholds sit exactly on the
// rationals the database realises, one ULP to either side, and on
// non-representable literals whose rounding direction is known.
std::vector<STPSQuery> BoundaryJoinQueries(double eps_loc) {
  std::vector<STPSQuery> queries;
  const double third = 1.0 / 3.0;
  for (const double eps_doc :
       {0.5, std::nextafter(0.5, 1.0), third, std::nextafter(third, 0.0),
        0.2, 1.0}) {
    for (const double eps_u :
         {0.5, std::nextafter(0.5, 1.0), std::nextafter(0.5, 0.0), third,
          0.25, 1.0}) {
      queries.push_back({eps_loc, eps_doc, eps_u});
    }
  }
  // Spatial boundary: eps_loc one ULP below the pitch drops the exact
  // lattice-neighbour pairs.
  queries.push_back({std::nextafter(eps_loc, 0.0), 0.5, 0.5});
  queries.push_back({std::nextafter(eps_loc, kInf), 0.5, 0.5});
  // sqrt(2)*pitch: the diagonal-neighbour boundary.
  queries.push_back({std::sqrt(2.0) * eps_loc, third, third});
  return queries;
}

// k values landing inside the sigma = 1/5 band of the rounding-up tie
// block: a queue filled to the band's third pair holds a tail that a
// later-visited band pair beats on the (a, b) tie-break.
std::vector<size_t> FifthBandKs(const ObjectDatabase& db, double eps_loc,
                                double eps_doc) {
  const size_t users = db.num_users();
  const auto all =
      BruteForceTopK(db, TopKQuery{eps_loc, eps_doc, users * users});
  size_t above = 0;
  size_t band = 0;
  for (const ScoredUserPair& pair : all) {
    if (pair.score > 0.2) ++above;
    if (pair.score == 0.2) ++band;
  }
  EXPECT_GE(band, 10u) << "eps_loc=" << eps_loc << " eps_doc=" << eps_doc;
  return {above + 3, above + band / 2, above + band - 1};
}

class BoundaryOracleTest : public ::testing::TestWithParam<double> {};

TEST_P(BoundaryOracleTest, AllJoinVariantsMatchBruteForce) {
  const double eps_loc = GetParam();
  for (const uint64_t seed : {7u, 21u, 63u}) {
    const ObjectDatabase db = BuildAdversarialDatabase(eps_loc, seed);
    const auto sketches = BuildUserSketches(db);
    for (const STPSQuery& query : BoundaryJoinQueries(eps_loc)) {
      const auto expected = BruteForceSTPSJoin(db, query);
      // The single-user probe returns exactly each user's join rows.
      ASSERT_TRUE(testing_util::ProbesMatchJoin(db, query, expected))
          << "seed=" << seed << " eps_loc=" << query.eps_loc
          << " eps_doc=" << query.eps_doc << " eps_u=" << query.eps_u;
      for (const JoinAlgorithm algorithm :
           {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB,
            JoinAlgorithm::kSPPJF, JoinAlgorithm::kSPPJD}) {
        JoinOptions options;
        options.algorithm = algorithm;
        options.rtree_fanout = 16;
        ASSERT_TRUE(SameResults(RunSTPSJoin(db, query, options), expected,
                                /*tolerance=*/0.0))
            << JoinAlgorithmName(algorithm) << " seed=" << seed
            << " eps_loc=" << query.eps_loc << " eps_doc=" << query.eps_doc
            << " eps_u=" << query.eps_u;
        // Pool-parallel must be bit-identical.
        options.threads = 4;
        ASSERT_TRUE(SameResults(RunSTPSJoin(db, query, options), expected,
                                /*tolerance=*/0.0))
            << "parallel " << JoinAlgorithmName(algorithm)
            << " seed=" << seed << " eps_doc=" << query.eps_doc
            << " eps_u=" << query.eps_u;
      }
      // The standalone sketch driver must survive the same
      // ULP-adversarial boundaries: the band index may only widen the
      // candidate set, so the verified results stay bit-identical at
      // every thread count.
      for (const int threads : {1, 2, 8}) {
        JoinStats sketch_stats;
        ASSERT_TRUE(SameResults(
            SketchSTPSJoin(db, *sketches, query, ParallelOptions{threads, 0},
                           &sketch_stats),
            expected, /*tolerance=*/0.0))
            << "sketch threads=" << threads << " seed=" << seed
            << " eps_doc=" << query.eps_doc << " eps_u=" << query.eps_u;
        EXPECT_EQ(sketch_stats.matches_found, expected.size());
        EXPECT_GE(sketch_stats.sketch_candidate_pairs,
                  sketch_stats.matches_found);
      }
      // The quadtree backend of S-PPJ-D routes through different
      // partition geometry; same boundaries, same answer.
      SPPJDOptions d_options;
      d_options.fanout = 16;
      d_options.partitioning = PartitioningScheme::kQuadTree;
      ASSERT_TRUE(SameResults(SPPJD(db, query, d_options), expected,
                              /*tolerance=*/0.0))
          << "quadtree seed=" << seed << " eps_doc=" << query.eps_doc
          << " eps_u=" << query.eps_u;
    }
  }
}

TEST_P(BoundaryOracleTest, AllTopKVariantsMatchBruteForce) {
  const double eps_loc = GetParam();
  const double third = 1.0 / 3.0;
  for (const uint64_t seed : {7u, 21u, 63u}) {
    const ObjectDatabase db = BuildAdversarialDatabase(eps_loc, seed);
    const auto sketches = BuildUserSketches(db);
    for (const double eps_doc : {0.5, third, 0.2}) {
      // k values chosen to land inside the tied score bands the sigma
      // blocks create (many pairs at exactly 1/2 and 1/3, whose
      // quotients are exact or round down, and at 1/5, which rounds up).
      std::vector<size_t> ks = {1, 3, 7, 12, 50};
      for (const size_t k : FifthBandKs(db, eps_loc, eps_doc)) {
        ks.push_back(k);
      }
      for (const size_t k : ks) {
        TopKQuery query{eps_loc, eps_doc, k};
        const auto expected = BruteForceTopK(db, query);
        for (const TopKAlgorithm algorithm :
             {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP}) {
          ASSERT_TRUE(SameResults(RunTopKSTPSJoin(db, query, algorithm),
                                  expected, /*tolerance=*/0.0))
              << TopKAlgorithmName(algorithm) << " seed=" << seed
              << " eps_doc=" << eps_doc << " k=" << k;
          query.parallel = ParallelOptions{4, 0};
          ASSERT_TRUE(SameResults(RunTopKSTPSJoin(db, query, algorithm),
                                  expected, /*tolerance=*/0.0))
              << "parallel " << TopKAlgorithmName(algorithm)
              << " seed=" << seed << " eps_doc=" << eps_doc << " k=" << k;
          query.parallel = ParallelOptions{};
        }
        // The standalone sketch driver's candidates arrive in
        // heavy-hitters order; the queue's tie semantics must still
        // produce the brute-force top-k on the exactly-tied score bands,
        // at every thread count.
        for (const int threads : {1, 2, 8}) {
          JoinStats sketch_stats;
          ASSERT_TRUE(SameResults(
              SketchTopKSTPSJoin(db, *sketches, query,
                                 ParallelOptions{threads, 0}, &sketch_stats),
              expected, /*tolerance=*/0.0))
              << "sketch threads=" << threads << " seed=" << seed
              << " eps_doc=" << eps_doc << " k=" << k;
          EXPECT_GE(sketch_stats.sketch_candidate_pairs,
                    sketch_stats.matches_found);
        }
        ASSERT_TRUE(SameResults(TopKSPPJD(db, query, /*fanout=*/16),
                                expected, /*tolerance=*/0.0))
            << "TopKSPPJD seed=" << seed << " eps_doc=" << eps_doc
            << " k=" << k;
      }
    }
  }
}

// Pitches chosen adversarially: 0.125 is a power of two (lattice
// coordinates and distances all exact), 0.1 rounds up in binary, 0.3
// rounds down, and 0.07 has no short binary expansion at all.
INSTANTIATE_TEST_SUITE_P(Pitches, BoundaryOracleTest,
                         ::testing::Values(0.125, 0.1, 0.3, 0.07));

// A reported top-k tail score fed back as a threshold join must re-admit
// every top-k pair (the round-trip the paper's tuning loop performs).
TEST(BoundaryOracleTest, TopKScoreRoundTripsThroughThresholdJoin) {
  const ObjectDatabase db = BuildAdversarialDatabase(0.1, 7);
  for (const size_t k : {3u, 7u, 12u}) {
    const TopKQuery topk{0.1, 1.0 / 3.0, k};
    const auto top = RunTopKSTPSJoin(db, topk, TopKAlgorithm::kP);
    if (top.empty()) continue;
    const STPSQuery query{topk.eps_loc, topk.eps_doc,
                          ThresholdFromScore(top.back().score)};
    const auto joined = RunSTPSJoin(db, query);
    ASSERT_GE(joined.size(), top.size()) << "k=" << k;
    for (const auto& pair : top) {
      bool found = false;
      for (const auto& j : joined) {
        if (j.a == pair.a && j.b == pair.b) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "k=" << k << " pair (" << pair.a << ","
                         << pair.b << ") score=" << pair.score;
    }
  }
}

}  // namespace
}  // namespace stps
