// Degenerate and boundary configurations for the STPSJoin algorithms:
// single-cell worlds, identical users, thin extents, extreme thresholds.
// Every algorithm must agree with the brute-force reference on all of
// them.

#include <limits>

#include <gtest/gtest.h>

#include "core/stpsjoin.h"
#include "core/topk.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::SameResults;

void ExpectAllAlgorithmsAgree(const ObjectDatabase& db,
                              const STPSQuery& query, const char* label) {
  const auto expected = BruteForceSTPSJoin(db, query);
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD}) {
    JoinOptions options;
    options.algorithm = algorithm;
    options.rtree_fanout = 8;
    EXPECT_TRUE(SameResults(RunSTPSJoin(db, query, options), expected))
        << label << " / " << JoinAlgorithmName(algorithm);
  }
}

ObjectDatabase BuildWith(
    const std::vector<std::tuple<const char*, double, double,
                                 std::vector<std::string>>>& rows) {
  DatabaseBuilder builder;
  for (const auto& [user, x, y, kws] : rows) {
    builder.AddObject(user, Point{x, y},
                      std::span<const std::string>(kws));
  }
  return std::move(builder).Build();
}

TEST(EdgeCaseTest, AllObjectsInOneCell) {
  // World smaller than one eps_loc cell: every pair of objects is a
  // spatial candidate.
  const ObjectDatabase db = BuildWith({
      {"a", 0.001, 0.001, {"x", "y"}},
      {"a", 0.002, 0.002, {"z"}},
      {"b", 0.001, 0.002, {"x", "y"}},
      {"b", 0.003, 0.001, {"w"}},
      {"c", 0.002, 0.001, {"x", "y"}},
  });
  ExpectAllAlgorithmsAgree(db, {1.0, 0.5, 0.4}, "one cell");
}

TEST(EdgeCaseTest, IdenticalUsers) {
  const std::vector<std::string> kws = {"same", "tags"};
  DatabaseBuilder builder;
  for (const char* user : {"a", "b", "c", "d"}) {
    builder.AddObject(user, Point{0.4, 0.4},
                      std::span<const std::string>(kws));
    builder.AddObject(user, Point{0.6, 0.6},
                      std::span<const std::string>(kws));
  }
  const ObjectDatabase db = std::move(builder).Build();
  const STPSQuery query{0.05, 0.9, 0.99};
  const auto result = RunSTPSJoin(db, query);
  EXPECT_EQ(result.size(), 6u);  // C(4,2), all with sigma = 1
  for (const auto& pair : result) {
    EXPECT_DOUBLE_EQ(pair.score, 1.0);
  }
  ExpectAllAlgorithmsAgree(db, query, "identical users");
}

TEST(EdgeCaseTest, SingleUserHasNoPairs) {
  const ObjectDatabase db = BuildWith({
      {"only", 0.1, 0.1, {"a"}},
      {"only", 0.2, 0.2, {"b"}},
  });
  const STPSQuery query{0.5, 0.1, 0.1};
  EXPECT_TRUE(RunSTPSJoin(db, query).empty());
  EXPECT_TRUE(RunTopKSTPSJoin(db, {0.5, 0.1, 5}).empty());
}

TEST(EdgeCaseTest, OneObjectPerUser) {
  const ObjectDatabase db = BuildWith({
      {"a", 0.10, 0.10, {"cafe", "wifi"}},
      {"b", 0.11, 0.10, {"cafe", "wifi"}},
      {"c", 0.90, 0.90, {"cafe", "wifi"}},
      {"d", 0.90, 0.91, {"gym"}},
  });
  const STPSQuery query{0.05, 0.9, 0.9};
  const auto result = RunSTPSJoin(db, query);
  ASSERT_EQ(result.size(), 1u);  // only a-b: near and textually identical
  EXPECT_EQ(db.UserName(result[0].a), "a");
  EXPECT_EQ(db.UserName(result[0].b), "b");
  ExpectAllAlgorithmsAgree(db, query, "one object per user");
}

TEST(EdgeCaseTest, ThinHorizontalWorld) {
  // All objects on a line: the grid degenerates to a single row, which
  // exercises the PPJ-B parity traversal's single-row path.
  DatabaseBuilder builder;
  const std::vector<std::string> kws = {"line"};
  for (int i = 0; i < 20; ++i) {
    builder.AddObject(i % 2 == 0 ? "even" : "odd",
                      Point{0.05 * i, 0.0},
                      std::span<const std::string>(kws));
  }
  const ObjectDatabase db = std::move(builder).Build();
  for (const double eps_loc : {0.01, 0.05, 0.2, 2.0}) {
    ExpectAllAlgorithmsAgree(db, {eps_loc, 0.5, 0.3}, "thin world");
  }
}

TEST(EdgeCaseTest, ThinVerticalWorld) {
  DatabaseBuilder builder;
  const std::vector<std::string> kws = {"column"};
  for (int i = 0; i < 20; ++i) {
    builder.AddObject(i % 3 == 0 ? "u0" : (i % 3 == 1 ? "u1" : "u2"),
                      Point{0.0, 0.07 * i},
                      std::span<const std::string>(kws));
  }
  const ObjectDatabase db = std::move(builder).Build();
  for (const double eps_loc : {0.02, 0.08, 0.5}) {
    ExpectAllAlgorithmsAgree(db, {eps_loc, 0.5, 0.2}, "vertical world");
  }
}

TEST(EdgeCaseTest, AllObjectsAtTheSamePoint) {
  DatabaseBuilder builder;
  for (int u = 0; u < 5; ++u) {
    for (int i = 0; i < 4; ++i) {
      const std::vector<std::string> kws = {"p" + std::to_string(i)};
      builder.AddObject("u" + std::to_string(u), Point{0.5, 0.5},
                        std::span<const std::string>(kws));
    }
  }
  const ObjectDatabase db = std::move(builder).Build();
  ExpectAllAlgorithmsAgree(db, {0.001, 0.9, 0.9}, "same point");
  // Everyone posts the same keyword set at the same spot: all pairs at
  // sigma 1.
  const auto result = RunSTPSJoin(db, {0.001, 0.9, 0.9});
  EXPECT_EQ(result.size(), 10u);
}

TEST(EdgeCaseTest, ExactMatchThresholds) {
  // eps_doc = 1 requires identical token sets; eps_u = 1 requires every
  // object matched.
  const ObjectDatabase db = BuildWith({
      {"a", 0.1, 0.1, {"x"}},
      {"a", 0.2, 0.2, {"y"}},
      {"b", 0.1, 0.1, {"x"}},
      {"b", 0.2, 0.2, {"y"}},
      {"c", 0.1, 0.1, {"x"}},
      {"c", 0.2, 0.2, {"y", "extra"}},
  });
  const STPSQuery query{0.01, 1.0, 1.0};
  const auto result = RunSTPSJoin(db, query);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(db.UserName(result[0].a), "a");
  EXPECT_EQ(db.UserName(result[0].b), "b");
  ExpectAllAlgorithmsAgree(db, query, "exact thresholds");
}

TEST(EdgeCaseTest, EpsLocLargerThanWorld) {
  const ObjectDatabase db = BuildWith({
      {"a", 0.0, 0.0, {"k"}},
      {"b", 1.0, 1.0, {"k"}},
      {"c", 0.5, 0.5, {"other"}},
  });
  // Spatial threshold covers everything; textual decides.
  const STPSQuery query{10.0, 0.9, 0.9};
  const auto result = RunSTPSJoin(db, query);
  ASSERT_EQ(result.size(), 1u);
  ExpectAllAlgorithmsAgree(db, query, "huge eps_loc");
}

TEST(EdgeCaseTest, TinyEpsLocKeepsEveryMatch) {
  // At eps_loc <= 1e-10 over a unit extent, an uncapped grid's cell ids
  // overflow int64 and the grid joins dropped (d, e).
  const ObjectDatabase db = BuildWith({
      {"a", 0.25, 0.75, {"cafe"}},
      {"b", 0.25, 0.75, {"cafe"}},
      {"c", 0.0, 0.0, {"bar"}},
      {"c", 1.0, 1.0, {"bar"}},
      {"d", 0.6, 0.3, {"park"}},
      {"e", 0.6, 0.3, {"park"}},
  });
  for (const double eps_loc : {1e-10, 1e-12, 1e-15, 1e-300}) {
    const STPSQuery query{eps_loc, 0.5, 0.3};
    ASSERT_EQ(BruteForceSTPSJoin(db, query).size(), 2u) << eps_loc;
    ExpectAllAlgorithmsAgree(db, query, "tiny eps_loc");
    for (const JoinAlgorithm algorithm :
         {JoinAlgorithm::kAuto, JoinAlgorithm::kSPPJF}) {
      JoinOptions options;
      options.algorithm = algorithm;
      options.threads = 2;
      EXPECT_TRUE(SameResults(RunSTPSJoin(db, query, options),
                              BruteForceSTPSJoin(db, query)))
          << JoinAlgorithmName(algorithm) << " on 2 threads / " << eps_loc;
    }
    const TopKQuery topk{eps_loc, 0.5, 5};
    const auto expected = BruteForceTopK(db, topk);
    for (const TopKAlgorithm algorithm :
         {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP}) {
      EXPECT_TRUE(
          SameResults(RunTopKSTPSJoin(db, topk, algorithm), expected))
          << TopKAlgorithmName(algorithm) << " / " << eps_loc;
    }
  }
}

TEST(EdgeCaseTest, TopKOnTinyDatabase) {
  const ObjectDatabase db = BuildWith({
      {"a", 0.1, 0.1, {"x"}},
      {"b", 0.1, 0.1, {"x"}},
  });
  const TopKQuery query{0.01, 0.5, 10};
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP}) {
    const auto result = RunTopKSTPSJoin(db, query, algorithm);
    ASSERT_EQ(result.size(), 1u) << TopKAlgorithmName(algorithm);
    EXPECT_DOUBLE_EQ(result[0].score, 1.0);
  }
  EXPECT_EQ(TopKSPPJD(db, query, 4).size(), 1u);
}

TEST(EdgeCaseTest, UsersWithDisjointVocabulariesNeverPair) {
  DatabaseBuilder builder;
  for (int u = 0; u < 6; ++u) {
    for (int i = 0; i < 3; ++i) {
      const std::vector<std::string> kws = {"tok_u" + std::to_string(u)};
      builder.AddObject("u" + std::to_string(u),
                        Point{0.5 + 0.001 * i, 0.5},
                        std::span<const std::string>(kws));
    }
  }
  const ObjectDatabase db = std::move(builder).Build();
  const STPSQuery query{0.1, 0.1, 0.1};
  EXPECT_TRUE(RunSTPSJoin(db, query).empty());
  EXPECT_TRUE(RunTopKSTPSJoin(db, {0.1, 0.1, 5}).empty());
}

// The probe's filter admits only users with an object within eps_loc
// that, for eps_doc > 0, shares a token; everyone else is answered
// without verification. Thresholds where that shortcut decides the
// answer must still give exactly each user's brute-force join rows.
TEST(EdgeCaseTest, ProbeMatchesJoinRowsAtDegenerateThresholds) {
  DatabaseBuilder builder;
  const auto add = [&builder](const char* user, Point p,
                              std::vector<std::string> kws, double time) {
    builder.AddObject(user, p, std::span<const std::string>(kws), time);
  };
  // a and b share a point and a token; c sits 0.05 away with the same
  // token but a later timestamp.
  add("a", {0.5, 0.5}, {"cafe", "park"}, 0.0);
  add("a", {0.2, 0.2}, {"museum"}, 0.0);
  add("b", {0.5, 0.5}, {"cafe"}, 0.5);
  add("c", {0.55, 0.5}, {"cafe", "park"}, 3.0);
  // The loner stands on a's and b's point but shares no token with
  // anyone.
  add("loner", {0.5, 0.5}, {"solitude"}, 0.0);
  add("loner", {0.9, 0.9}, {"quiet"}, 0.0);
  // Two empty docs on one point match each other only at eps_doc = 0.
  add("e1", {0.8, 0.1}, {}, 0.0);
  add("e2", {0.8, 0.1}, {}, 0.0);
  const ObjectDatabase db = std::move(builder).Build();
  UserId loner = 0;
  ASSERT_TRUE(db.FindUser("loner", &loner));

  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double eps_loc : {0.0, 0.05, 2.0}) {
    for (const double eps_doc : {0.0, 0.5}) {
      for (const double eps_u : {0.0, 0.5}) {
        for (const double eps_time : {kInf, 1.0}) {
          STPSQuery query{eps_loc, eps_doc, eps_u};
          query.eps_time = eps_time;
          const auto expected = BruteForceSTPSJoin(db, query);
          EXPECT_TRUE(testing_util::ProbesMatchJoin(db, query, expected))
              << "eps_loc=" << eps_loc << " eps_doc=" << eps_doc
              << " eps_u=" << eps_u << " eps_time=" << eps_time;
        }
      }
    }
  }
  // The shortcut's two sides for the loner: with eps_u = 0 every other
  // user is an answer at score 0, and with eps_doc = 0 the co-located
  // users match it.
  const auto all = FindSimilarUsers(db, loner, {0.05, 0.5, 0.0});
  ASSERT_EQ(all.size(), db.num_users() - 1);
  for (const ScoredUserPair& pair : all) EXPECT_EQ(pair.score, 0.0);
  EXPECT_EQ(FindSimilarUsers(db, loner, {0.0, 0.0, 0.5}).size(), 2u);
  EXPECT_TRUE(FindSimilarUsers(db, loner, {0.0, 0.5, 0.1}).empty());
}

}  // namespace
}  // namespace stps
