// Differential check of the three ways a database can exist in memory:
// the originally built one, a heap load of its v3 snapshot (ReadBinary,
// fully verified), and an mmap'd borrowed-arena view (ReadBinaryMapped).
// Every join and top-k configuration must produce bit-identical results
// — same pairs, same scores to the bit, same JoinStats counters — on all
// three. This is the contract that makes the mmap path a drop-in: no
// caller can tell whether the columns are owned or borrowed.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stpsjoin.h"
#include "io/binary.h"
#include "planner/planner_stats.h"
#include "test_util.h"

namespace stps {
namespace {

using testing_util::BuildRandomDatabase;
using testing_util::RandomDbSpec;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void ExpectBitIdentical(const std::vector<ScoredUserPair>& x,
                        const std::vector<ScoredUserPair>& y,
                        const char* what) {
  ASSERT_EQ(x.size(), y.size()) << what;
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].a, y[i].a) << what << " row " << i;
    EXPECT_EQ(x[i].b, y[i].b) << what << " row " << i;
    // Bitwise, not approximate: the variants must run the identical
    // arithmetic on identical data.
    EXPECT_EQ(x[i].score, y[i].score) << what << " row " << i;
  }
}

class MappedDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomDbSpec spec;
    spec.num_users = 24;
    spec.seed = 4242;
    original_ = BuildRandomDatabase(spec);
    path_ = TempPath("differential.stpsdb");
    ASSERT_TRUE(WriteBinary(original_, path_).ok());
    Result<ObjectDatabase> heap = ReadBinary(path_);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(heap).value();
    Result<ObjectDatabase> mapped = ReadBinaryMapped(path_);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    mapped_ = std::move(mapped).value();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  ObjectDatabase original_, heap_, mapped_;
  std::string path_;
};

TEST_F(MappedDifferentialTest, JoinsIdenticalAcrossVariants) {
  STPSQuery query;
  query.eps_loc = 0.1;
  query.eps_doc = 0.3;
  query.eps_u = 0.2;
  for (const JoinAlgorithm algorithm :
       {JoinAlgorithm::kSPPJC, JoinAlgorithm::kSPPJB, JoinAlgorithm::kSPPJF,
        JoinAlgorithm::kSPPJD, JoinAlgorithm::kBruteForce}) {
    for (const int threads : {1, 2}) {
      JoinOptions options;
      options.algorithm = algorithm;
      options.threads = threads;
      JoinStats so, sh, sm;
      const auto ro = RunSTPSJoin(original_, query, options, &so);
      const auto rh = RunSTPSJoin(heap_, query, options, &sh);
      const auto rm = RunSTPSJoin(mapped_, query, options, &sm);
      const std::string what = std::string(JoinAlgorithmName(algorithm)) +
                               " threads=" + std::to_string(threads);
      ExpectBitIdentical(ro, rh, (what + " heap").c_str());
      ExpectBitIdentical(ro, rm, (what + " mapped").c_str());
      EXPECT_TRUE(so == sh) << what << ": heap stats diverge\n"
                            << FormatJoinStats(so) << "\n"
                            << FormatJoinStats(sh);
      EXPECT_TRUE(so == sm) << what << ": mapped stats diverge\n"
                            << FormatJoinStats(so) << "\n"
                            << FormatJoinStats(sm);
    }
  }
}

TEST_F(MappedDifferentialTest, TopKIdenticalAcrossVariants) {
  TopKQuery query;
  query.eps_loc = 0.1;
  query.eps_doc = 0.3;
  query.k = 10;
  for (const TopKAlgorithm algorithm :
       {TopKAlgorithm::kF, TopKAlgorithm::kS, TopKAlgorithm::kP,
        TopKAlgorithm::kBruteForce}) {
    JoinStats so, sh, sm;
    const auto ro = RunTopKSTPSJoin(original_, query, algorithm, &so);
    const auto rh = RunTopKSTPSJoin(heap_, query, algorithm, &sh);
    const auto rm = RunTopKSTPSJoin(mapped_, query, algorithm, &sm);
    const std::string what(TopKAlgorithmName(algorithm));
    ExpectBitIdentical(ro, rh, (what + " heap").c_str());
    ExpectBitIdentical(ro, rm, (what + " mapped").c_str());
    EXPECT_TRUE(so == sh) << what << ": heap stats diverge";
    EXPECT_TRUE(so == sm) << what << ": mapped stats diverge";
  }
}

TEST_F(MappedDifferentialTest, ProbesIdenticalAcrossVariants) {
  STPSQuery query;
  query.eps_loc = 0.1;
  query.eps_doc = 0.3;
  query.eps_u = 0.2;
  const auto brute = BruteForceSTPSJoin(original_, query);
  for (UserId u = 0; u < original_.num_users(); ++u) {
    const auto ro = FindSimilarUsers(original_, u, query);
    const std::string what = "probe user " + std::to_string(u);
    ExpectBitIdentical(ro, testing_util::ProbeRowsOf(brute, u),
                       (what + " brute").c_str());
    ExpectBitIdentical(ro, FindSimilarUsers(heap_, u, query),
                       (what + " heap").c_str());
    ExpectBitIdentical(ro, FindSimilarUsers(mapped_, u, query),
                       (what + " mapped").c_str());
  }
}

TEST_F(MappedDifferentialTest, MappedAndHeapLookupsAgree) {
  ASSERT_EQ(heap_.num_users(), mapped_.num_users());
  ASSERT_EQ(heap_.num_objects(), mapped_.num_objects());
  for (UserId u = 0; u < heap_.num_users(); ++u) {
    EXPECT_EQ(heap_.UserName(u), mapped_.UserName(u));
    UserId found = 0;
    ASSERT_TRUE(mapped_.FindUser(heap_.UserName(u), &found));
    EXPECT_EQ(found, u);
    const auto oh = heap_.UserObjects(u);
    const auto om = mapped_.UserObjects(u);
    ASSERT_EQ(oh.size(), om.size());
    for (size_t i = 0; i < oh.size(); ++i) {
      EXPECT_EQ(oh[i].loc, om[i].loc);
      EXPECT_EQ(oh[i].sig, om[i].sig);
      ASSERT_EQ(oh[i].doc.size(), om[i].doc.size());
      for (size_t k = 0; k < oh[i].doc.size(); ++k) {
        EXPECT_EQ(oh[i].doc[k], om[i].doc[k]);
      }
    }
  }
  EXPECT_TRUE(heap_.planner_stats() == mapped_.planner_stats());
}

}  // namespace
}  // namespace stps
