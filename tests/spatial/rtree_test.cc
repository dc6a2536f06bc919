#include "spatial/rtree.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stps {
namespace {

std::vector<RTree::Entry> RandomEntries(Rng& rng, size_t count) {
  std::vector<RTree::Entry> entries(count);
  for (uint32_t i = 0; i < count; ++i) {
    entries[i] = {{rng.Uniform(0, 100), rng.Uniform(0, 100)}, i};
  }
  return entries;
}

// How many times each payload in [0, count) appears across the leaves.
std::vector<int> LeafMultiplicity(const RTree& tree, size_t count) {
  std::vector<int> seen(count, 0);
  for (const auto& leaf : tree.CollectLeaves()) {
    for (const auto& e : leaf.entries) {
      EXPECT_LT(e.value, count);
      if (e.value < count) ++seen[e.value];
    }
  }
  return seen;
}

TEST(RTreeTest, EmptyTree) {
  const RTree tree = RTree::BulkLoad({}, 8);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_TRUE(tree.CollectLeaves().empty());
}

class RTreeFanoutTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeFanoutTest, BulkLoadInvariantsAndLeaves) {
  const int fanout = GetParam();
  Rng rng(42);
  const auto entries = RandomEntries(rng, 1000);
  const RTree tree = RTree::BulkLoad(entries, fanout);
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_TRUE(tree.CheckInvariants());
  // Leaves partition the data: every value sits in exactly one leaf, at
  // the point it was loaded with.
  size_t total = 0;
  for (const auto& leaf : tree.CollectLeaves()) {
    EXPECT_LE(leaf.entries.size(), static_cast<size_t>(fanout));
    for (const auto& e : leaf.entries) {
      EXPECT_EQ(e.point, entries[e.value].point);
    }
    total += leaf.entries.size();
  }
  EXPECT_EQ(total, entries.size());
  const std::vector<int> multiplicity = LeafMultiplicity(tree, entries.size());
  for (size_t v = 0; v < entries.size(); ++v) {
    EXPECT_EQ(multiplicity[v], 1) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, RTreeFanoutTest,
                         ::testing::Values(2, 4, 8, 16, 50, 128));

// S-PPJ-D partitions objects by their leaf; users who check in at the same
// place must all land in some leaf, none dropped or merged away.
TEST(RTreeTest, DuplicatePointsAreAllRetained) {
  std::vector<RTree::Entry> entries;
  for (uint32_t i = 0; i < 20; ++i) entries.push_back({{1.0, 1.0}, i});
  const RTree tree = RTree::BulkLoad(entries, 4);
  EXPECT_EQ(tree.size(), 20u);
  EXPECT_TRUE(tree.CheckInvariants());
  for (const int multiplicity : LeafMultiplicity(tree, entries.size())) {
    EXPECT_EQ(multiplicity, 1);
  }
  for (const auto& leaf : tree.CollectLeaves()) {
    EXPECT_EQ(leaf.mbr, Rect::FromPoint({1.0, 1.0}));
  }
}

TEST(RTreeTest, LeavesHaveSequentialOrdinalsAndTightMbrs) {
  Rng rng(46);
  const auto entries = RandomEntries(rng, 300);
  const RTree tree = RTree::BulkLoad(entries, 25);
  const auto leaves = tree.CollectLeaves();
  for (uint32_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].ordinal, i);
    for (const auto& e : leaves[i].entries) {
      EXPECT_TRUE(leaves[i].mbr.Contains(e.point));
    }
  }
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  Rng rng(47);
  const auto entries = RandomEntries(rng, 1000);
  const RTree tree = RTree::BulkLoad(entries, 10);
  // 1000 points at fanout 10: 100 leaves, height 3.
  EXPECT_GE(tree.Height(), 3);
  EXPECT_LE(tree.Height(), 4);
}

}  // namespace
}  // namespace stps
