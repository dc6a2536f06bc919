#include "spatial/quadtree.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stps {
namespace {

std::vector<QuadTree::Entry> RandomEntries(Rng& rng, size_t count) {
  std::vector<QuadTree::Entry> entries(count);
  for (uint32_t i = 0; i < count; ++i) {
    entries[i] = {{rng.Uniform(0, 100), rng.Uniform(0, 100)}, i};
  }
  return entries;
}

// Every stored entry, gathered from the leaves (each leaf entry must lie
// in its leaf's region and tight MBR), sorted by payload.
std::vector<QuadTree::Entry> LeafEntries(const QuadTree& tree) {
  std::vector<QuadTree::Entry> out;
  for (const auto& leaf : tree.CollectLeaves()) {
    for (const auto& e : leaf.entries) {
      EXPECT_TRUE(leaf.region.Contains(e.point));
      EXPECT_TRUE(leaf.mbr.Contains(e.point));
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QuadTree::Entry& a, const QuadTree::Entry& b) {
              return a.value < b.value;
            });
  return out;
}

TEST(QuadTreeTest, EmptyTree) {
  const QuadTree tree({0, 0, 1, 1}, 4);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_TRUE(tree.CollectLeaves().empty());
}

class QuadTreeCapacityTest : public ::testing::TestWithParam<int> {};

TEST_P(QuadTreeCapacityTest, BuildInvariantsAndLeafCoverage) {
  const int capacity = GetParam();
  Rng rng(51);
  const auto entries = RandomEntries(rng, 800);
  const QuadTree tree = QuadTree::Build(entries, capacity);
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_TRUE(tree.CheckInvariants());
  size_t total = 0;
  for (const auto& leaf : tree.CollectLeaves()) {
    EXPECT_FALSE(leaf.entries.empty());
    EXPECT_TRUE(leaf.region.ContainsRect(leaf.mbr));
    total += leaf.entries.size();
  }
  EXPECT_EQ(total, entries.size());
  // Every point is stored exactly once, unmoved.
  const auto stored = LeafEntries(tree);
  ASSERT_EQ(stored.size(), entries.size());
  for (uint32_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(stored[i].value, i);
    EXPECT_EQ(stored[i].point, entries[i].point);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, QuadTreeCapacityTest,
                         ::testing::Values(1, 4, 16, 64, 256));

TEST(QuadTreeTest, DuplicatePointsStopSplittingAtMaxDepth) {
  QuadTree tree({0, 0, 1, 1}, /*leaf_capacity=*/2, /*max_depth=*/6);
  for (uint32_t i = 0; i < 50; ++i) {
    tree.Insert({0.25, 0.25}, i);
  }
  EXPECT_EQ(tree.size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants());
  const auto stored = LeafEntries(tree);
  ASSERT_EQ(stored.size(), 50u);
  for (uint32_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(stored[i].value, i);
    EXPECT_EQ(stored[i].point, (Point{0.25, 0.25}));
  }
}

TEST(QuadTreeTest, OutOfBoundsPointsAreClampedNotLost) {
  QuadTree tree({0, 0, 1, 1}, 4);
  tree.Insert({5.0, -3.0}, 7);
  EXPECT_EQ(tree.size(), 1u);
  const auto stored = LeafEntries(tree);
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].value, 7u);
  EXPECT_EQ(stored[0].point, (Point{1.0, 0.0}));  // clamped onto the root
}

TEST(QuadTreeTest, LeavesAreDisjointRegions) {
  Rng rng(52);
  const auto entries = RandomEntries(rng, 500);
  const QuadTree tree = QuadTree::Build(entries, 16);
  const auto leaves = tree.CollectLeaves();
  for (uint32_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(leaves[i].ordinal, i);
    for (uint32_t j = i + 1; j < leaves.size(); ++j) {
      // Quadrant interiors never overlap (boundaries may touch).
      const Rect inter = leaves[i].region.Intersection(leaves[j].region);
      if (!inter.IsEmpty()) {
        EXPECT_TRUE(inter.min_x == inter.max_x || inter.min_y == inter.max_y)
            << "leaves " << i << " and " << j << " overlap";
      }
    }
  }
}

TEST(QuadTreeTest, CapacityOneDegeneratesGracefully) {
  QuadTree tree({0, 0, 1, 1}, 1, /*max_depth=*/10);
  Rng rng(53);
  for (uint32_t i = 0; i < 100; ++i) {
    tree.Insert({rng.NextDouble(), rng.NextDouble()}, i);
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_TRUE(tree.CheckInvariants());
}

}  // namespace
}  // namespace stps
