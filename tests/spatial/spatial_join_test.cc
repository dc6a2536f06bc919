#include "spatial/spatial_join.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace stps {
namespace {

std::vector<Rect> RandomRects(Rng& rng, size_t count, double max_side) {
  std::vector<Rect> rects(count);
  for (auto& r : rects) {
    const double x = rng.Uniform(0, 100), y = rng.Uniform(0, 100);
    r = {x, y, x + rng.Uniform(0, max_side), y + rng.Uniform(0, max_side)};
  }
  return rects;
}

TEST(RectSelfJoinTest, MatchesBruteForce) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto rects = RandomRects(rng, 120, 12);
    std::vector<std::pair<uint32_t, uint32_t>> expected;
    for (uint32_t i = 0; i < rects.size(); ++i) {
      for (uint32_t j = i + 1; j < rects.size(); ++j) {
        if (rects[i].Intersects(rects[j])) expected.emplace_back(i, j);
      }
    }
    EXPECT_EQ(RectSelfJoin(rects), expected);
  }
}

TEST(RectSelfJoinTest, EdgeTouchCounts) {
  const std::vector<Rect> rects = {{0, 0, 1, 1}, {1, 0, 2, 1}, {3, 3, 4, 4}};
  const auto result = RectSelfJoin(rects);
  EXPECT_EQ(result,
            (std::vector<std::pair<uint32_t, uint32_t>>{{0, 1}}));
}

TEST(RectSelfJoinTest, DegenerateInputs) {
  EXPECT_TRUE(RectSelfJoin({}).empty());
  EXPECT_TRUE(RectSelfJoin({{0, 0, 1, 1}}).empty());
}

TEST(LeafAdjacencyTest, SelfIsAlwaysIncludedAndSymmetric) {
  Rng rng(9);
  std::vector<RTree::Entry> entries(400);
  for (uint32_t i = 0; i < entries.size(); ++i) {
    entries[i] = {{rng.Uniform(0, 50), rng.Uniform(0, 50)}, i};
  }
  const RTree tree = RTree::BulkLoad(entries, 20);
  const auto adjacency = LeafAdjacency(tree, 0.5);
  const auto leaves = tree.CollectLeaves();
  ASSERT_EQ(adjacency.size(), leaves.size());
  for (uint32_t l = 0; l < adjacency.size(); ++l) {
    EXPECT_TRUE(std::binary_search(adjacency[l].begin(), adjacency[l].end(),
                                   l));
    for (const uint32_t other : adjacency[l]) {
      EXPECT_TRUE(std::binary_search(adjacency[other].begin(),
                                     adjacency[other].end(), l));
      EXPECT_TRUE(leaves[l].mbr.Extended(0.5).Intersects(
          leaves[other].mbr.Extended(0.5)));
    }
  }
}

TEST(LeafAdjacencyTest, MatchesBruteForceIntersectionTest) {
  Rng rng(10);
  std::vector<RTree::Entry> entries(300);
  for (uint32_t i = 0; i < entries.size(); ++i) {
    entries[i] = {{rng.Uniform(0, 30), rng.Uniform(0, 30)}, i};
  }
  const RTree tree = RTree::BulkLoad(entries, 15);
  const double margin = 1.0;
  const auto adjacency = LeafAdjacency(tree, margin);
  const auto leaves = tree.CollectLeaves();
  for (uint32_t i = 0; i < leaves.size(); ++i) {
    for (uint32_t j = 0; j < leaves.size(); ++j) {
      const bool expected = leaves[i].mbr.Extended(margin).Intersects(
          leaves[j].mbr.Extended(margin));
      const bool actual = std::binary_search(adjacency[i].begin(),
                                             adjacency[i].end(), j);
      EXPECT_EQ(actual, expected) << "leaves " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace stps
