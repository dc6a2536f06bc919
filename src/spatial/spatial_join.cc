#include "spatial/spatial_join.h"

#include <algorithm>
#include <numeric>

namespace stps {

std::vector<std::pair<uint32_t, uint32_t>> RectSelfJoin(
    const std::vector<Rect>& rects) {
  std::vector<std::pair<uint32_t, uint32_t>> result;
  if (rects.size() < 2) return result;
  std::vector<uint32_t> order(rects.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&rects](uint32_t l, uint32_t r) {
    if (rects[l].min_x != rects[r].min_x)
      return rects[l].min_x < rects[r].min_x;
    return l < r;
  });
  for (size_t i = 0; i < order.size(); ++i) {
    const Rect& ri = rects[order[i]];
    for (size_t j = i + 1; j < order.size(); ++j) {
      const Rect& rj = rects[order[j]];
      if (rj.min_x > ri.max_x) break;
      if (ri.min_y <= rj.max_y && rj.min_y <= ri.max_y) {
        result.emplace_back(std::min(order[i], order[j]),
                            std::max(order[i], order[j]));
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::vector<uint32_t>> LeafAdjacency(const RTree& tree,
                                                 double margin) {
  const std::vector<RTree::LeafRef> leaves = tree.CollectLeaves();
  std::vector<Rect> extended;
  extended.reserve(leaves.size());
  for (const RTree::LeafRef& leaf : leaves) {
    extended.push_back(leaf.mbr.Extended(margin));
  }
  std::vector<std::vector<uint32_t>> adjacency(leaves.size());
  for (uint32_t l = 0; l < leaves.size(); ++l) adjacency[l].push_back(l);
  for (const auto& [i, j] : RectSelfJoin(extended)) {
    adjacency[i].push_back(j);
    adjacency[j].push_back(i);
  }
  for (auto& list : adjacency) std::sort(list.begin(), list.end());
  return adjacency;
}

}  // namespace stps
