#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>

namespace stps {

RTree::RTree(int fanout) : fanout_(fanout) { STPS_CHECK(fanout >= 2); }

int32_t RTree::NewNode(bool is_leaf) {
  nodes_.emplace_back();
  nodes_.back().is_leaf = is_leaf;
  return static_cast<int32_t>(nodes_.size() - 1);
}

RTree RTree::BulkLoad(std::vector<Entry> entries, int fanout) {
  RTree tree(fanout);
  tree.size_ = entries.size();
  if (entries.empty()) return tree;

  // STR leaf packing: sort by x, cut into ceil(sqrt(P)) vertical slabs,
  // sort each slab by y, cut into runs of `fanout`.
  const size_t n = entries.size();
  const size_t leaves = (n + fanout - 1) / fanout;
  const size_t slabs =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(std::sqrt(
                              static_cast<double>(leaves)))));
  const size_t slab_capacity =
      ((leaves + slabs - 1) / slabs) * static_cast<size_t>(fanout);
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.point.x != b.point.x) return a.point.x < b.point.x;
              return a.point.y < b.point.y;
            });

  std::vector<int32_t> level;  // current level's node ids
  for (size_t slab_start = 0; slab_start < n; slab_start += slab_capacity) {
    const size_t slab_end = std::min(n, slab_start + slab_capacity);
    std::sort(entries.begin() + slab_start, entries.begin() + slab_end,
              [](const Entry& a, const Entry& b) {
                if (a.point.y != b.point.y) return a.point.y < b.point.y;
                return a.point.x < b.point.x;
              });
    for (size_t run = slab_start; run < slab_end;
         run += static_cast<size_t>(fanout)) {
      const size_t run_end = std::min(slab_end, run + fanout);
      const int32_t leaf = tree.NewNode(/*is_leaf=*/true);
      Node& node = tree.nodes_[leaf];
      node.entries.assign(entries.begin() + run, entries.begin() + run_end);
      for (const Entry& e : node.entries) node.mbr.ExpandToInclude(e.point);
      level.push_back(leaf);
    }
  }

  // Pack upper levels with the same STR strategy over node MBR centres.
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(), [&tree](int32_t a, int32_t b) {
      const Rect& ra = tree.nodes_[a].mbr;
      const Rect& rb = tree.nodes_[b].mbr;
      const double ax = (ra.min_x + ra.max_x) / 2;
      const double bx = (rb.min_x + rb.max_x) / 2;
      if (ax != bx) return ax < bx;
      return (ra.min_y + ra.max_y) / 2 < (rb.min_y + rb.max_y) / 2;
    });
    const size_t count = level.size();
    const size_t parents = (count + fanout - 1) / fanout;
    const size_t parent_slabs =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(std::sqrt(
                                static_cast<double>(parents)))));
    const size_t parent_slab_capacity =
        ((parents + parent_slabs - 1) / parent_slabs) *
        static_cast<size_t>(fanout);
    std::vector<int32_t> next_level;
    for (size_t slab_start = 0; slab_start < count;
         slab_start += parent_slab_capacity) {
      const size_t slab_end = std::min(count, slab_start +
                                                  parent_slab_capacity);
      std::sort(level.begin() + slab_start, level.begin() + slab_end,
                [&tree](int32_t a, int32_t b) {
                  const Rect& ra = tree.nodes_[a].mbr;
                  const Rect& rb = tree.nodes_[b].mbr;
                  const double ay = (ra.min_y + ra.max_y) / 2;
                  const double by = (rb.min_y + rb.max_y) / 2;
                  if (ay != by) return ay < by;
                  return (ra.min_x + ra.max_x) / 2 <
                         (rb.min_x + rb.max_x) / 2;
                });
      for (size_t run = slab_start; run < slab_end;
           run += static_cast<size_t>(fanout)) {
        const size_t run_end = std::min(slab_end, run + fanout);
        const int32_t parent = tree.NewNode(/*is_leaf=*/false);
        Node& node = tree.nodes_[parent];
        node.children.assign(level.begin() + run, level.begin() + run_end);
        for (const int32_t child : node.children) {
          node.mbr.ExpandToInclude(tree.nodes_[child].mbr);
        }
        next_level.push_back(parent);
      }
    }
    level = std::move(next_level);
  }
  tree.root_ = level.front();
  return tree;
}

int RTree::Height() const {
  if (root_ < 0) return 0;
  return DepthOfLeftmostLeaf();
}

int RTree::DepthOfLeftmostLeaf() const {
  int depth = 1;
  int32_t node = root_;
  while (!nodes_[node].is_leaf) {
    node = nodes_[node].children.front();
    ++depth;
  }
  return depth;
}

std::vector<RTree::LeafRef> RTree::CollectLeaves() const {
  std::vector<LeafRef> out;
  if (root_ >= 0) CollectLeavesRecursive(root_, &out);
  return out;
}

void RTree::CollectLeavesRecursive(int32_t node_id,
                                   std::vector<LeafRef>* out) const {
  const Node& node = nodes_[node_id];
  if (node.is_leaf) {
    LeafRef ref;
    ref.ordinal = static_cast<uint32_t>(out->size());
    ref.mbr = node.mbr;
    ref.entries = std::span<const Entry>(node.entries);
    out->push_back(ref);
    return;
  }
  for (const int32_t child : node.children) {
    CollectLeavesRecursive(child, out);
  }
}

bool RTree::CheckInvariants() const {
  if (root_ < 0) return size_ == 0;
  const int leaf_depth = DepthOfLeftmostLeaf();
  if (!CheckNode(root_, 1, leaf_depth)) return false;
  // Entry count must match size().
  size_t total = 0;
  for (const LeafRef& leaf : CollectLeaves()) total += leaf.entries.size();
  return total == size_;
}

bool RTree::CheckNode(int32_t node_id, int depth, int leaf_depth) const {
  const Node& node = nodes_[node_id];
  if (node.is_leaf) {
    if (depth != leaf_depth || node.entries.empty() ||
        node.entries.size() > static_cast<size_t>(fanout_)) {
      return false;
    }
    Rect mbr = Rect::Empty();
    for (const Entry& e : node.entries) mbr.ExpandToInclude(e.point);
    return mbr == node.mbr;
  }
  if (node.children.empty() ||
      node.children.size() > static_cast<size_t>(fanout_)) {
    return false;
  }
  Rect mbr = Rect::Empty();
  for (const int32_t child : node.children) {
    if (!node.mbr.ContainsRect(nodes_[child].mbr)) return false;
    if (!CheckNode(child, depth + 1, leaf_depth)) return false;
    mbr.ExpandToInclude(nodes_[child].mbr);
  }
  return mbr == node.mbr;
}

}  // namespace stps
