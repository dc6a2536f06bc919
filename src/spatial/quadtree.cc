#include "spatial/quadtree.h"

#include <algorithm>

namespace stps {

QuadTree::QuadTree(const Rect& bounds, int leaf_capacity, int max_depth)
    : leaf_capacity_(leaf_capacity), max_depth_(max_depth) {
  STPS_CHECK(leaf_capacity >= 1);
  STPS_CHECK(max_depth >= 1);
  STPS_CHECK(!bounds.IsEmpty());
  nodes_.push_back(Node{bounds, 1, {-1, -1, -1, -1}, {}});
}

QuadTree QuadTree::Build(std::vector<Entry> entries, int leaf_capacity,
                         int max_depth) {
  Rect bounds = Rect::Empty();
  for (const Entry& e : entries) bounds.ExpandToInclude(e.point);
  if (bounds.IsEmpty()) bounds = {0, 0, 1, 1};
  QuadTree tree(bounds, leaf_capacity, max_depth);
  for (const Entry& e : entries) tree.Insert(e.point, e.value);
  return tree;
}

int32_t QuadTree::NewNode(const Rect& region, int depth) {
  nodes_.push_back(Node{region, depth, {-1, -1, -1, -1}, {}});
  return static_cast<int32_t>(nodes_.size() - 1);
}

int QuadTree::QuadrantOf(const Node& node, const Point& p) const {
  const double mid_x = (node.region.min_x + node.region.max_x) / 2;
  const double mid_y = (node.region.min_y + node.region.max_y) / 2;
  const int east = p.x > mid_x ? 1 : 0;
  const int north = p.y > mid_y ? 2 : 0;
  return east + north;
}

void QuadTree::Insert(const Point& point, uint32_t value) {
  Entry entry{point, value};
  // Clamp stray points onto the root region so they are never lost.
  const Rect& root = nodes_[0].region;
  entry.point.x = std::clamp(entry.point.x, root.min_x, root.max_x);
  entry.point.y = std::clamp(entry.point.y, root.min_y, root.max_y);
  InsertInto(0, entry);
  ++size_;
}

void QuadTree::InsertInto(int32_t node_id, Entry entry) {
  for (;;) {
    Node& node = nodes_[node_id];
    if (!node.is_leaf()) {
      node_id = node.children[QuadrantOf(node, entry.point)];
      continue;
    }
    node.entries.push_back(entry);
    if (node.entries.size() > static_cast<size_t>(leaf_capacity_) &&
        node.depth < max_depth_) {
      Split(node_id);
    }
    return;
  }
}

void QuadTree::Split(int32_t node_id) {
  // Note: NewNode may reallocate nodes_, so copy what we need first.
  const Rect region = nodes_[node_id].region;
  const int depth = nodes_[node_id].depth;
  std::vector<Entry> entries = std::move(nodes_[node_id].entries);
  nodes_[node_id].entries.clear();

  const double mid_x = (region.min_x + region.max_x) / 2;
  const double mid_y = (region.min_y + region.max_y) / 2;
  const Rect quadrants[4] = {
      {region.min_x, region.min_y, mid_x, mid_y},  // SW
      {mid_x, region.min_y, region.max_x, mid_y},  // SE
      {region.min_x, mid_y, mid_x, region.max_y},  // NW
      {mid_x, mid_y, region.max_x, region.max_y},  // NE
  };
  int32_t child_ids[4];
  for (int q = 0; q < 4; ++q) {
    child_ids[q] = NewNode(quadrants[q], depth + 1);
  }
  for (int q = 0; q < 4; ++q) nodes_[node_id].children[q] = child_ids[q];
  for (Entry& e : entries) {
    const int q = QuadrantOf(nodes_[node_id], e.point);
    InsertInto(nodes_[node_id].children[q], e);
  }
}

std::vector<QuadTree::LeafRef> QuadTree::CollectLeaves() const {
  std::vector<LeafRef> out;
  CollectLeavesRecursive(0, &out);
  return out;
}

void QuadTree::CollectLeavesRecursive(int32_t node_id,
                                      std::vector<LeafRef>* out) const {
  const Node& node = nodes_[node_id];
  if (node.is_leaf()) {
    if (node.entries.empty()) return;  // skip empty quadrants
    LeafRef ref;
    ref.ordinal = static_cast<uint32_t>(out->size());
    ref.region = node.region;
    ref.mbr = Rect::Empty();
    for (const Entry& e : node.entries) ref.mbr.ExpandToInclude(e.point);
    ref.entries = std::span<const Entry>(node.entries);
    out->push_back(ref);
    return;
  }
  for (const int32_t child : node.children) {
    CollectLeavesRecursive(child, out);
  }
}

bool QuadTree::CheckInvariants() const {
  size_t total = 0;
  for (const LeafRef& leaf : CollectLeaves()) total += leaf.entries.size();
  if (total != size_) return false;
  return CheckNode(0);
}

bool QuadTree::CheckNode(int32_t node_id) const {
  const Node& node = nodes_[node_id];
  if (node.is_leaf()) {
    if (node.entries.size() > static_cast<size_t>(leaf_capacity_) &&
        node.depth < max_depth_) {
      return false;  // should have split
    }
    for (const Entry& e : node.entries) {
      if (!node.region.Contains(e.point)) return false;
    }
    return true;
  }
  for (const int32_t child : node.children) {
    if (child < 0) return false;  // partially-split node
    if (!node.region.ContainsRect(nodes_[child].region)) return false;
    if (nodes_[child].depth != node.depth + 1) return false;
    if (!CheckNode(child)) return false;
  }
  return true;
}

}  // namespace stps
