// PR quadtree over 2-D points — the alternative space partitioning
// studied for spatio-textual joins by Rao, Lin, Samet (BigSpatial 2014),
// cited by the paper. Used as a second data-partitioning backend for
// S-PPJ-D-style processing (see core/sppj_d.h) and benchmarked against
// the R-tree leaves in bench_ablation_partitioning.

#ifndef STPS_SPATIAL_QUADTREE_H_
#define STPS_SPATIAL_QUADTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "spatial/geometry.h"

namespace stps {

/// A point-region quadtree: every internal node splits its square region
/// into four quadrants; leaves hold up to `leaf_capacity` points (more
/// only at `max_depth`, where splitting stops).
class QuadTree {
 public:
  /// A stored (point, payload) pair.
  struct Entry {
    Point point;
    uint32_t value = 0;
  };

  /// A leaf region exposed to partition-based algorithms. `region` is the
  /// node's quadrant; `mbr` the tight bounding box of its entries.
  struct LeafRef {
    uint32_t ordinal = 0;
    Rect region;
    Rect mbr;
    std::span<const Entry> entries;
  };

  /// Creates an empty tree over `bounds`.
  /// Preconditions: leaf_capacity >= 1, max_depth >= 1.
  QuadTree(const Rect& bounds, int leaf_capacity, int max_depth = 24);

  QuadTree(QuadTree&&) = default;
  QuadTree& operator=(QuadTree&&) = default;

  /// Builds a tree over `entries` (bounds = their bounding box).
  static QuadTree Build(std::vector<Entry> entries, int leaf_capacity,
                        int max_depth = 24);

  /// Inserts one point. Points outside the root bounds are clamped onto
  /// the boundary region (the tree never rejects data).
  void Insert(const Point& point, uint32_t value);

  /// Number of stored points.
  size_t size() const { return size_; }

  /// Collects all (non-empty) leaves in depth-first quadrant order.
  /// Spans are invalidated by Insert.
  std::vector<LeafRef> CollectLeaves() const;

  /// Verifies structural invariants (region containment, capacity /
  /// depth limits). For tests.
  bool CheckInvariants() const;

 private:
  struct Node {
    Rect region;
    int depth = 1;
    // children[0..3] = SW, SE, NW, NE; -1 while a leaf.
    int32_t children[4] = {-1, -1, -1, -1};
    std::vector<Entry> entries;  // leaves only

    bool is_leaf() const { return children[0] < 0; }
  };

  int32_t NewNode(const Rect& region, int depth);
  void InsertInto(int32_t node_id, Entry entry);
  void Split(int32_t node_id);
  int QuadrantOf(const Node& node, const Point& p) const;
  void CollectLeavesRecursive(int32_t node_id,
                              std::vector<LeafRef>* out) const;
  bool CheckNode(int32_t node_id) const;

  int leaf_capacity_;
  int max_depth_;
  size_t size_ = 0;
  std::vector<Node> nodes_;  // nodes_[0] is the root
};

}  // namespace stps

#endif  // STPS_SPATIAL_QUADTREE_H_
