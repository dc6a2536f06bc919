// R-tree over 2-D points (Guttman, SIGMOD 1984) built by Sort-Tile-
// Recursive bulk loading (Leutenegger et al.).
//
// S-PPJ-D and PPJ-R treat the R-tree leaves as a data-driven partitioning
// of the object database; the `fanout` parameter studied in the paper's
// Figure 6 is the node capacity. A tree is immutable once BulkLoad returns
// it: its only reader is leaf enumeration.

#ifndef STPS_SPATIAL_RTREE_H_
#define STPS_SPATIAL_RTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/macros.h"
#include "spatial/geometry.h"

namespace stps {

/// An R-tree indexing points with opaque uint32 payloads.
class RTree {
 public:
  /// A stored (point, payload) pair.
  struct Entry {
    Point point;
    uint32_t value = 0;
  };

  /// A leaf node exposed to partition-based algorithms (S-PPJ-D).
  struct LeafRef {
    /// Dense ordinal in left-to-right tree order.
    uint32_t ordinal = 0;
    Rect mbr;
    std::span<const Entry> entries;
  };

  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;

  /// Builds a tree over `entries` with Sort-Tile-Recursive packing.
  /// Precondition: fanout >= 2.
  static RTree BulkLoad(std::vector<Entry> entries, int fanout);

  /// Number of stored points.
  size_t size() const { return size_; }

  /// Tree height (0 for an empty tree, 1 when the root is a leaf).
  int Height() const;

  /// Collects all leaves in left-to-right order. The spans point into the
  /// tree and live as long as it does.
  std::vector<LeafRef> CollectLeaves() const;

  /// Verifies structural invariants (MBR containment, fanout bounds,
  /// uniform leaf depth). Returns true when consistent. For tests.
  bool CheckInvariants() const;

 private:
  struct Node {
    Rect mbr = Rect::Empty();
    bool is_leaf = true;
    std::vector<int32_t> children;  // internal nodes
    std::vector<Entry> entries;     // leaves
  };

  explicit RTree(int fanout);

  int32_t NewNode(bool is_leaf);
  void CollectLeavesRecursive(int32_t node_id,
                              std::vector<LeafRef>* out) const;
  bool CheckNode(int32_t node_id, int depth, int leaf_depth) const;
  int DepthOfLeftmostLeaf() const;

  int fanout_;
  size_t size_ = 0;
  int32_t root_ = -1;
  std::vector<Node> nodes_;
};

}  // namespace stps

#endif  // STPS_SPATIAL_RTREE_H_
