// Spatial joins over rectangle collections.
//
// S-PPJ-D precomputes which eps_loc-extended leaf MBRs intersect.
// RectSelfJoin provides that via a plane sweep (the classic optimisation
// of Brinkhoff, Kriegel, Seeger, SIGMOD 1993 applied to a flat rectangle
// list); LeafAdjacency wires it to an R-tree's leaves for PPJ-R.

#ifndef STPS_SPATIAL_SPATIAL_JOIN_H_
#define STPS_SPATIAL_SPATIAL_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "spatial/geometry.h"
#include "spatial/rtree.h"

namespace stps {

/// All index pairs (i, j), i < j, of intersecting rectangles, found with a
/// sweep along the x axis. O(n log n + output), assuming bounded overlap.
std::vector<std::pair<uint32_t, uint32_t>> RectSelfJoin(
    const std::vector<Rect>& rects);

/// Adjacency lists over a tree's leaves: result[l] holds the ordinals of
/// every leaf (including l itself) whose `margin`-extended MBR intersects
/// the `margin`-extended MBR of leaf l, sorted ascending.
std::vector<std::vector<uint32_t>> LeafAdjacency(const RTree& tree,
                                                 double margin);

}  // namespace stps

#endif  // STPS_SPATIAL_SPATIAL_JOIN_H_
