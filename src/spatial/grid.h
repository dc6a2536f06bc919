// Sparse uniform grid geometry.
//
// The paper's grid algorithms (PPJ-C, PPJ-B, S-PPJ-*) use a dynamic grid
// whose cell extent equals the spatial threshold eps_loc, with cell ids
// assigned row-wise from the bottom row upwards (Figure 2). Domains can be
// huge relative to eps_loc (e.g. eps_loc = 0.001 over a country-sized
// extent), so the grid is purely *geometric*: it maps points to 64-bit
// cell ids and enumerates neighbour ids without materialising cells.
// Callers keep occupied cells in hash maps / sorted lists.

#ifndef STPS_SPATIAL_GRID_H_
#define STPS_SPATIAL_GRID_H_

#include <cstdint>
#include <vector>

#include "spatial/geometry.h"

namespace stps {

/// Row-major cell identifier: id = row * columns + column.
using CellId = int64_t;

/// Geometry of a uniform grid over a bounding rectangle.
class GridGeometry {
 public:
  /// Covers `bounds` with square cells of side `cell_size`, inflated by a
  /// few ULPs of the coordinate magnitude so that points within
  /// `cell_size` of each other always land in the same or adjacent
  /// rows/columns despite floating-point rounding in the cell assignment
  /// (see grid.cc and the rounding policy in common/predicates.h). A point
  /// exactly on a cell boundary is therefore assigned the lower cell.
  /// Cells also grow to at least 1/2^31 of the larger extent, so each
  /// axis has at most 2^31 cells and ids cannot overflow at tiny sizes.
  /// Preconditions: cell_size > 0, !bounds.IsEmpty().
  GridGeometry(const Rect& bounds, double cell_size);

  /// Column index of a point (clamped to the grid extent).
  int64_t ColumnOf(const Point& p) const;

  /// Row index of a point (clamped to the grid extent).
  int64_t RowOf(const Point& p) const;

  /// Row-major id of the cell containing `p`.
  CellId CellOf(const Point& p) const {
    return RowOf(p) * columns_ + ColumnOf(p);
  }

  /// Id from explicit coordinates. Precondition: in range.
  CellId IdOf(int64_t column, int64_t row) const {
    return row * columns_ + column;
  }

  int64_t ColumnOf(CellId id) const { return id % columns_; }
  int64_t RowOf(CellId id) const { return id / columns_; }

  int64_t columns() const { return columns_; }
  int64_t rows() const { return rows_; }
  double cell_size() const { return cell_size_; }
  const Rect& bounds() const { return bounds_; }

  /// Appends the ids of the (up to 8) cells adjacent to `id`, plus `id`
  /// itself when `include_self`, clipped to the grid extent. Order is
  /// deterministic: row-major ascending.
  void AppendNeighborhood(CellId id, bool include_self,
                          std::vector<CellId>* out) const;

  /// Appends the adjacent cell ids strictly smaller than `id` (the cells
  /// PPJ-C joins a cell with: W, SW, S, SE).
  void AppendLowerNeighbors(CellId id, std::vector<CellId>* out) const;

  /// Appends the neighbourhood used by the PPJ-B odd-row step: all
  /// adjacent cells except the one directly to the East, plus self.
  void AppendOddRowNeighbors(CellId id, std::vector<CellId>* out) const;

  /// The PPJ-B even-row step neighbourhood: the cell directly to the West
  /// (if any) plus the cell itself. All other adjacencies of an even-row
  /// cell are covered by the odd rows above and below it; the within-cell
  /// pair is covered nowhere else, so self is included here.
  void AppendEvenRowNeighbors(CellId id, std::vector<CellId>* out) const;

 private:
  Rect bounds_;
  double cell_size_;
  int64_t columns_ = 1;
  int64_t rows_ = 1;
};

}  // namespace stps

#endif  // STPS_SPATIAL_GRID_H_
