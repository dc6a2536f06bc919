#include "spatial/grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "common/predicates.h"

namespace stps {

namespace {

// Conservatively inflates the requested cell size so that cell assignment
// is *filter-sound*: two points at distance <= cell_size must land in the
// same or adjacent rows/columns, or the grid join silently drops the pair
// before any exact check runs (common/predicates.h rounding policy —
// filters may only over-approximate).
//
// ColumnOf computes floor((x - min_x) / cell). Both the subtraction and
// the division round to nearest, each off by <= 1/2 ULP of a value no
// larger in magnitude than the bounds coordinates (the quotient is scaled
// by 1/cell, so its absolute error in *coordinate* units stays at that
// same scale). Two points exactly cell_size apart can therefore straddle
// two column boundaries when each computation rounds the wrong way.
// Growing the cell by a few ULPs of the largest coordinate magnitude makes
// every real inter-boundary gap strictly wider than the original
// cell_size, absorbing the rounding. The margin is absolute, not relative
// to cell_size: for eps_loc = 1e-3 over a +/-180 domain the rounding error
// lives at the magnitude of the coordinates, not of the cell.
double ConservativeCellSize(const Rect& bounds, double cell_size) {
  const double magnitude =
      std::max({std::fabs(bounds.min_x), std::fabs(bounds.max_x),
                std::fabs(bounds.min_y), std::fabs(bounds.max_y), cell_size});
  const double margin =
      8.0 * std::numeric_limits<double>::epsilon() * magnitude;
  return AddRoundUp(cell_size, margin);
}

// The most cells a grid spans per axis: row * columns + column then stays
// below 2^62, far inside CellId, however small eps_loc gets.
constexpr double kMaxCellsPerAxis = 2147483648.0;  // 2^31

// The conservative cell size, grown to at least 1/2^31 of the larger
// extent. Growing is sound: the filter only needs cells at least eps_loc
// wide, so coarser cells merely admit more candidates.
double GridCellSize(const Rect& bounds, double cell_size) {
  const double extent = std::max(bounds.max_x - bounds.min_x,
                                 bounds.max_y - bounds.min_y);
  return std::max(ConservativeCellSize(bounds, cell_size),
                  extent / kMaxCellsPerAxis);
}

}  // namespace

GridGeometry::GridGeometry(const Rect& bounds, double cell_size)
    : bounds_(bounds), cell_size_(GridCellSize(bounds, cell_size)) {
  STPS_CHECK(cell_size > 0.0);
  STPS_CHECK(!bounds.IsEmpty());
  columns_ = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil((bounds.max_x - bounds.min_x) / cell_size_)));
  rows_ = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil((bounds.max_y - bounds.min_y) / cell_size_)));
}

int64_t GridGeometry::ColumnOf(const Point& p) const {
  const int64_t c =
      static_cast<int64_t>(std::floor((p.x - bounds_.min_x) / cell_size_));
  return std::clamp<int64_t>(c, 0, columns_ - 1);
}

int64_t GridGeometry::RowOf(const Point& p) const {
  const int64_t r =
      static_cast<int64_t>(std::floor((p.y - bounds_.min_y) / cell_size_));
  return std::clamp<int64_t>(r, 0, rows_ - 1);
}

void GridGeometry::AppendNeighborhood(CellId id, bool include_self,
                                      std::vector<CellId>* out) const {
  const int64_t col = ColumnOf(id);
  const int64_t row = RowOf(id);
  for (int64_t dr = -1; dr <= 1; ++dr) {
    const int64_t r = row + dr;
    if (r < 0 || r >= rows_) continue;
    for (int64_t dc = -1; dc <= 1; ++dc) {
      const int64_t c = col + dc;
      if (c < 0 || c >= columns_) continue;
      if (dr == 0 && dc == 0 && !include_self) continue;
      out->push_back(IdOf(c, r));
    }
  }
}

void GridGeometry::AppendLowerNeighbors(CellId id,
                                        std::vector<CellId>* out) const {
  const int64_t col = ColumnOf(id);
  const int64_t row = RowOf(id);
  // Row below: SW, S, SE.
  if (row > 0) {
    for (int64_t dc = -1; dc <= 1; ++dc) {
      const int64_t c = col + dc;
      if (c < 0 || c >= columns_) continue;
      out->push_back(IdOf(c, row - 1));
    }
  }
  // Same row: W.
  if (col > 0) out->push_back(IdOf(col - 1, row));
}

void GridGeometry::AppendOddRowNeighbors(CellId id,
                                         std::vector<CellId>* out) const {
  const int64_t col = ColumnOf(id);
  const int64_t row = RowOf(id);
  for (int64_t dr = -1; dr <= 1; ++dr) {
    const int64_t r = row + dr;
    if (r < 0 || r >= rows_) continue;
    for (int64_t dc = -1; dc <= 1; ++dc) {
      const int64_t c = col + dc;
      if (c < 0 || c >= columns_) continue;
      if (dr == 0 && dc == 1) continue;  // skip the East cell
      out->push_back(IdOf(c, r));
    }
  }
}

void GridGeometry::AppendEvenRowNeighbors(CellId id,
                                          std::vector<CellId>* out) const {
  const int64_t col = ColumnOf(id);
  const int64_t row = RowOf(id);
  if (col > 0) out->push_back(IdOf(col - 1, row));
  out->push_back(id);
}

}  // namespace stps
