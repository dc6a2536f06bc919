#include "spatial/grid.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace stps {
namespace {

TEST(GridGeometryTest, CellIdsAreRowMajorBottomUp) {
  const GridGeometry grid({0, 0, 5, 4}, 1.0);
  EXPECT_EQ(grid.columns(), 5);
  EXPECT_EQ(grid.rows(), 4);
  EXPECT_EQ(grid.CellOf({0.5, 0.5}), 0);
  EXPECT_EQ(grid.CellOf({4.5, 0.5}), 4);
  EXPECT_EQ(grid.CellOf({0.5, 1.5}), 5);
  EXPECT_EQ(grid.CellOf({4.5, 3.5}), 19);
}

TEST(GridGeometryTest, PointsOnMaxBoundaryClampIntoGrid) {
  const GridGeometry grid({0, 0, 5, 4}, 1.0);
  EXPECT_EQ(grid.CellOf({5.0, 4.0}), 19);
  EXPECT_EQ(grid.CellOf({0.0, 0.0}), 0);
}

TEST(GridGeometryTest, HugeSparseDomainsDoNotOverflow) {
  // Country-scale extent with eps_loc cells: billions of cells.
  const GridGeometry grid({-125, 25, -67, 49}, 0.001);
  EXPECT_GT(grid.columns() * grid.rows(), 1000000000LL);
  const CellId c = grid.CellOf({-100.0, 40.0});
  EXPECT_GE(c, 0);
  EXPECT_EQ(grid.RowOf(c) * grid.columns() + grid.ColumnOf(c), c);
}

TEST(GridGeometryTest, TinyCellsKeepIdsInRange) {
  // At eps_loc 1e-10 the unit square would need 1e10 x 1e10 cells, past
  // int64; the grid caps each axis instead, and ids stay exact.
  for (const double eps_loc : {1e-10, 1e-15, 1e-300}) {
    const GridGeometry grid({0, 0, 1, 1}, eps_loc);
    EXPECT_GE(grid.cell_size(), eps_loc);
    const __int128 cells =
        static_cast<__int128>(grid.columns()) * grid.rows();
    EXPECT_LE(cells, static_cast<__int128>(
                         std::numeric_limits<int64_t>::max()))
        << eps_loc;
    for (const Point p : {Point{0, 0}, Point{1, 0}, Point{0, 1}, Point{1, 1},
                          Point{0.25, 0.75}, Point{0.6, 0.3}}) {
      const CellId id = grid.CellOf(p);
      EXPECT_GE(id, 0) << eps_loc;
      EXPECT_EQ(grid.RowOf(id), grid.RowOf(p)) << eps_loc;
      EXPECT_EQ(grid.ColumnOf(id), grid.ColumnOf(p)) << eps_loc;
      std::vector<CellId> n;
      grid.AppendNeighborhood(id, /*include_self=*/true, &n);
      EXPECT_NE(std::find(n.begin(), n.end(), id), n.end()) << eps_loc;
    }
  }
}

TEST(GridGeometryTest, NeighborhoodInteriorHasNineCells) {
  const GridGeometry grid({0, 0, 5, 5}, 1.0);
  std::vector<CellId> n;
  grid.AppendNeighborhood(grid.IdOf(2, 2), true, &n);
  EXPECT_EQ(n.size(), 9u);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
  grid.AppendNeighborhood(grid.IdOf(2, 2), false, &n);
  EXPECT_EQ(n.size(), 9u + 8u);
}

TEST(GridGeometryTest, NeighborhoodClipsAtCorners) {
  const GridGeometry grid({0, 0, 5, 5}, 1.0);
  std::vector<CellId> n;
  grid.AppendNeighborhood(grid.IdOf(0, 0), true, &n);
  EXPECT_EQ(n.size(), 4u);
  n.clear();
  grid.AppendNeighborhood(grid.IdOf(4, 4), true, &n);
  EXPECT_EQ(n.size(), 4u);
}

TEST(GridGeometryTest, LowerNeighborsMatchPPJCDefinition) {
  const GridGeometry grid({0, 0, 5, 5}, 1.0);
  std::vector<CellId> n;
  grid.AppendLowerNeighbors(grid.IdOf(2, 2), &n);
  // SW, S, SE, W.
  const std::vector<CellId> expected = {grid.IdOf(1, 1), grid.IdOf(2, 1),
                                        grid.IdOf(3, 1), grid.IdOf(1, 2)};
  EXPECT_EQ(n, expected);
  n.clear();
  grid.AppendLowerNeighbors(grid.IdOf(0, 0), &n);
  EXPECT_TRUE(n.empty());
}

// The central property behind PPJ-B's correctness: over a full traversal,
// the odd/even row neighbourhoods enumerate every unordered pair of
// adjacent cells (and every self pair) exactly once.
TEST(GridGeometryTest, ParityTraversalCoversEachAdjacentPairExactlyOnce) {
  const GridGeometry grid({0, 0, 7, 6}, 1.0);
  std::map<std::pair<CellId, CellId>, int> covered;
  std::vector<CellId> n;
  for (int64_t row = 0; row < grid.rows(); ++row) {
    const bool odd = (row % 2) == 0;  // paper rows are 1-based
    for (int64_t col = 0; col < grid.columns(); ++col) {
      const CellId c = grid.IdOf(col, row);
      n.clear();
      if (odd) {
        grid.AppendOddRowNeighbors(c, &n);
      } else {
        grid.AppendEvenRowNeighbors(c, &n);
      }
      for (const CellId other : n) {
        const auto key = std::minmax(c, other);
        ++covered[{key.first, key.second}];
      }
    }
  }
  // Expect exactly the adjacency relation (incl. self loops), each once.
  for (int64_t row = 0; row < grid.rows(); ++row) {
    for (int64_t col = 0; col < grid.columns(); ++col) {
      const CellId c = grid.IdOf(col, row);
      std::vector<CellId> adjacent;
      grid.AppendNeighborhood(c, true, &adjacent);
      for (const CellId other : adjacent) {
        if (other < c) continue;  // count each unordered pair once
        const auto it = covered.find({c, other});
        ASSERT_NE(it, covered.end())
            << "pair (" << c << "," << other << ") never joined";
        EXPECT_EQ(it->second, 1)
            << "pair (" << c << "," << other << ") joined twice";
        covered.erase(it);
      }
    }
  }
  EXPECT_TRUE(covered.empty()) << "non-adjacent pairs were joined";
}

TEST(GridGeometryTest, BoundaryPointsAreAssignedTheLowerCell) {
  // The cell extent is inflated by a few ULPs (see grid.cc), so a point
  // sitting exactly on an interior cell boundary divides to strictly less
  // than the integer index and lands in the lower cell.
  const GridGeometry grid({0, 0, 5, 4}, 1.0);
  EXPECT_EQ(grid.CellOf({1.0, 0.5}), grid.IdOf(0, 0));
  EXPECT_EQ(grid.CellOf({0.5, 1.0}), grid.IdOf(0, 0));
  EXPECT_EQ(grid.CellOf({2.0, 2.0}), grid.IdOf(1, 1));
  EXPECT_EQ(grid.CellOf({4.0, 3.0}), grid.IdOf(3, 2));
}

TEST(GridGeometryTest, OneCellGrids) {
  // Domain no larger than a single cell: every query degenerates to cell 0.
  for (const Rect bounds :
       {Rect{0, 0, 0.5, 0.5}, Rect{2, 3, 2, 3} /* single point */}) {
    const GridGeometry grid(bounds, 1.0);
    EXPECT_EQ(grid.columns(), 1);
    EXPECT_EQ(grid.rows(), 1);
    EXPECT_EQ(grid.CellOf({bounds.min_x, bounds.min_y}), 0);
    EXPECT_EQ(grid.CellOf({bounds.max_x, bounds.max_y}), 0);
    std::vector<CellId> n;
    grid.AppendNeighborhood(0, true, &n);
    EXPECT_EQ(n, (std::vector<CellId>{0}));
    n.clear();
    grid.AppendNeighborhood(0, false, &n);
    EXPECT_TRUE(n.empty());
    n.clear();
    grid.AppendLowerNeighbors(0, &n);
    EXPECT_TRUE(n.empty());
    n.clear();
    grid.AppendOddRowNeighbors(0, &n);
    EXPECT_EQ(n, (std::vector<CellId>{0}));  // self only
    n.clear();
    grid.AppendEvenRowNeighbors(0, &n);
    EXPECT_EQ(n, (std::vector<CellId>{0}));
  }
}

TEST(GridGeometryTest, LowerNeighborsClipOnEveryBorder) {
  const GridGeometry grid({0, 0, 5, 5}, 1.0);
  std::vector<CellId> n;
  // Bottom row, interior column: only W survives.
  grid.AppendLowerNeighbors(grid.IdOf(2, 0), &n);
  EXPECT_EQ(n, (std::vector<CellId>{grid.IdOf(1, 0)}));
  // Bottom-right corner: only W.
  n.clear();
  grid.AppendLowerNeighbors(grid.IdOf(4, 0), &n);
  EXPECT_EQ(n, (std::vector<CellId>{grid.IdOf(3, 0)}));
  // Left column, interior row: S and SE, no W/SW.
  n.clear();
  grid.AppendLowerNeighbors(grid.IdOf(0, 2), &n);
  EXPECT_EQ(n, (std::vector<CellId>{grid.IdOf(0, 1), grid.IdOf(1, 1)}));
  // Right column, interior row: SW, S, W — no SE.
  n.clear();
  grid.AppendLowerNeighbors(grid.IdOf(4, 2), &n);
  EXPECT_EQ(n, (std::vector<CellId>{grid.IdOf(3, 1), grid.IdOf(4, 1),
                                    grid.IdOf(3, 2)}));
  // Top-left corner: S and SE.
  n.clear();
  grid.AppendLowerNeighbors(grid.IdOf(0, 4), &n);
  EXPECT_EQ(n, (std::vector<CellId>{grid.IdOf(0, 3), grid.IdOf(1, 3)}));
}

// Filter soundness: any two points within cell_size of each other must land
// in the same or adjacent cells, including points exactly on cell
// boundaries and domains whose offset magnitude makes the per-cell division
// inexact. This is the property the conservative cell inflation exists for;
// without it, a pair at distance exactly cell_size straddling a boundary
// can end up two columns apart and every grid join silently drops it.
TEST(GridGeometryTest, AdjacencyIsSoundForPairsWithinCellSize) {
  const double cell = 0.1;  // not a power of two: division is inexact
  for (const double offset : {0.0, 1000.0, -777.7}) {
    const Rect bounds{offset, offset, offset + 10.0, offset + 10.0};
    const GridGeometry grid(bounds, cell);
    std::vector<Point> pts;
    // Adversarial placement: points exactly on multiples of cell_size
    // from the domain minimum, plus half-cell offsets.
    for (int i = 0; i < 40; ++i) {
      const double x = offset + cell * static_cast<double>(i);
      pts.push_back({x, offset});
      pts.push_back({x, offset + cell * 0.5});
      pts.push_back({offset, x});
    }
    for (size_t i = 0; i < pts.size(); ++i) {
      for (size_t j = i + 1; j < pts.size(); ++j) {
        if (!WithinDistance(pts[i], pts[j], cell)) continue;
        const CellId ci = grid.CellOf(pts[i]);
        const CellId cj = grid.CellOf(pts[j]);
        EXPECT_LE(std::abs(grid.ColumnOf(ci) - grid.ColumnOf(cj)), 1)
            << "offset=" << offset << " i=" << i << " j=" << j;
        EXPECT_LE(std::abs(grid.RowOf(ci) - grid.RowOf(cj)), 1)
            << "offset=" << offset << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(GridGeometryTest, SingleRowAndSingleColumnGrids) {
  const GridGeometry row_grid({0, 0, 10, 0.5}, 1.0);
  EXPECT_EQ(row_grid.rows(), 1);
  std::vector<CellId> n;
  row_grid.AppendOddRowNeighbors(3, &n);
  EXPECT_EQ(n, (std::vector<CellId>{2, 3}));  // W and self, no E

  const GridGeometry col_grid({0, 0, 0.5, 10}, 1.0);
  EXPECT_EQ(col_grid.columns(), 1);
  n.clear();
  col_grid.AppendEvenRowNeighbors(col_grid.IdOf(0, 1), &n);
  EXPECT_EQ(n, (std::vector<CellId>{col_grid.IdOf(0, 1)}));  // self only
}

}  // namespace
}  // namespace stps
