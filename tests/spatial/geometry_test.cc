#include "spatial/geometry.h"

#include <gtest/gtest.h>

namespace stps {
namespace {

TEST(PointTest, DistanceAndWithin) {
  const Point a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_TRUE(WithinDistance(a, b, 5.0));
  EXPECT_TRUE(WithinDistance(a, b, 5.1));
  EXPECT_FALSE(WithinDistance(a, b, 4.9));
  EXPECT_TRUE(WithinDistance(a, a, 0.0));
}

TEST(RectTest, EmptySentinel) {
  const Rect e = Rect::Empty();
  EXPECT_TRUE(e.IsEmpty());
  Rect r = Rect::Empty();
  r.ExpandToInclude(Point{1, 2});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_EQ(r, Rect::FromPoint({1, 2}));
}

TEST(RectTest, ContainsAndIntersects) {
  const Rect r{0, 0, 2, 2};
  EXPECT_TRUE(r.Contains({1, 1}));
  EXPECT_TRUE(r.Contains({0, 0}));   // boundary inclusive
  EXPECT_TRUE(r.Contains({2, 2}));
  EXPECT_FALSE(r.Contains({2.001, 1}));
  EXPECT_TRUE(r.Intersects({2, 2, 3, 3}));  // corner touch
  EXPECT_TRUE(r.Intersects({1, 1, 5, 5}));
  EXPECT_FALSE(r.Intersects({2.1, 0, 3, 1}));
  EXPECT_TRUE(r.ContainsRect({0.5, 0.5, 1.5, 1.5}));
  EXPECT_FALSE(r.ContainsRect({0.5, 0.5, 2.5, 1.5}));
}

TEST(RectTest, IntersectionAndExpansion) {
  const Rect a{0, 0, 2, 2}, b{1, 1, 3, 3};
  const Rect i = a.Intersection(b);
  EXPECT_EQ(i, (Rect{1, 1, 2, 2}));
  EXPECT_TRUE(a.Intersection({5, 5, 6, 6}).IsEmpty());
  Rect grown = a;
  grown.ExpandToInclude(b);
  EXPECT_EQ(grown, (Rect{0, 0, 3, 3}));
}

TEST(RectTest, ExtendedGrowsAllSides) {
  const Rect r{1, 2, 3, 4};
  const Rect e = r.Extended(0.5);
  EXPECT_DOUBLE_EQ(e.min_x, 0.5);
  EXPECT_DOUBLE_EQ(e.min_y, 1.5);
  EXPECT_DOUBLE_EQ(e.max_x, 3.5);
  EXPECT_DOUBLE_EQ(e.max_y, 4.5);
  // Extended is a filter box: it must round outward, never inward, so the
  // box provably covers every point within `margin` of the rectangle.
  EXPECT_LE(e.min_x, 1.0 - 0.5);
  EXPECT_LE(e.min_y, 2.0 - 0.5);
  EXPECT_GE(e.max_x, 3.0 + 0.5);
  EXPECT_GE(e.max_y, 4.0 + 0.5);
}

}  // namespace
}  // namespace stps
