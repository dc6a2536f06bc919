// Planar geometry primitives: points, axis-aligned rectangles, distances.

#ifndef STPS_SPATIAL_GEOMETRY_H_
#define STPS_SPATIAL_GEOMETRY_H_

#include <cmath>

#include "common/predicates.h"

namespace stps {

/// A 2-D point (e.g. lon/lat treated as planar coordinates, as in the
/// paper's Euclidean-distance model).
struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point& a, const Point& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Squared Euclidean distance (avoids the sqrt on hot paths).
inline double SquaredDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Euclidean distance.
inline double Distance(const Point& a, const Point& b) {
  return std::sqrt(SquaredDistance(a, b));
}

/// True iff dist(a, b) <= eps, computed without a sqrt. This is the one
/// spatial verification predicate (common/predicates.h): every layer
/// compares the same SquaredDistance form against the same rounded square,
/// so no two layers can disagree at the eps_loc boundary.
inline bool WithinDistance(const Point& a, const Point& b, double eps) {
  return WithinEpsLoc(SquaredDistance(a, b), eps);
}

/// Axis-aligned rectangle [min_x, max_x] x [min_y, max_y].
struct Rect {
  double min_x = 0.0;
  double min_y = 0.0;
  double max_x = 0.0;
  double max_y = 0.0;

  /// The degenerate rectangle covering a single point.
  static Rect FromPoint(const Point& p) { return {p.x, p.y, p.x, p.y}; }

  /// An "empty" rectangle that is the identity for ExpandToInclude.
  static Rect Empty();

  /// True when this rectangle is the Empty() sentinel.
  bool IsEmpty() const { return min_x > max_x || min_y > max_y; }

  /// True when `p` lies inside or on the boundary.
  bool Contains(const Point& p) const {
    return p.x >= min_x && p.x <= max_x && p.y >= min_y && p.y <= max_y;
  }

  /// True when `other` lies fully inside this rectangle.
  bool ContainsRect(const Rect& other) const {
    return other.min_x >= min_x && other.max_x <= max_x &&
           other.min_y >= min_y && other.max_y <= max_y;
  }

  /// True when the closed rectangles share at least one point.
  bool Intersects(const Rect& other) const {
    return min_x <= other.max_x && other.min_x <= max_x &&
           min_y <= other.max_y && other.min_y <= max_y;
  }

  /// The intersection rectangle; result.IsEmpty() when disjoint.
  Rect Intersection(const Rect& other) const;

  /// Grows the rectangle to cover `p`.
  void ExpandToInclude(const Point& p);

  /// Grows the rectangle to cover `other`.
  void ExpandToInclude(const Rect& other);

  /// The rectangle enlarged by `margin` on every side (the paper's
  /// eps_loc-extended MBR). A *filter* box: each side rounds outward one
  /// ULP (common/predicates.h rounding policy), so the result provably
  /// covers every point within `margin` of the rectangle — round-to-nearest
  /// subtraction alone could fall short of `min_x - margin` and silently
  /// exclude a boundary point from a downstream exact check.
  Rect Extended(double margin) const {
    return {SubRoundDown(min_x, margin), SubRoundDown(min_y, margin),
            AddRoundUp(max_x, margin), AddRoundUp(max_y, margin)};
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.min_x == b.min_x && a.min_y == b.min_y && a.max_x == b.max_x &&
           a.max_y == b.max_y;
  }
};

}  // namespace stps

#endif  // STPS_SPATIAL_GEOMETRY_H_
