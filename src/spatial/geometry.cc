#include "spatial/geometry.h"

#include <algorithm>
#include <limits>

namespace stps {

Rect Rect::Empty() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {kInf, kInf, -kInf, -kInf};
}

Rect Rect::Intersection(const Rect& other) const {
  Rect r;
  r.min_x = std::max(min_x, other.min_x);
  r.min_y = std::max(min_y, other.min_y);
  r.max_x = std::min(max_x, other.max_x);
  r.max_y = std::min(max_y, other.max_y);
  return r;
}

void Rect::ExpandToInclude(const Point& p) {
  min_x = std::min(min_x, p.x);
  min_y = std::min(min_y, p.y);
  max_x = std::max(max_x, p.x);
  max_y = std::max(max_y, p.y);
}

void Rect::ExpandToInclude(const Rect& other) {
  if (other.IsEmpty()) return;
  min_x = std::min(min_x, other.min_x);
  min_y = std::min(min_y, other.min_y);
  max_x = std::max(max_x, other.max_x);
  max_y = std::max(max_y, other.max_y);
}

}  // namespace stps
