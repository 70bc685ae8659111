#include "rst/geo/geo_area.hpp"

#include <algorithm>
#include <stdexcept>

namespace rst::geo {

double GeoArea::geometric_function(Vec2 p) const {
  if (a <= 0) throw std::logic_error{"GeoArea: non-positive semi-distance a"};
  // Rotate into the area frame: the EN 302 931 x-axis points along the
  // azimuth (clockwise-from-north angle), i.e. rotate the east-north delta
  // *counter-clockwise* by (pi/2 - azimuth) ... equivalently compute
  // components via the axis unit vectors.
  const Vec2 d = p - center;
  const Vec2 axis_long = vector_from_heading(azimuth_rad);
  const Vec2 axis_perp{axis_long.y, -axis_long.x};
  const double x = d.dot(axis_long);
  const double y = d.dot(axis_perp);

  switch (shape) {
    case AreaShape::Circle: {
      const double r = a;
      return 1.0 - (x * x + y * y) / (r * r);
    }
    case AreaShape::Ellipse: {
      if (b <= 0) throw std::logic_error{"GeoArea: non-positive semi-distance b"};
      return 1.0 - (x / a) * (x / a) - (y / b) * (y / b);
    }
    case AreaShape::Rectangle: {
      if (b <= 0) throw std::logic_error{"GeoArea: non-positive semi-distance b"};
      return std::min(1.0 - (x / a) * (x / a), 1.0 - (y / b) * (y / b));
    }
  }
  throw std::logic_error{"GeoArea: unknown shape"};
}

}  // namespace rst::geo
