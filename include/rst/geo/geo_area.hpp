#pragma once

#include "rst/geo/vec2.hpp"

namespace rst::geo {

/// Geographic area shapes per ETSI EN 302 931 (used by GeoNetworking
/// GeoBroadcast destination areas and by the DENM relevance area).
enum class AreaShape { Circle, Rectangle, Ellipse };

/// A geo-area in the local east-north frame.
///
/// EN 302 931 defines a "geometric function" F over point coordinates
/// (x, y) relative to the area centre, rotated by the area azimuth:
///   circle/ellipse: F = 1 - (x/a)^2 - (y/b)^2
///   rectangle:      F = min(1 - (x/a)^2, 1 - (y/b)^2)
/// with F > 0 inside, F = 0 on the border, F < 0 outside.
struct GeoArea {
  AreaShape shape{AreaShape::Circle};
  Vec2 center;
  /// Semi-distance along the azimuth direction (metres). For a circle this
  /// is the radius and `b` is ignored.
  double a{0};
  /// Semi-distance perpendicular to the azimuth direction (metres).
  double b{0};
  /// Azimuth of the long axis, radians clockwise from north.
  double azimuth_rad{0};

  [[nodiscard]] static GeoArea circle(Vec2 center, double radius_m) {
    return {AreaShape::Circle, center, radius_m, radius_m, 0.0};
  }
  [[nodiscard]] static GeoArea rectangle(Vec2 center, double a, double b, double azimuth_rad = 0.0) {
    return {AreaShape::Rectangle, center, a, b, azimuth_rad};
  }
  [[nodiscard]] static GeoArea ellipse(Vec2 center, double a, double b, double azimuth_rad = 0.0) {
    return {AreaShape::Ellipse, center, a, b, azimuth_rad};
  }

  /// EN 302 931 geometric function at point p.
  [[nodiscard]] double geometric_function(Vec2 p) const;
  [[nodiscard]] bool contains(Vec2 p) const { return geometric_function(p) >= 0.0; }
};

}  // namespace rst::geo
