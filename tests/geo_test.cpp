#include <gtest/gtest.h>

#include <cmath>

#include "rst/geo/geo_area.hpp"
#include "rst/geo/geodesy.hpp"
#include "rst/geo/vec2.hpp"
#include "rst/sim/random.hpp"

namespace rst::geo {
namespace {

TEST(Vec2, BasicAlgebra) {
  const Vec2 a{3, 4};
  const Vec2 b{1, -2};
  EXPECT_EQ(a + b, (Vec2{4, 2}));
  EXPECT_EQ(a - b, (Vec2{2, 6}));
  EXPECT_EQ(a * 2.0, (Vec2{6, 8}));
  EXPECT_EQ(a / 2.0, (Vec2{1.5, 2}));
  EXPECT_DOUBLE_EQ(a.dot(b), -5.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -10.0);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
}

TEST(Vec2, NormalizedHandlesZero) {
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{0, 0}));
  const Vec2 n = Vec2{0, 5}.normalized();
  EXPECT_DOUBLE_EQ(n.norm(), 1.0);
}

TEST(Vec2, RotationPreservesNorm) {
  const Vec2 v{2, 1};
  const Vec2 r = v.rotated(1.234);
  EXPECT_NEAR(r.norm(), v.norm(), 1e-12);
  // Rotating by 90 degrees CCW maps (1,0) -> (0,1).
  const Vec2 e = Vec2{1, 0}.rotated(M_PI / 2);
  EXPECT_NEAR(e.x, 0.0, 1e-12);
  EXPECT_NEAR(e.y, 1.0, 1e-12);
}

TEST(Heading, ConventionIsClockwiseFromNorth) {
  EXPECT_NEAR(heading_from_vector({0, 1}), 0.0, 1e-12);          // north
  EXPECT_NEAR(heading_from_vector({1, 0}), M_PI / 2, 1e-12);     // east
  EXPECT_NEAR(heading_from_vector({0, -1}), M_PI, 1e-12);        // south
  EXPECT_NEAR(heading_from_vector({-1, 0}), 3 * M_PI / 2, 1e-12);  // west
}

TEST(Heading, RoundTripWithVector) {
  sim::RandomStream r{1, "heading"};
  for (int i = 0; i < 200; ++i) {
    const double h = r.uniform(0.0, 2 * M_PI);
    const Vec2 v = vector_from_heading(h);
    EXPECT_NEAR(heading_from_vector(v), h, 1e-9);
    EXPECT_NEAR(v.norm(), 1.0, 1e-12);
  }
}

TEST(Geodesy, TenthMicrodegreeConversionRoundTrips) {
  EXPECT_EQ(to_its_tenth_microdegree(41.1780), 411780000);
  EXPECT_NEAR(from_its_tenth_microdegree(411780000), 41.1780, 1e-9);
  EXPECT_EQ(to_its_tenth_microdegree(-8.6080), -86080000);
}

TEST(Geodesy, HaversineKnownDistance) {
  // One degree of latitude is ~111.2 km.
  const GeoPosition a{41.0, -8.0};
  const GeoPosition b{42.0, -8.0};
  EXPECT_NEAR(haversine_m(a, b), 111195, 50);
  EXPECT_DOUBLE_EQ(haversine_m(a, a), 0.0);
}

TEST(LocalFrame, RoundTripsAccuratelyOverLabScale) {
  const LocalFrame frame{{41.1780, -8.6080}};
  sim::RandomStream r{2, "frame"};
  for (int i = 0; i < 200; ++i) {
    const Vec2 p{r.uniform(-200, 200), r.uniform(-200, 200)};
    const Vec2 back = frame.to_local(frame.to_geo(p));
    EXPECT_NEAR(back.x, p.x, 1e-6);
    EXPECT_NEAR(back.y, p.y, 1e-6);
  }
}

TEST(LocalFrame, AgreesWithHaversine) {
  const LocalFrame frame{{41.1780, -8.6080}};
  const Vec2 p{120.0, -80.0};
  const GeoPosition gp = frame.to_geo(p);
  EXPECT_NEAR(haversine_m(frame.origin(), gp), p.norm(), 0.05);
}

TEST(GeoArea, CircleContainment) {
  const GeoArea c = GeoArea::circle({10, 10}, 5.0);
  EXPECT_TRUE(c.contains({10, 10}));
  EXPECT_TRUE(c.contains({14.9, 10}));
  EXPECT_TRUE(c.contains({10, 15}));  // on the border: F == 0
  EXPECT_FALSE(c.contains({15.1, 10}));
}

TEST(GeoArea, GeometricFunctionSignsMatchEn302931) {
  const GeoArea e = GeoArea::ellipse({0, 0}, 4.0, 2.0, 0.0);
  EXPECT_GT(e.geometric_function({0, 0}), 0.0);    // inside
  EXPECT_NEAR(e.geometric_function({0, 4}), 0.0, 1e-12);  // border (long axis = north)
  EXPECT_LT(e.geometric_function({3, 0}), 0.0);    // outside (short axis = east)
}

TEST(GeoArea, RectangleWithAzimuth) {
  // Long axis rotated to east (azimuth 90 deg).
  const GeoArea rect = GeoArea::rectangle({0, 0}, 10.0, 2.0, M_PI / 2);
  EXPECT_TRUE(rect.contains({9, 0}));
  EXPECT_FALSE(rect.contains({0, 3}));
  EXPECT_TRUE(rect.contains({0, 1.9}));
  // The corners are the farthest points inside.
  EXPECT_TRUE(rect.contains({9.9, 1.9}));
  EXPECT_FALSE(rect.contains({10.1, 2.1}));
}

TEST(GeoArea, ContainmentInvariantUnderRotationProperty) {
  // Rotating both the area and the query point preserves containment.
  sim::RandomStream r{3, "area"};
  for (int i = 0; i < 300; ++i) {
    const double az = r.uniform(0.0, 2 * M_PI);
    const Vec2 p{r.uniform(-6, 6), r.uniform(-6, 6)};
    const GeoArea base = GeoArea::ellipse({0, 0}, 5.0, 2.0, 0.0);
    const GeoArea rotated = GeoArea::ellipse({0, 0}, 5.0, 2.0, az);
    // The point rotated clockwise by az (matching the azimuth convention).
    const Vec2 rotated_p = p.rotated(-az);
    EXPECT_EQ(base.contains(p), rotated.contains(rotated_p)) << "azimuth " << az;
  }
}

TEST(GeoArea, InvalidSemiDistanceThrows) {
  GeoArea bad = GeoArea::circle({0, 0}, 0.0);
  EXPECT_THROW((void)bad.contains({1, 1}), std::logic_error);
}

// --- Geodesy edge cases ------------------------------------------------------

TEST(Geodesy, AntimeridianCrossingDistanceIsShort) {
  // Two points 0.2 degrees of longitude apart straddling the +-180 line:
  // the great-circle distance must be the ~22 km short way across the
  // antimeridian, not the ~40000 km long way around.
  const GeoPosition west{0.0, 179.9};
  const GeoPosition east{0.0, -179.9};
  const double d = haversine_m(west, east);
  EXPECT_NEAR(d, 0.2 * 111194.9, 500.0);
  // Symmetry must hold regardless of crossing direction.
  EXPECT_DOUBLE_EQ(d, haversine_m(east, west));
}

TEST(Geodesy, AntimeridianIdenticalPointDifferentRepresentation) {
  // longitude +180 and -180 name the same meridian.
  const GeoPosition plus{10.0, 180.0};
  const GeoPosition minus{10.0, -180.0};
  EXPECT_NEAR(haversine_m(plus, minus), 0.0, 1e-6);
}

TEST(Geodesy, HighLatitudeLongitudeDegreesShrink) {
  // At 80 degrees north, one degree of longitude spans cos(80 deg) of its
  // equatorial width (~19.3 km instead of ~111 km).
  const GeoPosition a{80.0, 0.0};
  const GeoPosition b{80.0, 1.0};
  const double polar = haversine_m(a, b);
  const GeoPosition c{0.0, 0.0};
  const GeoPosition d{0.0, 1.0};
  const double equatorial = haversine_m(c, d);
  EXPECT_NEAR(polar / equatorial, std::cos(80.0 * M_PI / 180.0), 0.01);
  // A degree of latitude barely changes with latitude.
  const double lat_polar = haversine_m({80.0, 0.0}, {81.0, 0.0});
  EXPECT_NEAR(lat_polar / haversine_m({0.0, 0.0}, {1.0, 0.0}), 1.0, 0.01);
}

TEST(Geodesy, HighLatitudeLocalFrameRoundTripsAndBearsEast) {
  // The equirectangular frame must stay self-consistent at high latitude:
  // to_geo(to_local(p)) == p, and a due-east offset lands on the same
  // parallel with the compressed longitude spacing.
  const LocalFrame frame{{78.25, 15.5}};  // Svalbard
  const GeoPosition p{78.2517, 15.52};
  const GeoPosition rt = frame.to_geo(frame.to_local(p));
  EXPECT_NEAR(rt.latitude_deg, p.latitude_deg, 1e-9);
  EXPECT_NEAR(rt.longitude_deg, p.longitude_deg, 1e-9);

  const GeoPosition east_100m = frame.to_geo({100.0, 0.0});
  EXPECT_DOUBLE_EQ(east_100m.latitude_deg, 78.25);
  EXPECT_GT(east_100m.longitude_deg, 15.5);
  // Bearing check via the heading convention: the local displacement back
  // from geographic must point due east.
  const Vec2 disp = frame.to_local(east_100m);
  EXPECT_NEAR(heading_from_vector(disp), M_PI / 2, 1e-9);
  EXPECT_NEAR(disp.norm(), 100.0, 1e-6);
}

TEST(Geodesy, ZeroLengthSegments) {
  // Degenerate inputs must behave as exact identities, not accumulate
  // rounding noise.
  const GeoPosition p{41.178, -8.608};
  EXPECT_DOUBLE_EQ(haversine_m(p, p), 0.0);
  const LocalFrame frame{p};
  EXPECT_EQ(frame.to_local(p), (Vec2{0.0, 0.0}));
  EXPECT_DOUBLE_EQ(distance({3.0, 4.0}, {3.0, 4.0}), 0.0);
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{0.0, 0.0}));
}

TEST(GeoArea, DegenerateShapesStayConsistent) {
  // A tiny (epsilon) circle still contains its center and excludes
  // everything else.
  const GeoArea dot = GeoArea::circle({5.0, 5.0}, 1e-9);
  EXPECT_TRUE(dot.contains({5.0, 5.0}));
  EXPECT_FALSE(dot.contains({5.0 + 1e-6, 5.0}));

  // Extreme aspect-ratio rectangle: a 1 km x 1 cm sliver behaves like a
  // line segment along its azimuth.
  const GeoArea sliver = GeoArea::rectangle({0.0, 0.0}, 500.0, 0.005, M_PI / 2);
  EXPECT_TRUE(sliver.contains({499.0, 0.0}));
  EXPECT_FALSE(sliver.contains({0.0, 0.01}));
  EXPECT_FALSE(sliver.contains({501.0, 0.0}));

  // Zero and negative semi-distances must throw for every shape, not
  // silently divide by zero.
  EXPECT_THROW((void)GeoArea::ellipse({0, 0}, 0.0, 1.0).contains({0, 0}), std::logic_error);
  EXPECT_THROW((void)GeoArea::ellipse({0, 0}, 1.0, 0.0).contains({0, 0}), std::logic_error);
  EXPECT_THROW((void)GeoArea::rectangle({0, 0}, 1.0, -1.0).contains({0, 0}), std::logic_error);
  GeoArea negative = GeoArea::circle({0, 0}, -3.0);
  EXPECT_THROW((void)negative.contains({0, 0}), std::logic_error);
}

}  // namespace
}  // namespace rst::geo
