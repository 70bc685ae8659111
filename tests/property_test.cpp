// Property-style parameterized sweeps (TEST_P) over the library's core
// invariants: codec round-trips under randomized inputs, geometric
// invariants of geo-areas, monotonicity of the PHY abstractions, and
// end-to-end guarantees of the assembled testbed across seeds.

#include <gtest/gtest.h>

#include <ostream>

#include "rst/core/experiment.hpp"
#include "rst/dot11p/phy_params.hpp"
#include "rst/geo/geo_area.hpp"
#include "rst/its/messages/denm.hpp"
#include "rst/sim/random.hpp"

namespace rst {
namespace {

using namespace rst::sim::literals;

// ---------------------------------------------------------------- DENM codec

class DenmRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

its::Denm random_denm(sim::RandomStream& r) {
  using namespace rst::its;
  Denm denm;
  denm.header.station_id = static_cast<StationId>(r.uniform_int(0, 4294967295LL));
  denm.management.action_id = {static_cast<StationId>(r.uniform_int(0, 4294967295LL)),
                               static_cast<std::uint16_t>(r.uniform_int(0, 65535))};
  denm.management.detection_time = static_cast<TimestampIts>(r.uniform_int(0, kTimestampItsMax));
  denm.management.reference_time = static_cast<TimestampIts>(r.uniform_int(0, kTimestampItsMax));
  if (r.bernoulli(0.3)) denm.management.termination = static_cast<Termination>(r.uniform_int(0, 1));
  denm.management.event_position.latitude =
      static_cast<std::int32_t>(r.uniform_int(-900000000, 900000001));
  denm.management.event_position.longitude =
      static_cast<std::int32_t>(r.uniform_int(-1800000000, 1800000001));
  if (r.bernoulli(0.5)) {
    denm.management.relevance_distance = static_cast<RelevanceDistance>(r.uniform_int(0, 7));
  }
  if (r.bernoulli(0.5)) {
    denm.management.relevance_traffic_direction =
        static_cast<RelevanceTrafficDirection>(r.uniform_int(0, 3));
  }
  denm.management.validity_duration_s = static_cast<std::uint32_t>(r.uniform_int(0, 86400));
  if (r.bernoulli(0.5)) {
    denm.management.transmission_interval_ms = static_cast<std::uint16_t>(r.uniform_int(1, 10000));
  }
  denm.management.station_type = static_cast<StationType>(r.uniform_int(0, 15));

  if (r.bernoulli(0.8)) {
    SituationContainer situation;
    situation.information_quality = static_cast<std::uint8_t>(r.uniform_int(0, 7));
    situation.event_type = {static_cast<std::uint8_t>(r.uniform_int(0, 255)),
                            static_cast<std::uint8_t>(r.uniform_int(0, 255))};
    if (r.bernoulli(0.3)) {
      situation.linked_cause = EventType{static_cast<std::uint8_t>(r.uniform_int(0, 255)), 0};
    }
    denm.situation = situation;
  }
  if (r.bernoulli(0.5)) {
    LocationContainer location;
    if (r.bernoulli(0.5)) location.event_speed = Speed::from_mps(r.uniform(0, 50));
    if (r.bernoulli(0.5)) {
      location.event_position_heading =
          Heading{static_cast<std::uint16_t>(r.uniform_int(0, 3601)), 10};
    }
    const auto n_traces = static_cast<std::size_t>(r.uniform_int(1, 7));
    for (std::size_t t = 0; t < n_traces; ++t) {
      PathHistory history;
      const auto n_points = static_cast<std::size_t>(r.uniform_int(0, 10));
      for (std::size_t k = 0; k < n_points; ++k) {
        history.points.push_back({static_cast<std::int32_t>(r.uniform_int(-131072, 131071)),
                                  static_cast<std::int32_t>(r.uniform_int(-131072, 131071)),
                                  static_cast<std::int32_t>(r.uniform_int(0, 65535))});
      }
      location.traces.push_back(std::move(history));
    }
    denm.location = location;
  }
  if (r.bernoulli(0.4)) {
    AlacarteContainer alacarte;
    if (r.bernoulli(0.5)) alacarte.lane_position = static_cast<std::int8_t>(r.uniform_int(-1, 14));
    if (r.bernoulli(0.5)) {
      alacarte.external_temperature = static_cast<std::int8_t>(r.uniform_int(-60, 67));
    }
    if (r.bernoulli(0.5)) {
      StationaryVehicleContainer sv;
      if (r.bernoulli(0.5)) sv.stationary_since = static_cast<std::uint8_t>(r.uniform_int(0, 3));
      if (r.bernoulli(0.5)) sv.number_of_occupants = static_cast<std::uint8_t>(r.uniform_int(0, 127));
      alacarte.stationary_vehicle = sv;
    }
    denm.alacarte = alacarte;
  }
  return denm;
}

TEST_P(DenmRoundTripProperty, EncodeDecodeIsIdentity) {
  sim::RandomStream r{GetParam(), "denm_prop"};
  for (int i = 0; i < 50; ++i) {
    const its::Denm denm = random_denm(r);
    EXPECT_EQ(its::Denm::decode(denm.encode()), denm);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenmRoundTripProperty, ::testing::Range<std::uint64_t>(1, 11));

// --------------------------------------------------------------- geo areas

struct AreaCase {
  geo::AreaShape shape;
  double azimuth;
};

class GeoAreaProperty : public ::testing::TestWithParam<AreaCase> {};

TEST_P(GeoAreaProperty, CenterInsideBorderMonotone) {
  const auto& p = GetParam();
  geo::GeoArea area{p.shape, {3, -4}, 6.0, 2.5, p.azimuth};
  // The centre is always inside.
  EXPECT_GT(area.geometric_function(area.center), 0.0);
  // Along any ray from the centre, the geometric function decreases.
  sim::RandomStream r{9, "area_prop"};
  for (int i = 0; i < 100; ++i) {
    const geo::Vec2 dir = geo::vector_from_heading(r.uniform(0, 2 * M_PI));
    double prev = area.geometric_function(area.center);
    for (double t = 0.5; t < 12.0; t += 0.5) {
      const double f = area.geometric_function(area.center + dir * t);
      EXPECT_LE(f, prev + 1e-9);
      prev = f;
    }
  }
  // Points further than the bounding radius are always outside.
  for (int i = 0; i < 100; ++i) {
    const geo::Vec2 dir = geo::vector_from_heading(r.uniform(0, 2 * M_PI));
    EXPECT_FALSE(area.contains(area.center + dir * (area.bounding_radius() + 0.01)));
  }
}

// Without this, gtest prints an AreaCase as its raw bytes, padding included,
// and the ctest names built from that printout changed from build to build.
void PrintTo(const AreaCase& c, std::ostream* os) {
  static constexpr const char* kShapes[] = {"Circle", "Rectangle", "Ellipse"};
  *os << kShapes[static_cast<int>(c.shape)] << " at azimuth " << c.azimuth;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndAzimuths, GeoAreaProperty,
    ::testing::Values(AreaCase{geo::AreaShape::Circle, 0.0},
                      AreaCase{geo::AreaShape::Circle, 1.0},
                      AreaCase{geo::AreaShape::Ellipse, 0.0},
                      AreaCase{geo::AreaShape::Ellipse, 0.7},
                      AreaCase{geo::AreaShape::Ellipse, 2.5},
                      AreaCase{geo::AreaShape::Rectangle, 0.0},
                      AreaCase{geo::AreaShape::Rectangle, 1.2},
                      AreaCase{geo::AreaShape::Rectangle, 4.0}));

// ------------------------------------------------------------------- PHY

class McsProperty : public ::testing::TestWithParam<dot11p::Mcs> {};

TEST_P(McsProperty, AirtimeAndPerInvariants) {
  const auto mcs = GetParam();
  using namespace rst::dot11p;
  // Airtime strictly increases with PSDU length (per symbol granularity).
  EXPECT_LT(frame_airtime(10, mcs), frame_airtime(2000, mcs));
  // PER is monotone non-increasing in SINR and within [0, 1].
  double prev = 1.1;
  for (double sinr = -10; sinr <= 40; sinr += 0.5) {
    const double per = packet_error_rate(sinr, 300, mcs);
    EXPECT_GE(per, 0.0);
    EXPECT_LE(per, 1.0);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
  // At 40 dB SINR every MCS decodes reliably.
  EXPECT_LT(packet_error_rate(40.0, 300, mcs), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllMcs, McsProperty,
                         ::testing::Values(dot11p::Mcs::Bpsk12, dot11p::Mcs::Bpsk34,
                                           dot11p::Mcs::Qpsk12, dot11p::Mcs::Qpsk34,
                                           dot11p::Mcs::Qam16_12, dot11p::Mcs::Qam16_34,
                                           dot11p::Mcs::Qam64_23, dot11p::Mcs::Qam64_34));

// ------------------------------------------------------ end-to-end seeds

class EndToEndProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEndProperty, ChainOrderingAndHeadlineBoundHold) {
  core::TestbedConfig config;
  config.seed = 100000 + GetParam() * 13;
  core::TestbedScenario scenario{config};
  const core::TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  EXPECT_LT(r.t_detection, r.t_rsu_send);
  EXPECT_LT(r.t_rsu_send, r.t_obu_receive);
  EXPECT_LT(r.t_obu_receive, r.t_power_cut);
  EXPECT_LT(r.t_power_cut, r.t_halt);
  EXPECT_LT(r.meas_total_ms, 100.0);
  EXPECT_GT(r.braking_distance_m, 0.1);
  EXPECT_LT(r.braking_distance_m, 0.8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndProperty, ::testing::Range<std::uint64_t>(0, 8));

// ------------------------------------------------------ braking monotonicity

class BrakingSpeedProperty : public ::testing::TestWithParam<double> {};

TEST_P(BrakingSpeedProperty, FasterApproachBrakesLonger) {
  const double speed = GetParam();
  core::TestbedConfig config;
  config.seed = 424242;
  config.planner.target_speed_mps = speed;
  const auto summary = core::run_emergency_brake_experiment(config, 5);
  ASSERT_EQ(summary.failures, 0u);
  // Kinematic lower bound: coast distance alone is v^2 / (2 a_max).
  const double coast_min = speed * speed / (2.0 * 1.3 * config.vehicle_params.power_cut_decel_mps2);
  EXPECT_GT(summary.braking_distance_m.mean(), coast_min);
  // And a generous upper bound: coast at the weakest plausible friction
  // plus a full polling period of travel.
  const double coast_max = speed * speed / (2.0 * 0.6 * config.vehicle_params.power_cut_decel_mps2);
  EXPECT_LT(summary.braking_distance_m.mean(), coast_max + speed * 0.12);
}

INSTANTIATE_TEST_SUITE_P(Speeds, BrakingSpeedProperty, ::testing::Values(0.8, 1.0, 1.2, 1.5));

}  // namespace
}  // namespace rst
