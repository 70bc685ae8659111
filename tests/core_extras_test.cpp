#include <gtest/gtest.h>

#include <cmath>

#include "rst/cellular/cellular_link.hpp"
#include "rst/core/platoon.hpp"
#include "rst/core/scale_model.hpp"

namespace rst::core {
namespace {

using namespace rst::sim::literals;

TEST(ScaleModel, FrictionOnlyBrakingMatchesClosedForm) {
  FullSizeVehicle car;
  car.drag_coefficient = 0.0;  // disable drag: closed form v^2 / (2 mu eff g)
  const double v = 20.0;
  const double expected = v * v / (2.0 * car.friction_mu * car.brake_efficiency * 9.81);
  EXPECT_NEAR(full_size_braking_distance_m(car, v), expected, 0.05);
}

TEST(ScaleModel, DragShortensTheStop) {
  FullSizeVehicle with_drag;
  FullSizeVehicle no_drag = with_drag;
  no_drag.drag_coefficient = 0.0;
  EXPECT_LT(full_size_braking_distance_m(with_drag, 30.0),
            full_size_braking_distance_m(no_drag, 30.0));
}

TEST(ScaleModel, ReactionTimeAddsLinearTravel) {
  FullSizeVehicle car;
  const double base = full_size_braking_distance_m(car, 15.0);
  EXPECT_NEAR(full_size_braking_distance_m(car, 15.0, 1.0), base + 15.0, 1e-6);
}

TEST(ScaleModel, ZeroSpeedStopsInPlace) {
  EXPECT_DOUBLE_EQ(full_size_braking_distance_m(FullSizeVehicle{}, 0.0), 0.0);
  EXPECT_THROW((void)full_size_braking_distance_m(FullSizeVehicle{}, -1.0), std::invalid_argument);
}

TEST(ScaleModel, FroudeScaling) {
  EXPECT_NEAR(froude_equivalent_speed_mps(1.2, 10.0), 1.2 * std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(froude_equivalent_distance_m(0.36, 10.0), 3.6, 1e-12);
  EXPECT_THROW((void)froude_equivalent_speed_mps(1.0, 0.0), std::invalid_argument);
}

TEST(ScaleModel, ImpliedDeceleration) {
  EXPECT_NEAR(implied_deceleration_mps2(1.2, 0.36), 2.0, 1e-9);
  EXPECT_THROW((void)implied_deceleration_mps2(1.0, 0.0), std::invalid_argument);
}

TEST(ScaleModel, TruckNeedsMoreRoomThanCar) {
  const double v = 25.0;
  EXPECT_GT(full_size_braking_distance_m(FullSizeVehicle::heavy_truck(), v),
            full_size_braking_distance_m(FullSizeVehicle::passenger_car(), v));
}

TEST(Cellular, DeliversWithConfiguredLatency) {
  sim::Scheduler sched;
  cellular::CellularNetwork net{sched, sim::RandomStream{1, "cell"}};
  net.create_endpoint("a");
  auto& b = net.create_endpoint("b");
  int received = 0;
  sim::SimTime arrival;
  b.set_receive_callback([&](const std::vector<std::uint8_t>& payload, const std::string& from) {
    EXPECT_EQ(from, "a");
    EXPECT_EQ(payload.size(), 3u);
    ++received;
    arrival = sched.now();
  });
  net.send("a", "b", {1, 2, 3});
  sched.run();
  EXPECT_EQ(received, 1);
  // eMBB profile: ~20 ms nominal (uplink 9 + core 4 + downlink 7).
  EXPECT_GT(arrival, 5_ms);
  EXPECT_LT(arrival, 60_ms);
}

TEST(Cellular, UrllcIsMuchFaster) {
  sim::Scheduler sched;
  cellular::CellularNetwork net{sched, sim::RandomStream{2, "cell"},
                                cellular::CellularConfig::urllc()};
  net.create_endpoint("a");
  auto& b = net.create_endpoint("b");
  sim::RunningStats latency;
  std::vector<sim::SimTime> sent;
  b.set_receive_callback([&](const std::vector<std::uint8_t>& payload, const std::string&) {
    latency.add((sched.now() - sent[payload[0]]).to_milliseconds());
  });
  for (std::uint8_t i = 0; i < 100; ++i) {
    sched.post_at(10_ms * i, [&, i] {
      sent.push_back(sched.now());
      net.send("a", "b", {i});
    });
  }
  sched.run();
  EXPECT_GT(latency.count(), 95u);
  EXPECT_LT(latency.mean(), 6.0);
}

TEST(Cellular, DuplicateEndpointRejected) {
  sim::Scheduler sched;
  cellular::CellularNetwork net{sched, sim::RandomStream{3, "cell"}};
  net.create_endpoint("a");
  EXPECT_THROW(net.create_endpoint("a"), std::invalid_argument);
}

TEST(Cellular, LossDropsSilently) {
  sim::Scheduler sched;
  cellular::CellularConfig config;
  config.loss_probability = 1.0;
  cellular::CellularNetwork net{sched, sim::RandomStream{4, "cell"}, config};
  net.create_endpoint("a");
  auto& b = net.create_endpoint("b");
  int received = 0;
  b.set_receive_callback([&](const auto&, const auto&) { ++received; });
  net.send("a", "b", {1});
  sched.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().lost, 1u);
}

TEST(Platoon, EveryVehicleStopsOnDirectBroadcast) {
  PlatoonConfig config;
  config.seed = 5;
  config.n_vehicles = 4;
  PlatoonScenario scenario{config};
  const auto result = scenario.run_emergency_stop();
  ASSERT_EQ(result.vehicles.size(), 4u);
  EXPECT_TRUE(result.all_stopped);
  for (const auto& v : result.vehicles) {
    EXPECT_TRUE(v.stopped);
    EXPECT_GT(v.detection_to_action_ms, 0.0);
    EXPECT_LT(v.detection_to_action_ms, 150.0);
  }
  EXPECT_LT(result.worst_detection_to_action_ms, 150.0);
}

TEST(Platoon, CellularLeaderArrangementStopsEveryone) {
  PlatoonConfig config;
  config.seed = 6;
  config.n_vehicles = 3;
  config.leader_uses_cellular = true;
  PlatoonScenario scenario{config};
  const auto result = scenario.run_emergency_stop();
  EXPECT_TRUE(result.all_stopped);
  // The leader stops via the cellular path; followers need the leader's
  // re-broadcast, so the worst delay exceeds the leader's.
  EXPECT_GE(result.worst_detection_to_action_ms, result.vehicles[0].detection_to_action_ms);
}

TEST(Platoon, MultiHopForwardingStopsTheTail) {
  PlatoonConfig config;
  config.seed = 7;
  config.n_vehicles = 5;
  config.spacing_m = 12.0;
  config.radio.tx_power_dbm = -18.0;
  config.radio.cs_threshold_dbm = -80.0;
  PlatoonScenario scenario{config};
  const auto result = scenario.run_emergency_stop();
  EXPECT_TRUE(result.all_stopped);
  // Delay grows towards the tail (forwarding chain).
  EXPECT_GT(result.vehicles.back().detection_to_action_ms,
            result.vehicles.front().detection_to_action_ms);
}

}  // namespace
}  // namespace rst::core
