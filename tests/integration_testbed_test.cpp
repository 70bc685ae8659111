#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"

namespace rst::core {
namespace {

using namespace rst::sim::literals;

TEST(Testbed, EmergencyBrakeTrialCompletesTheFullChain) {
  TestbedConfig config;
  config.seed = 7;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();

  ASSERT_FALSE(r.timed_out);
  ASSERT_TRUE(r.stopped_by_denm);

  // Causal ordering of the paper's steps 1..6.
  EXPECT_LE(r.t_cross_actual, r.t_detection + 1_ms);
  EXPECT_LT(r.t_detection, r.t_rsu_send);
  EXPECT_LT(r.t_rsu_send, r.t_obu_receive);
  EXPECT_LT(r.t_obu_receive, r.t_power_cut);
  EXPECT_LT(r.t_power_cut, r.t_halt);

  // Shape of Table II: the wireless hop is a minimal part of the total.
  EXPECT_GT(r.meas_rsu_to_obu_ms, 0.0);
  EXPECT_LT(r.meas_rsu_to_obu_ms, 10.0);
  EXPECT_LT(r.meas_rsu_to_obu_ms, r.meas_detection_to_rsu_ms);
  EXPECT_LT(r.meas_rsu_to_obu_ms, r.meas_obu_to_actuator_ms);

  // Headline result: detection-to-actuation under 100 ms.
  EXPECT_LT(r.meas_total_ms, 100.0);
  EXPECT_GT(r.meas_total_ms, 5.0);

  // The vehicle actually stops near the camera, short of a collision.
  EXPECT_GT(r.braking_distance_m, 0.05);
  EXPECT_LT(r.braking_distance_m, 1.2);
  EXPECT_GT(r.stop_distance_to_camera_m, 0.0);
}

TEST(Testbed, VehicleIsStationaryAfterTrial) {
  TestbedConfig config;
  config.seed = 8;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  EXPECT_TRUE(scenario.dynamics().stopped());
  EXPECT_TRUE(scenario.dynamics().power_cut());
  EXPECT_TRUE(scenario.planner().stopped());
  // Running further must not move the car again.
  const geo::Vec2 pos = scenario.dynamics().position();
  scenario.scheduler().run_until(scenario.scheduler().now() + 2_s);
  EXPECT_NEAR(geo::distance(pos, scenario.dynamics().position()), 0.0, 1e-6);
}

TEST(Testbed, DeterministicForSameSeed) {
  TestbedConfig config;
  config.seed = 99;
  TestbedScenario a{config};
  TestbedScenario b{config};
  const TrialResult ra = a.run_emergency_brake_trial();
  const TrialResult rb = b.run_emergency_brake_trial();
  ASSERT_TRUE(ra.stopped_by_denm);
  ASSERT_TRUE(rb.stopped_by_denm);
  EXPECT_EQ(ra.t_detection, rb.t_detection);
  EXPECT_EQ(ra.t_power_cut, rb.t_power_cut);
  EXPECT_DOUBLE_EQ(ra.braking_distance_m, rb.braking_distance_m);
}

TEST(Testbed, DifferentSeedsGiveDifferentSamples) {
  TestbedConfig a_config;
  a_config.seed = 1;
  TestbedConfig b_config;
  b_config.seed = 2;
  TestbedScenario a{a_config};
  TestbedScenario b{b_config};
  const TrialResult ra = a.run_emergency_brake_trial();
  const TrialResult rb = b.run_emergency_brake_trial();
  ASSERT_TRUE(ra.stopped_by_denm);
  ASSERT_TRUE(rb.stopped_by_denm);
  EXPECT_NE(ra.meas_total_ms, rb.meas_total_ms);
}

TEST(Testbed, CamsPopulateRsuLdm) {
  TestbedConfig config;
  config.seed = 3;
  TestbedScenario scenario{config};
  scenario.start_services();
  scenario.scheduler().run_until(3_s);
  // The RSU's LDM should know the protagonist vehicle from its CAMs.
  const auto vehicle = scenario.rsu().ldm().vehicle(config.obu.station_id);
  ASSERT_TRUE(vehicle.has_value());
  EXPECT_GT(vehicle->cam_count, 1u);
  EXPECT_EQ(vehicle->station_type, its::StationType::PassengerCar);
  // And the position roughly matches the actual vehicle position.
  EXPECT_LT(geo::distance(vehicle->position, scenario.dynamics().position()), 1.5);
}

TEST(Testbed, WithoutRoadsideServicesVehicleDoesNotStop) {
  TestbedConfig config;
  config.seed = 4;
  TestbedScenario scenario{config};
  scenario.start_services();
  scenario.hazard().stop();  // infrastructure assistance disabled
  scenario.scheduler().run_until(12_s);
  EXPECT_FALSE(scenario.dynamics().power_cut());
  // The car drives past the camera / action point unimpeded.
  EXPECT_GT(scenario.dynamics().odometer_m(), 5.0);
}

TEST(Experiment, FiveRunCampaignMatchesPaperShape) {
  TestbedConfig config;
  config.seed = 1000;
  const ExperimentSummary summary = run_emergency_brake_experiment(config, 5);
  EXPECT_EQ(summary.failures, 0u);
  ASSERT_EQ(summary.total_ms.count(), 5u);

  // Table II shape: RSU->OBU is ~1-2 ms and the smallest component;
  // detection->RSU and OBU->actuators tens of ms; total < 100 ms.
  EXPECT_LT(summary.rsu_to_obu_ms.mean(), 5.0);
  EXPECT_LT(summary.rsu_to_obu_ms.mean(), summary.detection_to_rsu_ms.mean());
  EXPECT_LT(summary.rsu_to_obu_ms.mean(), summary.obu_to_actuator_ms.mean());
  EXPECT_GT(summary.detection_to_rsu_ms.mean(), 10.0);
  EXPECT_GT(summary.obu_to_actuator_ms.mean(), 10.0);
  EXPECT_LT(summary.total_ms.max(), 100.0);

  // Table III shape: braking distance around a few tenths of a metre and
  // below one vehicle length-ish bound.
  EXPECT_GT(summary.braking_distance_m.mean(), 0.15);
  EXPECT_LT(summary.braking_distance_m.mean(), 0.8);
}

TEST(Testbed, CustomBtpPortServicesCanBeRegistered) {
  TestbedConfig config;
  config.seed = 34;
  TestbedScenario scenario{config};
  scenario.start_services();

  // A bespoke application protocol on BTP port 3001 from RSU to OBU.
  std::vector<std::uint8_t> received;
  scenario.obu().btp().register_port(
      3001, [&](std::span<const std::uint8_t> payload, const its::GnDeliveryMeta&) {
        received.assign(payload.begin(), payload.end());
      });
  const std::vector<std::uint8_t> payload{0xca, 0xfe};
  scenario.rsu().router().send_gbc(its::BtpHeader{3001, 0}.prepend_to(payload),
                                   geo::GeoArea::circle({0, 0}, 200.0),
                                   dot11p::AccessCategory::BestEffort);
  scenario.scheduler().run_until(scenario.scheduler().now() + 500_ms);
  EXPECT_EQ(received, payload);
  EXPECT_GE(scenario.obu().btp().stats().dispatched, 1u);
}

TEST(Testbed, OverlappingDeliveriesKeepTheirOwnPayloadAndMeta) {
  // Frames that reach a station within one stack-processing latency wait
  // in separate hand-off slots: each is dispatched once, with its own
  // payload and source.
  TestbedConfig config;
  config.seed = 35;
  TestbedScenario scenario{config};
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> received;
  scenario.obu().btp().register_port(
      3001, [&](std::span<const std::uint8_t> payload, const its::GnDeliveryMeta& meta) {
        received.emplace_back(meta.source.value,
                              std::vector<std::uint8_t>(payload.begin(), payload.end()));
      });
  auto& sched = scenario.scheduler();
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> sent;
  for (std::uint8_t i = 0; i < 8; ++i) {
    its::GnPacket pkt;
    pkt.type = its::GnPacketType::Shb;
    pkt.source.address = its::GnAddress::from_station(100u + i);
    pkt.source.timestamp_ms = static_cast<std::uint32_t>(sched.now().count_ns() / 1'000'000);
    pkt.forwarder = pkt.source;
    const std::vector<std::uint8_t> payload{i, static_cast<std::uint8_t>(0xa0 + i)};
    pkt.payload = its::BtpHeader{3001, 0}.prepend_to(payload);
    dot11p::Frame frame;
    frame.payload = pkt.encode();
    scenario.obu().radio().deliver(frame, dot11p::RxInfo{});
    sent.emplace_back(pkt.source.address.value, payload);
  }
  sched.run_until(sched.now() + 50_ms);
  std::sort(received.begin(), received.end());
  EXPECT_EQ(received, sent);
}

TEST(Testbed, CellularWarningPathStopsTheVehicle) {
  TestbedConfig config;
  config.seed = 21;
  config.warning_path = WarningPath::CellularUrllc;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  // Push delivery: no polling component, so OBU->actuator is small.
  EXPECT_LT(r.meas_obu_to_actuator_ms, 6.0);
  EXPECT_LT(r.meas_total_ms, 100.0);
  // The ITS-G5 polling loop was never engaged.
  EXPECT_EQ(scenario.message_handler().stats().polls, 0u);
}

TEST(Testbed, EmbbPathSlowerRadioButStillUnder100ms) {
  TestbedConfig config;
  config.seed = 22;
  config.warning_path = WarningPath::CellularEmbb;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  // The eMBB radio hop is an order of magnitude above ITS-G5's ~1.6 ms.
  EXPECT_GT(r.meas_rsu_to_obu_ms, 8.0);
  EXPECT_LT(r.meas_total_ms, 100.0);
}

TEST(Testbed, StationLevelDccStillStopsTheVehicle) {
  TestbedConfig config;
  config.seed = 36;
  config.obu.enable_dcc = true;
  config.rsu.enable_dcc = true;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  ASSERT_NE(scenario.rsu().dcc(), nullptr);
  // With an idle channel the DCC stays Relaxed; the DENM pays at most the
  // 60 ms gate if a CAM just went out, so the total can stretch but the
  // chain still completes within a safe bound.
  EXPECT_EQ(scenario.rsu().dcc()->state(), its::dcc::DccState::Relaxed);
  EXPECT_LT(r.meas_total_ms, 170.0);
  EXPECT_GT(scenario.rsu().dcc()->stats().passed, 0u);
}

TEST(Testbed, ConfigValidationRejectsNonsense) {
  {
    TestbedConfig bad;
    bad.planner.target_speed_mps = 0.0;
    EXPECT_THROW((TestbedScenario{bad}), std::invalid_argument);
  }
  {
    TestbedConfig bad;
    bad.message_handler.poll_period = sim::SimTime::zero();
    EXPECT_THROW((TestbedScenario{bad}), std::invalid_argument);
  }
  {
    TestbedConfig bad;
    bad.track_end = bad.track_start;
    EXPECT_THROW((TestbedScenario{bad}), std::invalid_argument);
  }
  {
    TestbedConfig bad;
    bad.rsu.station_id = bad.obu.station_id;
    EXPECT_THROW((TestbedScenario{bad}), std::invalid_argument);
  }
  {
    TestbedConfig bad;
    bad.rsu.name = bad.obu.name;
    EXPECT_THROW((TestbedScenario{bad}), std::invalid_argument);
  }
  // The default configuration is valid.
  EXPECT_NO_THROW(TestbedConfig{}.validate());
}

TEST(Experiment, ReportsRenderWithoutCrashing) {
  TestbedConfig config;
  config.seed = 2000;
  const ExperimentSummary summary = run_emergency_brake_experiment(config, 3);
  const std::string t2 = format_table2(summary);
  const std::string t3 = format_table3(summary);
  EXPECT_NE(t2.find("Table II"), std::string::npos);
  EXPECT_NE(t2.find("Total delay"), std::string::npos);
  EXPECT_NE(t3.find("Table III"), std::string::npos);
}

}  // namespace
}  // namespace rst::core
