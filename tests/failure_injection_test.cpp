// Failure injection: the safety chain under degraded subsystems — lossy
// HTTP LAN, shadowed radio channel, unreliable object detection. The
// testbed must either still stop the vehicle (graceful degradation via
// polling retries / DENM repetition / the min-range backstop) or fail in
// the explicitly expected way.

#include <gtest/gtest.h>

#include "rst/core/testbed.hpp"

namespace rst::core {
namespace {

using namespace rst::sim::literals;

TEST(FailureInjection, LossyHttpLanDelaysButDoesNotBreakTheStop) {
  TestbedConfig config;
  config.seed = 91;
  // 30% of HTTP requests vanish.
  config.fault_plan.clauses.push_back({sim::FaultKind::HttpLoss, "lan", 0_ms, 3'600'000_ms, 0.3});
  config.lan.loss_timeout = 30_ms;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  // The polling loop retries; the next successful poll fetches the DENM.
  EXPECT_LT(r.meas_obu_to_actuator_ms, 300.0);
  EXPECT_GT(scenario.message_handler().stats().polls, 10u);
}

TEST(FailureInjection, FullyDeadLanMeansNoStop) {
  TestbedConfig config;
  config.seed = 92;
  config.fault_plan.clauses.push_back({sim::FaultKind::HttpLoss, "lan", 0_ms, 3'600'000_ms, 1.0});
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(sim::SimTime::seconds(12));
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(scenario.dynamics().power_cut());
}

TEST(FailureInjection, HeavyShadowingSurvivesWithDenmRepetition) {
  TestbedConfig config;
  config.seed = 93;
  config.shadowing_sigma_db = 14.0;  // deep fades possible on any frame
  config.hazard.denm_repetition = 40_ms;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(sim::SimTime::seconds(20));
  ASSERT_TRUE(r.stopped_by_denm);
  // Possibly a repetition was the copy that made it; still under a second.
  EXPECT_LT((r.t_power_cut - r.t_detection).to_milliseconds(), 1000.0);
}

TEST(FailureInjection, RadioBlockedByWallFailsWithoutRepetition) {
  TestbedConfig config;
  config.seed = 94;
  // A shielding obstruction right in front of the RSU: it blocks the
  // radio path to the approach road but leaves the camera's optical
  // corridor (along x = 0) clear.
  config.walls.push_back({.a = {0.25, 7.9}, .b = {5.0, 7.9}, .obstruction_loss_db = 80.0});
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(sim::SimTime::seconds(12));
  EXPECT_FALSE(r.stopped_by_denm);
  // The DENM was sent but never received.
  EXPECT_GE(scenario.rsu().den().stats().denms_sent, 1u);
  EXPECT_EQ(scenario.obu().den().stats().denms_received, 0u);
}

TEST(FailureInjection, FlakyDetectorStillStopsViaBackstop) {
  TestbedConfig config;
  config.seed = 95;
  // Degrade the stop-sign detector to coin-flip reliability.
  config.yolo.stop_sign.detection_probability = 0.5;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(sim::SimTime::seconds(20));
  ASSERT_TRUE(r.stopped_by_denm);
  // Detection may be late (missed frames), but the chain completes and the
  // car stops before reaching the camera.
  EXPECT_GT(r.stop_distance_to_camera_m, 0.0);
}

TEST(FailureInjection, CameraDropoutDegradesLineFollowingGracefully) {
  TestbedConfig config;
  config.seed = 96;
  config.line_sensor.dropout_probability = 0.5;  // half the Hough frames empty
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(sim::SimTime::seconds(25));
  // The follower holds course between detections; the trial still succeeds.
  ASSERT_TRUE(r.stopped_by_denm);
  EXPECT_LT(r.meas_total_ms, 100.0);
}

TEST(FailureInjection, SlowNtpSyncInflatesMeasuredIntervalsOnly) {
  TestbedConfig config;
  config.seed = 97;
  // Badly disciplined clocks: visible boot offsets and large residual sync
  // error, with syncs actually occurring during the run.
  const sim::SimTime big_sigma = 5_ms;
  for (auto* ntp : {&config.obu.ntp, &config.rsu.ntp, &config.edge_ntp, &config.jetson_ntp}) {
    ntp->sync_error_sigma = big_sigma;
    ntp->sync_interval = 2_s;
  }
  config.edge_ntp.initial_offset = 4_ms;
  config.rsu.ntp.initial_offset = -3_ms;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  // True (simulation-clock) chain is unaffected...
  EXPECT_LT((r.t_power_cut - r.t_detection).to_milliseconds(), 100.0);
  // ...but the NTP-measured intervals now disagree with truth noticeably.
  const double truth = (r.t_rsu_send - r.t_detection).to_milliseconds();
  EXPECT_GT(std::abs(r.meas_detection_to_rsu_ms - truth), 0.5);
}

TEST(FailureInjection, StoppedTrialIsStableUnderContinuedTraffic) {
  TestbedConfig config;
  config.seed = 98;
  config.hazard.denm_repetition = 100_ms;  // DENMs keep arriving after the stop
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  const geo::Vec2 resting = scenario.dynamics().position();
  scenario.scheduler().run_until(scenario.scheduler().now() + 5_s);
  EXPECT_NEAR(geo::distance(resting, scenario.dynamics().position()), 0.0, 1e-9);
  // Repetitions were deduplicated, not re-delivered.
  EXPECT_GE(scenario.obu().den().stats().duplicates_discarded, 1u);
}

}  // namespace
}  // namespace rst::core
