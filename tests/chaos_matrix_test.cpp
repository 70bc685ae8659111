// Chaos-matrix campaign: each cell runs the emergency-brake trial under one
// FaultPlan configuration and asserts the degradation contract — either the
// chain still stops the vehicle (possibly late, possibly via the on-board
// fallback) or it fails in the explicitly expected way. The determinism
// suite proves a multi-fault plan replays bit-identically across reruns and
// thread counts; the legacy-equivalence suite proves FaultPlan clauses
// reproduce the old per-knob failure-injection scenarios on the same seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"

namespace rst::core {
namespace {

using namespace rst::sim::literals;
using sim::FaultClause;
using sim::FaultKind;

TestbedConfig with_fault(std::uint64_t seed, const FaultClause& clause) {
  TestbedConfig config;
  config.seed = seed;
  config.fault_plan.clauses.push_back(clause);
  return config;
}

// --- Radio ---

TEST(ChaosMatrix, RadioBlackoutWholeTrialPreventsTheStop) {
  TestbedScenario scenario{
      with_fault(201, {FaultKind::RadioBlackout, "medium", 0_ms, 30'000_ms, 1.0})};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_TRUE(r.timed_out);
  // The chain worked up to the air interface: DENMs left the RSU but none
  // survived the blackout.
  EXPECT_GE(scenario.rsu().den().stats().denms_sent, 1u);
  EXPECT_EQ(scenario.obu().den().stats().denms_received, 0u);
}

TEST(ChaosMatrix, RadioBlackoutWindowRecoversViaDenmRepetition) {
  TestbedConfig config = with_fault(202, {FaultKind::RadioBlackout, "medium", 4'000_ms,
                                          8'000_ms, 1.0});
  config.hazard.denm_repetition = 40_ms;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(20_s);
  ASSERT_TRUE(r.stopped_by_denm);
  // The first transmission fell inside the blackout; a repetition delivered
  // after the window closed.
  EXPECT_GE(r.t_obu_receive, 8_s);
}

TEST(ChaosMatrix, MildAttenuationLeavesTheStopIntact) {
  TestbedScenario scenario{
      with_fault(203, {FaultKind::RadioAttenuation, "medium", 0_ms, 30'000_ms, 3.0})};
  const TrialResult r = scenario.run_emergency_brake_trial();
  EXPECT_TRUE(r.stopped_by_denm);
}

// --- Wired LAN ---

TEST(ChaosMatrix, TotalHttpLossPreventsTheStop) {
  TestbedScenario scenario{with_fault(92, {FaultKind::HttpLoss, "lan", 0_ms, 30'000_ms, 1.0})};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_TRUE(r.timed_out);
  EXPECT_FALSE(scenario.dynamics().power_cut());
}

TEST(ChaosMatrix, PartialHttpLossDelaysButDoesNotBreakTheStop) {
  TestbedConfig config = with_fault(91, {FaultKind::HttpLoss, "lan", 0_ms, 3'600'000_ms, 0.3});
  config.lan.loss_timeout = 30_ms;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  EXPECT_GT(scenario.message_handler().stats().polls, 10u);
  EXPECT_GT(scenario.message_handler().stats().retries, 0u);
}

TEST(ChaosMatrix, HttpStallDelaysTheHttpLegsOfTheChain) {
  TestbedConfig nominal;
  nominal.seed = 210;
  const TrialResult base = TestbedScenario{nominal}.run_emergency_brake_trial();
  ASSERT_TRUE(base.stopped_by_denm);

  TestbedScenario scenario{with_fault(210, {FaultKind::HttpStall, "lan", 0_ms, 30'000_ms, 80.0})};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  // The /trigger_denm POST is held on the server for 80 ms, so step 2 -> 3
  // grows by the full stall. (The OBU poll leg is phase-dependent: the stall
  // can let an already-in-flight poll dispatch after the DENM lands, so we
  // anchor on the deterministic edge-node leg and the end-to-end instant.)
  EXPECT_GT(r.meas_detection_to_rsu_ms, base.meas_detection_to_rsu_ms + 60.0);
  EXPECT_GT(r.t_power_cut, base.t_power_cut);
}

// --- Perception ---

TEST(ChaosMatrix, TotalCameraDropPreventsDetection) {
  TestbedScenario scenario{with_fault(205, {FaultKind::CameraDrop, "camera", 0_ms, 30'000_ms, 1.0})};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_GT(scenario.camera().stats().frames_dropped, 0u);
  EXPECT_EQ(scenario.hazard().stats().crossings_detected, 0u);
}

TEST(ChaosMatrix, CameraFreezeHoldsStaleFramesAndMissesTheApproach) {
  // Frozen from before the vehicle enters recognition range: the replayed
  // content never shows the Action-Point crossing.
  TestbedScenario scenario{
      with_fault(206, {FaultKind::CameraFreeze, "camera", 0_ms, 30'000_ms, 1.0})};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_GT(scenario.camera().stats().frames_frozen, 0u);
}

TEST(ChaosMatrix, TotalYoloMissPreventsDetection) {
  TestbedScenario scenario{with_fault(207, {FaultKind::YoloMiss, "yolo", 0_ms, 30'000_ms, 1.0})};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_EQ(scenario.hazard().stats().crossings_detected, 0u);
}

TEST(ChaosMatrix, MisclassificationIsCaughtByTheKnownRoadUserGate) {
  // Control: the gate alone does not break nominal operation (the stop
  // sign's labels are all road users).
  TestbedConfig control;
  control.seed = 208;
  control.hazard.require_known_road_user = true;
  ASSERT_TRUE(TestbedScenario{control}.run_emergency_brake_trial().stopped_by_denm);

  TestbedConfig config =
      with_fault(208, {FaultKind::YoloMisclassify, "yolo", 0_ms, 30'000_ms, 1.0});
  config.hazard.require_known_road_user = true;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_GT(scenario.hazard().stats().detections_gated, 0u);
}

TEST(ChaosMatrix, ConfidenceCollapseIsCaughtByTheMinConfidenceGate) {
  TestbedConfig control;
  control.seed = 209;
  control.hazard.min_confidence = 0.5;
  ASSERT_TRUE(TestbedScenario{control}.run_emergency_brake_trial().stopped_by_denm);

  TestbedConfig config =
      with_fault(209, {FaultKind::YoloConfidence, "yolo", 0_ms, 30'000_ms, 0.9});
  config.hazard.min_confidence = 0.5;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_GT(scenario.hazard().stats().detections_gated, 0u);
}

// --- Collective perception under perception faults ---

TestbedConfig poisoned_cpm_config(std::uint64_t seed, double min_confidence) {
  TestbedConfig config;
  config.seed = seed;
  config.cpm_enable = true;
  config.cpm_interval = 100_ms;
  // The CPM fusion gate inherits hazard.min_confidence, so one knob guards
  // both the DENM decision and the collective-perception boundary.
  config.hazard.min_confidence = min_confidence;
  config.fault_plan.clauses = {
      {FaultKind::YoloMisclassify, "yolo", 0_ms, 30'000_ms, 1.0},
      {FaultKind::YoloConfidence, "yolo", 0_ms, 30'000_ms, 0.5},
  };
  return config;
}

TEST(ChaosMatrix, PoisonedPerceptsAreConfidenceGatedAtTheFusionBoundary) {
  // A misclassification burst plus a confidence collapse poisons every
  // detection the RSU would share. With the gate at 0.6 the collapsed
  // confidences (~0.44 from the 0.88 stop-sign profile) never clear it:
  // CPMs still flow, but nothing poisoned enters the OBU's fused picture
  // and nothing brakes the vehicle.
  TestbedScenario scenario{poisoned_cpm_config(215, 0.6)};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_TRUE(r.timed_out);
  EXPECT_GT(scenario.hazard().stats().detections_gated, 0u);

  const auto& rx = scenario.obu().cpm()->stats();
  EXPECT_GT(scenario.rsu().cpm()->stats().objects_published, 0u);
  EXPECT_GT(rx.cpms_received, 0u);
  EXPECT_GT(rx.objects_gated, 0u);
  EXPECT_EQ(rx.objects_fused, 0u);
  EXPECT_TRUE(scenario.obu().ldm().perceived_objects().empty());
  EXPECT_EQ(scenario.metrics().counter("cpm.emergency_stops").value(), 0u);
}

TEST(ChaosMatrix, OpenFusionGateAdmitsThePoisonedPercepts) {
  // Contrast cell: the same poisoned plan with the gate left open. The wrong
  // labels are not in the CPM class table, so they cross the wire as class
  // "unknown" and land in the OBU's fused picture with RSU provenance. Only
  // the ego-exclusion gate (the percept is the vehicle itself) keeps the
  // poison from braking the run; the DENM chain is label-agnostic with the
  // road-user gate off and stops the vehicle as usual.
  TestbedScenario scenario{poisoned_cpm_config(216, 0.0)};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);

  const auto& rx = scenario.obu().cpm()->stats();
  EXPECT_GT(rx.objects_fused, 0u);
  EXPECT_EQ(rx.objects_gated, 0u);
  bool saw_poison = false;
  for (const auto& obj : scenario.obu().ldm().perceived_objects()) {
    if (obj.source_station == scenario.config().rsu.station_id &&
        obj.classification == "unknown") {
      saw_poison = true;
    }
  }
  EXPECT_TRUE(saw_poison);
  EXPECT_EQ(scenario.metrics().counter("cpm.emergency_stops").value(), 0u);
}

// --- Positioning / nodes ---

TEST(ChaosMatrix, GnssDriftCorruptsAdvertisedPositionsNotTheStopPath) {
  TestbedConfig config = with_fault(211, {FaultKind::GnssDrift, "gnss", 0_ms, 30'000_ms, 0.5});
  config.use_gnss = true;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  // The infrastructure chain does not depend on the OBU's self-position.
  EXPECT_TRUE(r.stopped_by_denm);
  ASSERT_NE(scenario.gnss(), nullptr);
  EXPECT_GT(scenario.gnss()->error_m(), 0.5);
}

TEST(ChaosMatrix, ObuNodeDownKillsThePollPathNotTheRadio) {
  TestbedScenario scenario{with_fault(212, {FaultKind::NodeDown, "obu", 0_ms, 30'000_ms, 1.0})};
  const TrialResult r = scenario.run_emergency_brake_trial(12_s);
  EXPECT_FALSE(r.stopped_by_denm);
  // The DENM reached the OBU facilities over the air; only the crashed HTTP
  // API kept it from the vehicle application.
  EXPECT_GE(scenario.obu().den().stats().denms_received, 1u);
  EXPECT_GT(scenario.lan().requests_lost(), 0u);
  EXPECT_GT(scenario.message_handler().stats().failed_polls, 0u);
}

// --- Graceful degradation: the liveness watchdog ---

TEST(ChaosWatchdog, InfrastructureLossEngagesFailsafeAndArmsTheAeb) {
  TestbedConfig config = with_fault(213, {FaultKind::NodeDown, "obu", 0_ms, 30'000_ms, 1.0});
  config.message_handler.watchdog = true;
  config.message_handler.watchdog_timeout = 400_ms;
  config.enable_lidar_aeb = true;
  TestbedScenario scenario{config};
  // A stalled vehicle on the track, short of the Action Point: only the
  // on-board sensors can save the run once the infrastructure goes dark.
  scenario.add_static_obstacle({0.0, 6.0}, roadside::Presentation::StopSign);
  const TrialResult r = scenario.run_emergency_brake_trial();

  // Degradation engaged and never recovered...
  EXPECT_NE(scenario.trace().find_event(sim::Stage::WatchdogDegraded), nullptr);
  EXPECT_EQ(scenario.trace().find_event(sim::Stage::WatchdogRecovered), nullptr);
  EXPECT_EQ(scenario.message_handler().stats().watchdog_degradations, 1u);
  EXPECT_TRUE(scenario.message_handler().degraded());
  EXPECT_TRUE(scenario.planner().degraded());
  // ...and the armed AEB stopped the vehicle short of the obstacle, without
  // any DENM making it through.
  EXPECT_FALSE(r.stopped_by_denm);
  EXPECT_FALSE(r.timed_out);
  ASSERT_NE(scenario.aeb(), nullptr);
  EXPECT_TRUE(scenario.aeb()->triggered());
  EXPECT_NE(scenario.trace().find_event(sim::Stage::AebTrigger), nullptr);
  EXPECT_TRUE(scenario.dynamics().stopped());
  EXPECT_LT(scenario.dynamics().position().y, 6.0);
}

TEST(ChaosWatchdog, ContactRestoredRecoversAndStopsViaDenm) {
  TestbedConfig config = with_fault(214, {FaultKind::NodeDown, "obu", 0_ms, 3'000_ms, 1.0});
  config.message_handler.watchdog = true;
  config.message_handler.watchdog_timeout = 400_ms;
  config.enable_lidar_aeb = true;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();

  // Degrade during the outage, recover when polling resumes, then the
  // normal network-aided chain stops the vehicle.
  EXPECT_NE(scenario.trace().find_event(sim::Stage::WatchdogDegraded), nullptr);
  EXPECT_NE(scenario.trace().find_event(sim::Stage::WatchdogRecovered), nullptr);
  EXPECT_EQ(scenario.message_handler().stats().watchdog_degradations, 1u);
  EXPECT_EQ(scenario.message_handler().stats().watchdog_recoveries, 1u);
  EXPECT_FALSE(scenario.message_handler().degraded());
  EXPECT_FALSE(scenario.planner().degraded());
  ASSERT_TRUE(r.stopped_by_denm);
  EXPECT_FALSE(scenario.aeb()->triggered());
  // The fault window itself is visible as a typed activation/recovery span.
  ASSERT_NE(scenario.fault_injector(), nullptr);
  EXPECT_EQ(scenario.fault_injector()->stats().activations, 1u);
  EXPECT_EQ(scenario.fault_injector()->stats().recoveries, 1u);
  const auto& events = scenario.trace().events();
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const auto& e) { return e.stage == sim::Stage::FaultWindow; }),
            2);
}

// --- Legacy-knob equivalence (the ported failure_injection scenarios) ---

void expect_identical_trials(const TrialResult& a, const TrialResult& b) {
  EXPECT_EQ(a.stopped_by_denm, b.stopped_by_denm);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.t_cross_actual, b.t_cross_actual);
  EXPECT_EQ(a.t_detection, b.t_detection);
  EXPECT_EQ(a.t_rsu_send, b.t_rsu_send);
  EXPECT_EQ(a.t_obu_receive, b.t_obu_receive);
  EXPECT_EQ(a.t_power_cut, b.t_power_cut);
  EXPECT_EQ(a.t_halt, b.t_halt);
  EXPECT_EQ(a.meas_detection_to_rsu_ms, b.meas_detection_to_rsu_ms);
  EXPECT_EQ(a.meas_rsu_to_obu_ms, b.meas_rsu_to_obu_ms);
  EXPECT_EQ(a.meas_obu_to_actuator_ms, b.meas_obu_to_actuator_ms);
  EXPECT_EQ(a.meas_total_ms, b.meas_total_ms);
  EXPECT_EQ(a.braking_distance_m, b.braking_distance_m);
  EXPECT_EQ(a.stop_distance_to_camera_m, b.stop_distance_to_camera_m);
  EXPECT_EQ(a.detection_distance_m, b.detection_distance_m);
  EXPECT_EQ(a.speed_at_detection_mps, b.speed_at_detection_mps);
}

TEST(ChaosLegacyEquivalence, FlakyDetectorContractHoldsViaYoloMissClause) {
  // failure_injection_test's FlakyDetector scenario. The legacy knob halves
  // the profile's detection probability inside the detector's own stream; a
  // YoloMiss clause suppresses from the injector stream instead, so the
  // equivalence here is contractual (same degradation outcome on the same
  // seed), not bitwise.
  TestbedConfig legacy;
  legacy.seed = 95;
  legacy.yolo.stop_sign.detection_probability = 0.5;
  const TrialResult a = TestbedScenario{legacy}.run_emergency_brake_trial(20_s);
  ASSERT_TRUE(a.stopped_by_denm);

  const TrialResult b = TestbedScenario{with_fault(95, {FaultKind::YoloMiss, "yolo", 0_ms,
                                                        3'600'000_ms, 0.5})}
                            .run_emergency_brake_trial(20_s);
  ASSERT_TRUE(b.stopped_by_denm);
  EXPECT_GT(b.stop_distance_to_camera_m, 0.0);
}

// --- Determinism: chaos runs are bit-reproducible from (seed, plan) ---

TestbedConfig multi_fault_config() {
  TestbedConfig config;
  config.seed = 42;
  config.use_gnss = true;
  config.lan.loss_timeout = 30_ms;
  config.fault_plan.clauses = {
      {FaultKind::RadioAttenuation, "medium", 1'000_ms, 4'000_ms, 6.0},
      {FaultKind::HttpLoss, "lan", 0_ms, 30'000_ms, 0.2},
      {FaultKind::CameraDrop, "camera", 2'000_ms, 5'000_ms, 0.3},
      {FaultKind::YoloMiss, "yolo", 0_ms, 30'000_ms, 0.3},
      {FaultKind::HttpStall, "lan", 1'000_ms, 2'000_ms, 20.0},
      {FaultKind::GnssDrift, "gnss", 0_ms, 30'000_ms, 0.3},
  };
  return config;
}

void expect_identical_summaries(const ExperimentSummary& a, const ExperimentSummary& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    expect_identical_trials(a.trials[i], b.trials[i]);
  }
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(format_table2(a), format_table2(b));
  EXPECT_EQ(format_table3(a), format_table3(b));
}

TEST(ChaosDeterminism, SixFaultPlanIsBitIdenticalAcrossRerunsAndThreadCounts) {
  const TestbedConfig config = multi_fault_config();
  const ExperimentSummary serial_a = run_emergency_brake_experiment(config, 8, 1);
  const ExperimentSummary serial_b = run_emergency_brake_experiment(config, 8, 1);
  const ExperimentSummary pooled = run_emergency_brake_experiment(config, 8, 8);
  expect_identical_summaries(serial_a, serial_b);
  expect_identical_summaries(serial_a, pooled);
}

TEST(ChaosDeterminism, PoisonedCpmCellReplaysBitIdentically) {
  // The fusion-boundary cell is itself a chaos run: same (seed, plan) must
  // replay event-for-event and stat-for-stat with CPM traffic on the air.
  const auto run_once = [] {
    TestbedScenario scenario{poisoned_cpm_config(215, 0.6)};
    const TrialResult r = scenario.run_emergency_brake_trial(12_s);
    std::vector<std::tuple<sim::SimTime, sim::Stage, std::uint64_t, std::uint16_t>> events;
    for (const auto& ev : scenario.trace().events()) {
      events.emplace_back(ev.when, ev.stage, ev.a, ev.detail);
    }
    const auto& rx = scenario.obu().cpm()->stats();
    return std::tuple{r.timed_out,       events,           rx.cpms_received,
                      rx.objects_gated,  rx.objects_fused,
                      scenario.rsu().cpm()->stats().objects_published};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_TRUE(std::get<0>(a));
  EXPECT_EQ(a, b);
}

TEST(ChaosDeterminism, FaultTimelineReplaysEventForEvent) {
  const auto run_events = [] {
    TestbedScenario scenario{multi_fault_config()};
    (void)scenario.run_emergency_brake_trial();
    std::vector<std::tuple<sim::SimTime, sim::Stage, std::uint64_t, std::uint16_t>> out;
    for (const auto& ev : scenario.trace().events()) {
      out.emplace_back(ev.when, ev.stage, ev.a, ev.detail);
    }
    return out;
  };
  const auto a = run_events();
  const auto b = run_events();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rst::core
