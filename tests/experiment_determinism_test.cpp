// Serial-vs-parallel golden equivalence: the same experiment configuration
// run with 1, 2 and 8 threads must produce trial-by-trial bitwise-equal
// TrialResults and identical ExperimentSummary statistics — the guarantee
// that lets every bench/table in the repo adopt the thread-count knob
// without changing a single reported number.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "rst/core/experiment.hpp"

namespace rst {
namespace {

// Bit-pattern comparison: double equality (==) would already be expected to
// hold, but the contract here is stronger — the bytes must match.
std::uint64_t bits(double x) {
  std::uint64_t out = 0;
  static_assert(sizeof out == sizeof x);
  std::memcpy(&out, &x, sizeof out);
  return out;
}

void expect_trials_bitwise_equal(const core::TrialResult& a, const core::TrialResult& b,
                                 std::size_t index) {
  SCOPED_TRACE(::testing::Message() << "trial " << index);
  EXPECT_EQ(a.stopped_by_denm, b.stopped_by_denm);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.t_cross_actual, b.t_cross_actual);
  EXPECT_EQ(a.t_detection, b.t_detection);
  EXPECT_EQ(a.t_rsu_send, b.t_rsu_send);
  EXPECT_EQ(a.t_obu_receive, b.t_obu_receive);
  EXPECT_EQ(a.t_power_cut, b.t_power_cut);
  EXPECT_EQ(a.t_halt, b.t_halt);
  EXPECT_EQ(bits(a.meas_detection_to_rsu_ms), bits(b.meas_detection_to_rsu_ms));
  EXPECT_EQ(bits(a.meas_rsu_to_obu_ms), bits(b.meas_rsu_to_obu_ms));
  EXPECT_EQ(bits(a.meas_obu_to_actuator_ms), bits(b.meas_obu_to_actuator_ms));
  EXPECT_EQ(bits(a.meas_total_ms), bits(b.meas_total_ms));
  EXPECT_EQ(bits(a.braking_distance_m), bits(b.braking_distance_m));
  EXPECT_EQ(bits(a.stop_distance_to_camera_m), bits(b.stop_distance_to_camera_m));
  EXPECT_EQ(bits(a.detection_distance_m), bits(b.detection_distance_m));
  EXPECT_EQ(bits(a.speed_at_detection_mps), bits(b.speed_at_detection_mps));
}

void expect_stats_bitwise_equal(const sim::RunningStats& a, const sim::RunningStats& b,
                                const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(bits(a.mean()), bits(b.mean()));
  EXPECT_EQ(bits(a.variance()), bits(b.variance()));
  EXPECT_EQ(bits(a.population_variance()), bits(b.population_variance()));
  EXPECT_EQ(bits(a.min()), bits(b.min()));
  EXPECT_EQ(bits(a.max()), bits(b.max()));
}

void expect_summaries_bitwise_equal(const core::ExperimentSummary& a,
                                    const core::ExperimentSummary& b) {
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    expect_trials_bitwise_equal(a.trials[i], b.trials[i], i);
  }
  expect_stats_bitwise_equal(a.detection_to_rsu_ms, b.detection_to_rsu_ms, "detection_to_rsu_ms");
  expect_stats_bitwise_equal(a.rsu_to_obu_ms, b.rsu_to_obu_ms, "rsu_to_obu_ms");
  expect_stats_bitwise_equal(a.obu_to_actuator_ms, b.obu_to_actuator_ms, "obu_to_actuator_ms");
  expect_stats_bitwise_equal(a.total_ms, b.total_ms, "total_ms");
  expect_stats_bitwise_equal(a.braking_distance_m, b.braking_distance_m, "braking_distance_m");
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.total_samples_ms(), b.total_samples_ms());
  // The acceptance criterion verbatim: the rendered report strings match
  // byte for byte.
  EXPECT_EQ(core::format_table2(a), core::format_table2(b));
  EXPECT_EQ(core::format_table3(a), core::format_table3(b));
}

TEST(ExperimentDeterminism, SerialAndParallelRunsAreBitwiseIdentical) {
  core::TestbedConfig config;
  config.seed = 42;
  constexpr int kTrials = 5;

  const auto serial = core::run_emergency_brake_experiment(config, kTrials, 1);
  const auto two_threads = core::run_emergency_brake_experiment(config, kTrials, 2);
  const auto eight_threads = core::run_emergency_brake_experiment(config, kTrials, 8);

  ASSERT_EQ(serial.trials.size(), static_cast<std::size_t>(kTrials));
  {
    SCOPED_TRACE("threads=1 vs threads=2");
    expect_summaries_bitwise_equal(serial, two_threads);
  }
  {
    SCOPED_TRACE("threads=1 vs threads=8");
    expect_summaries_bitwise_equal(serial, eight_threads);
  }
}

TEST(ExperimentDeterminism, AutoThreadCountMatchesSerial) {
  core::TestbedConfig config;
  config.seed = 1234;
  const auto serial = core::run_emergency_brake_experiment(config, 3, 1);
  const auto auto_threads = core::run_emergency_brake_experiment(config, 3, 0);
  expect_summaries_bitwise_equal(serial, auto_threads);
}

TEST(ExperimentDeterminism, RepeatedParallelRunsAgreeWithEachOther) {
  core::TestbedConfig config;
  config.seed = 99;
  const auto first = core::run_emergency_brake_experiment(config, 4, 4);
  const auto second = core::run_emergency_brake_experiment(config, 4, 4);
  expect_summaries_bitwise_equal(first, second);
}

TEST(ExperimentDeterminism, ThreadKnobHelpers) {
  EXPECT_GE(core::resolve_experiment_threads(0), 1u);
  EXPECT_EQ(core::resolve_experiment_threads(1), 1u);
  EXPECT_EQ(core::resolve_experiment_threads(6), 6u);

  ::unsetenv("RST_THREADS");
  EXPECT_EQ(core::experiment_threads_from_env(3), 3u);
  ::setenv("RST_THREADS", "8", 1);
  EXPECT_EQ(core::experiment_threads_from_env(3), 8u);
  ::setenv("RST_THREADS", "", 1);
  EXPECT_EQ(core::experiment_threads_from_env(2), 2u);
  // Anything else that is not a thread count fails loudly, naming the
  // variable, instead of silently meaning auto or wrapping to 2^32 - 1.
  for (const char* bad : {"junk", "-1", "8x", "1025", "99999999999"}) {
    ::setenv("RST_THREADS", bad, 1);
    try {
      (void)core::experiment_threads_from_env(2);
      ADD_FAILURE() << "RST_THREADS=" << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("RST_THREADS"), std::string::npos) << e.what();
    }
  }
  ::unsetenv("RST_THREADS");
  EXPECT_EQ(core::parse_thread_count("0", "--threads"), 0u);
  EXPECT_EQ(core::parse_thread_count("1024", "--threads"), 1024u);
  EXPECT_THROW((void)core::parse_thread_count("-1", "--threads"), std::invalid_argument);
}

}  // namespace
}  // namespace rst
