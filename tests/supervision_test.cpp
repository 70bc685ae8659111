// The testbed's trial supervision stops the event loop only where a
// reading can change, yet must read exactly what a 1 kHz poll reads.
// `poll_trial` below is that poll, built from public calls only: it runs
// run_until(now + 1 ms) until the deadline, checks the Action-Point
// crossing, the detection and the standstill after every step, then mines
// the trace as run_emergency_brake_trial does. Twin scenarios run one spec
// through both and must agree on the trial record, the crossing instant,
// the final clock, the executed events and the trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"
#include "rst/server/campaign.hpp"

namespace rst::core {
namespace {

using namespace rst::sim::literals;
using sim::SimTime;

TrialResult poll_trial(TestbedScenario& s, SimTime timeout = 30_s) {
  s.start_services();
  sim::Scheduler& sched = s.scheduler();
  sim::Trace& trace = s.trace();
  vehicle::VehicleDynamics& dynamics = s.dynamics();
  const TestbedConfig& config = s.config();
  const SimTime t_start = sched.now();
  const SimTime deadline = t_start + timeout;

  TrialResult result;
  bool crossed = false;
  bool halted = false;
  bool detection_seen = false;
  double odometer_at_halt = 0;
  double odometer_at_detection = 0;
  double speed_at_detection = 0;
  std::size_t scan = 0;
  while (sched.now() < deadline) {
    sched.run_until(sched.now() + 1_ms);

    if (!crossed) {
      const double dist = geo::distance(dynamics.position(), config.camera_position);
      if (dist <= config.hazard.action_point_distance_m) {
        crossed = true;
        result.t_cross_actual = sched.now();
      }
    }
    const auto& events = trace.events();
    for (; !detection_seen && scan < events.size(); ++scan) {
      const sim::TraceEvent& d = events[scan];
      if (d.stage != sim::Stage::HazardDecision || d.when < t_start) continue;
      detection_seen = true;
      speed_at_detection = dynamics.speed_mps();
      odometer_at_detection =
          dynamics.odometer_m() - speed_at_detection * (sched.now() - d.when).to_seconds();
    }
    if (dynamics.power_cut() && dynamics.stopped()) {
      halted = true;
      result.t_halt = sched.now();
      odometer_at_halt = dynamics.odometer_m();
      break;
    }
  }
  result.timed_out = !halted;

  const bool cellular = config.warning_path != WarningPath::ItsG5;
  const auto* det = trace.find_event(sim::Stage::HazardDecision, t_start);
  const auto* rsu_send = trace.find_event(sim::Stage::DenmTx, t_start, config.rsu.station_id);
  const auto* obu_recv =
      cellular ? trace.find_event(sim::Stage::ModemDenmRx, t_start)
               : trace.find_event(sim::Stage::DenmRx, t_start, config.obu.station_id);
  const auto* power_cut = trace.find_event(sim::Stage::PowerCutCommand, t_start);
  if (det && rsu_send && obu_recv && power_cut && halted) {
    result.stopped_by_denm = true;
    result.t_detection = det->when;
    result.t_rsu_send = rsu_send->when;
    result.t_obu_receive = obu_recv->when;
    result.t_power_cut = power_cut->when;
    const double off_edge = s.edge_clock().offset().to_milliseconds();
    const double off_rsu = s.rsu().clock().offset().to_milliseconds();
    const double off_obu = cellular ? s.jetson_clock().offset().to_milliseconds()
                                    : s.obu().clock().offset().to_milliseconds();
    const double off_jetson = s.jetson_clock().offset().to_milliseconds();
    result.meas_detection_to_rsu_ms =
        (result.t_rsu_send - result.t_detection).to_milliseconds() + off_rsu - off_edge;
    result.meas_rsu_to_obu_ms =
        (result.t_obu_receive - result.t_rsu_send).to_milliseconds() + off_obu - off_rsu;
    result.meas_obu_to_actuator_ms =
        (result.t_power_cut - result.t_obu_receive).to_milliseconds() + off_jetson - off_obu;
    result.meas_total_ms =
        (result.t_power_cut - result.t_detection).to_milliseconds() + off_jetson - off_edge;
    result.speed_at_detection_mps = speed_at_detection;
    result.braking_distance_m = odometer_at_halt - odometer_at_detection;
    result.stop_distance_to_camera_m = geo::distance(dynamics.position(), config.camera_position);
    if (det->detail == sim::kHazardActionPoint) result.detection_distance_m = det->value;
  }
  return result;
}

/// The first difference between the library's trial on `a` and the poll
/// on `b`; empty when they agree.
std::string difference(TestbedScenario& a, const TrialResult& ra, TestbedScenario& b,
                       const TrialResult& rb) {
  std::ostringstream out;
  const auto seed = a.config().seed;
  const std::string rec_a = server::serialize_trial_record(seed, ra);
  const std::string rec_b = server::serialize_trial_record(seed, rb);
  if (rec_a != rec_b) out << "record\n  event: " << rec_a << "\n  poll:  " << rec_b;
  else if (ra.t_cross_actual != rb.t_cross_actual) out << "t_cross_actual";
  else if (a.scheduler().now() != b.scheduler().now())
    out << "now " << a.scheduler().now().to_string() << " vs " << b.scheduler().now().to_string();
  else if (a.scheduler().executed_events() != b.scheduler().executed_events())
    out << "executed " << a.scheduler().executed_events() << " vs "
        << b.scheduler().executed_events();
  else if (a.trace().events().size() != b.trace().events().size())
    out << "trace " << a.trace().events().size() << " vs " << b.trace().events().size();
  return out.str();
}

TestbedConfig spec_config(const std::string& overrides, std::uint64_t seed) {
  TestbedConfig config;
  apply_config_overrides(config, overrides);
  config.seed = seed;
  return config;
}

/// Runs one trial of `config` both ways and returns the first difference.
std::string compare_trial(const TestbedConfig& config, SimTime timeout = 30_s,
                          TrialResult* out = nullptr) {
  TestbedScenario event{config};
  TestbedScenario poll{config};
  const TrialResult re = event.run_emergency_brake_trial(timeout);
  const TrialResult rp = poll_trial(poll, timeout);
  if (out) *out = re;
  return difference(event, re, poll, rp);
}

struct Spec {
  const char* name;
  const char* overrides;
  bool times_out{false};  // some of its trials must reach the deadline
};

void PrintTo(const Spec& spec, std::ostream* os) { *os << spec.name; }

class SupervisionSpec : public ::testing::TestWithParam<Spec> {};

TEST_P(SupervisionSpec, EventLoopMatchesTheMillisecondLoop) {
  constexpr int kSeeds = 100;
  int halted = 0;
  int timed_out = 0;
  for (int i = 0; i < kSeeds; ++i) {
    const std::uint64_t seed = 5000 + static_cast<std::uint64_t>(i);
    TrialResult r;
    const std::string diff = compare_trial(spec_config(GetParam().overrides, seed), 30_s, &r);
    ASSERT_EQ(diff, "") << GetParam().name << " seed " << seed;
    (r.timed_out ? timed_out : halted) += 1;
  }
  EXPECT_GT(halted, 0);
  if (GetParam().times_out) {
    EXPECT_GT(timed_out, 0);
  }
  RecordProperty("timed_out", timed_out);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, SupervisionSpec,
    ::testing::Values(Spec{"default", ""}, Spec{"shadowing4", "shadowing_sigma_db = 4\n"},
                      Spec{"cpm", "cpm_enable = true\n"},
                      Spec{"embb", "warning_bearer = embb\n"},
                      Spec{"urllc", "warning_bearer = urllc\n"},
                      Spec{"gnss", "use_gnss = true\n"},
                      Spec{"lidar_watchdog", "enable_lidar_aeb = true\nwatchdog = true\n"},
                      Spec{"anonymized", "anonymize_detections = true\n"},
                      // Half the frames missed: some trials miss the crossing
                      // and run to their deadline.
                      Spec{"yolo_miss", "fault = yolo-miss:yolo:0:30000:0.5\n", true},
                      Spec{"http_loss", "fault = http-loss:lan:0:30000:0.3\n"}),
    [](const ::testing::TestParamInfo<Spec>& info) { return std::string{info.param.name}; });

TEST(Supervision, OffGridStartMatchesTheMillisecondLoop) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const TestbedConfig config = spec_config("", seed);
    TestbedScenario event{config};
    TestbedScenario poll{config};
    for (auto* s : {&event, &poll}) {
      s->start_services();
      s->scheduler().run_until(437_us);
    }
    const TrialResult re = event.run_emergency_brake_trial();
    const TrialResult rp = poll_trial(poll);
    ASSERT_EQ(difference(event, re, poll, rp), "") << "seed " << seed;
    EXPECT_EQ((re.t_halt - 437_us) % 1_ms, SimTime::zero());
  }
}

TEST(Supervision, FractionalTimeoutsMatchTheMillisecondLoop) {
  // Deadlines off the 1 ms grid, before, around and after the halt.
  const SimTime timeouts[] = {1_ms - 1_ns, 1_s + 437_us, 2_s + 999'999_ns, 3_s + 1_ns,
                              30_s + 500_us};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const SimTime timeout : timeouts) {
      ASSERT_EQ(compare_trial(spec_config("", seed), timeout), "")
          << "seed " << seed << " timeout " << timeout.to_string();
    }
  }
}

TEST(Supervision, ZeroAndNegativeTimeoutsRunNothing) {
  for (const SimTime timeout : {SimTime::zero(), -5_ms}) {
    const TestbedConfig config = spec_config("", 3);
    TestbedScenario event{config};
    TestbedScenario poll{config};
    const TrialResult re = event.run_emergency_brake_trial(timeout);
    const TrialResult rp = poll_trial(poll, timeout);
    ASSERT_EQ(difference(event, re, poll, rp), "") << timeout.to_string();
    EXPECT_TRUE(re.timed_out);
    EXPECT_EQ(event.scheduler().now(), SimTime::zero());
    // A further run goes all the way: no stop was left behind.
    for (auto* s : {&event, &poll}) s->scheduler().run_until(2_s + 300_us);
    ASSERT_EQ(difference(event, re, poll, rp), "") << timeout.to_string() << " then 2.0003 s";
    EXPECT_EQ(event.scheduler().now(), 2_s + 300_us);
  }
}

TEST(Supervision, OffGridDynamicsTicksMatchTheMillisecondLoop) {
  for (const SimTime tick : {300_us, 2500_us}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      TestbedConfig config = spec_config("", seed);
      config.vehicle_params.tick = tick;
      ASSERT_EQ(compare_trial(config), "") << "tick " << tick.to_string() << " seed " << seed;
    }
  }
}

TEST(Supervision, SecondTrialOnOneScenarioMatchesTheMillisecondLoop) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TestbedConfig config = spec_config("", seed);
    TestbedScenario event{config};
    TestbedScenario poll{config};
    for (int trial = 0; trial < 2; ++trial) {
      const TrialResult re = event.run_emergency_brake_trial();
      const TrialResult rp = poll_trial(poll);
      ASSERT_EQ(difference(event, re, poll, rp), "") << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(Supervision, PooledTrialsMatchTheMillisecondLoop) {
  // The experiment runs supervised trials on four pool threads at once.
  const TestbedConfig base = spec_config("", 700);
  constexpr int kTrials = 16;
  const ExperimentSummary pooled = run_emergency_brake_experiment(base, kTrials, 4);
  ASSERT_EQ(pooled.trials.size(), static_cast<std::size_t>(kTrials));
  for (int i = 0; i < kTrials; ++i) {
    TestbedScenario poll{spec_config("", base.seed + static_cast<std::uint64_t>(i))};
    const TrialResult rp = poll_trial(poll);
    EXPECT_EQ(server::serialize_trial_record(poll.config().seed, pooled.trials[i]),
              server::serialize_trial_record(poll.config().seed, rp));
  }
}

TEST(Supervision, NoHookOutlivesItsTrial) {
  struct Case {
    const char* name;
    SimTime timeout;
    bool timed_out;
  };
  for (const Case c : {Case{"finished", 30_s, false}, Case{"timed out", 1_s + 250_us, true},
                       Case{"zero timeout", SimTime::zero(), true}}) {
    TestbedScenario s{spec_config("", 11)};
    const TrialResult r = s.run_emergency_brake_trial(c.timeout);
    EXPECT_EQ(r.timed_out, c.timed_out) << c.name;
    const SimTime target = s.scheduler().now() + 5_s;
    s.scheduler().run_until(target);
    EXPECT_EQ(s.scheduler().now(), target) << c.name;
    EXPECT_FALSE(s.scheduler().stop_requested()) << c.name;
    EXPECT_FALSE(s.dynamics().has_observer()) << c.name;
    EXPECT_FALSE(s.trace().has_stage_watch()) << c.name;
  }
}

}  // namespace
}  // namespace rst::core
