// FaultPlan unit and property tests: clause parsing/formatting round trips
// (including through the config_io registry), window semantics ([start,
// end), worst-of composition, wildcard targets), typed trace spans for
// every activation/recovery, stream determinism, and the HttpLan poll-loop
// retry cadence regression under 100% loss.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/core/testbed.hpp"
#include "rst/sim/fault_plan.hpp"

namespace rst::sim {
namespace {

using namespace rst::sim::literals;

TEST(FaultPlan, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    const auto name = fault_kind_name(kind);
    EXPECT_FALSE(name.empty());
    const auto back = fault_kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(fault_kind_from_name("warp-core-breach").has_value());
}

TEST(FaultPlan, ParsesClauses) {
  const FaultClause c = parse_fault_clause("radio-blackout:medium:100:250:1");
  EXPECT_EQ(c.kind, FaultKind::RadioBlackout);
  EXPECT_EQ(c.target, "medium");
  EXPECT_EQ(c.start, 100_ms);
  EXPECT_EQ(c.end, 250_ms);
  EXPECT_DOUBLE_EQ(c.severity, 1.0);

  // "*" and an empty field both mean any target of the kind.
  EXPECT_EQ(parse_fault_clause("http-loss:*:0:1000:0.3").target, "");
  EXPECT_EQ(parse_fault_clause("http-loss::0:1000:0.3").target, "");

  // Each severity range's edges are accepted.
  EXPECT_EQ(parse_fault_clause("http-loss:lan:0:10:0").severity, 0.0);
  EXPECT_EQ(parse_fault_clause("http-loss:lan:0:10:1").severity, 1.0);
  EXPECT_EQ(parse_fault_clause("radio-attenuation:medium:0:10:0").severity, 0.0);
  EXPECT_EQ(parse_fault_clause("http-stall:lan:0:10:9223372036854").severity,
            static_cast<double>(SimTime::kMaxMilliseconds));
  EXPECT_EQ(parse_fault_clause("radio-blackout:medium:0:10:-7").severity, -7.0);
}

TEST(FaultPlan, RejectsMalformedClauses) {
  EXPECT_THROW((void)parse_fault_clause("warp-core-breach:*:0:1:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_clause("http-loss:*:0:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_clause("http-loss:*:0:1:1:extra"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_clause("http-loss:*:500:100:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_clause("http-loss:*:zero:100:1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_clause(""), std::invalid_argument);
  // A severity its kind cannot take.
  const char* const bad_severity[] = {
      // A stall whose nanosecond count overflows SimTime.
      "http-stall:lan:0:100000:1e300",
      "http-stall:lan:0:100000:9223372036855",
      "http-stall:lan:0:100000:-1",
      // Non-finite values, for every kind.
      "radio-blackout:medium:0:10:nan",
      "node-down:obu:0:10:inf",
      "camera-freeze:camera:0:10:-inf",
      "radio-attenuation:medium:0:10:nan",
      "gnss-drift:gnss:0:10:inf",
      // Probabilities outside [0, 1].
      "http-loss:lan:0:10:1.5",
      "http-loss:lan:0:10:-0.1",
      "camera-drop:camera:0:10:1.01",
      "yolo-miss:yolo:0:10:2",
      "yolo-misclassify:yolo:0:10:-1",
      "yolo-confidence:yolo:0:10:1.5",
      // Negative dB and rates.
      "radio-attenuation:medium:0:10:-3",
      "gnss-drift:gnss:0:10:-0.5",
  };
  for (const char* text : bad_severity) {
    EXPECT_THROW((void)parse_fault_clause(text), std::invalid_argument) << text;
  }
  // A config file reports the clause instead of running it.
  core::TestbedConfig config;
  EXPECT_THROW((void)core::apply_config_overrides(config, "fault = http-stall:lan:0:100000:1e300\n"),
               std::invalid_argument);
}

TEST(FaultPlan, RadioAttenuationIsNeverNegative) {
  // Clauses built in code skip the parser's range check; the injector
  // still never reports a negative or NaN attenuation, so a faulted link
  // budget is never above the unfaulted one.
  Scheduler sched;
  RandomStream rng{6, "atten"};
  FaultPlan plan;
  plan.clauses.push_back({FaultKind::RadioAttenuation, "medium", 0_ms, 100_ms, -12.0});
  plan.clauses.push_back({FaultKind::RadioAttenuation, "", 50_ms, 100_ms,
                          std::numeric_limits<double>::quiet_NaN()});
  FaultInjector inj{sched, rng.child("faults"), plan};
  for (const SimTime t : {0_ms, 10_ms, 60_ms, 99_ms, 100_ms, 200_ms}) {
    sched.run_until(t);
    EXPECT_EQ(inj.radio_attenuation_db("medium"), 0.0) << t.to_string();
  }
}

bool is_probability(FaultKind kind) {
  return kind == FaultKind::CameraDrop || kind == FaultKind::YoloMiss ||
         kind == FaultKind::YoloMisclassify || kind == FaultKind::YoloConfidence ||
         kind == FaultKind::HttpLoss;
}

FaultClause random_clause(std::mt19937& gen) {
  static const std::vector<std::string> kTargets = {"", "medium", "lan", "obu", "yolo"};
  std::uniform_real_distribution<double> ms{0.0, 60000.0};
  std::uniform_real_distribution<double> sev{0.0, 400.0};
  FaultClause c;
  c.kind = static_cast<FaultKind>(gen() % kFaultKindCount);
  c.target = kTargets[gen() % kTargets.size()];
  c.start = SimTime::from_milliseconds(ms(gen));
  c.end = c.start + SimTime::from_milliseconds(ms(gen));
  // Severities stay inside what the kind accepts.
  c.severity = is_probability(c.kind) ? sev(gen) / 400.0 : sev(gen);
  return c;
}

TEST(FaultPlan, FormatParseRoundTripsRandomizedClauses) {
  std::mt19937 gen{12345};
  for (int i = 0; i < 300; ++i) {
    const FaultClause c = random_clause(gen);
    const std::string text = format_fault_clause(c);
    const FaultClause back = parse_fault_clause(text);
    EXPECT_EQ(back, c) << text;
  }
}

TEST(FaultPlan, PlanRoundTripsThroughConfigIo) {
  std::mt19937 gen{67890};
  for (int round = 0; round < 25; ++round) {
    FaultPlan plan;
    const std::size_t n = 1 + gen() % 6;
    for (std::size_t i = 0; i < n; ++i) plan.clauses.push_back(random_clause(gen));

    std::string text;
    for (const auto& clause : plan.clauses) text += "fault = " + format_fault_clause(clause) + "\n";
    core::TestbedConfig config;
    const auto applied = core::apply_config_overrides(config, text);
    EXPECT_EQ(applied, n);
    EXPECT_EQ(config.fault_plan, plan);
  }
}

TEST(FaultPlan, WatchdogKnobsParseFromConfig) {
  core::TestbedConfig config;
  core::apply_config_overrides(config,
                               "watchdog = true\n"
                               "watchdog_timeout_ms = 250\n"
                               "failsafe_speed_mps = 0.4\n"
                               "hazard_min_confidence = 0.5\n"
                               "hazard_require_known_road_user = true\n"
                               "fault = node-down:obu:0:3000:1\n");
  EXPECT_TRUE(config.message_handler.watchdog);
  EXPECT_EQ(config.message_handler.watchdog_timeout, 250_ms);
  EXPECT_DOUBLE_EQ(config.planner.failsafe_speed_mps, 0.4);
  EXPECT_DOUBLE_EQ(config.hazard.min_confidence, 0.5);
  EXPECT_TRUE(config.hazard.require_known_road_user);
  ASSERT_EQ(config.fault_plan.clauses.size(), 1u);
  EXPECT_EQ(config.fault_plan.clauses[0].kind, FaultKind::NodeDown);
}

TEST(FaultPlan, WindowIsHalfOpen) {
  Scheduler sched;
  RandomStream rng{1, "fault_test"};
  FaultPlan plan;
  plan.clauses.push_back({FaultKind::RadioBlackout, "medium", 10_ms, 20_ms, 1.0});
  FaultInjector inj{sched, rng.child("faults"), plan};

  EXPECT_FALSE(inj.active(FaultKind::RadioBlackout, "medium"));
  sched.run_until(10_ms - SimTime::microseconds(1));
  EXPECT_FALSE(inj.active(FaultKind::RadioBlackout, "medium"));
  sched.run_until(10_ms);  // start is inclusive
  EXPECT_TRUE(inj.active(FaultKind::RadioBlackout, "medium"));
  sched.run_until(20_ms - SimTime::microseconds(1));
  EXPECT_TRUE(inj.active(FaultKind::RadioBlackout, "medium"));
  sched.run_until(20_ms);  // end is exclusive
  EXPECT_FALSE(inj.active(FaultKind::RadioBlackout, "medium"));
}

TEST(FaultPlan, WindowsNeverFireOutsideTheirRangeProperty) {
  std::mt19937 gen{424242};
  static const std::vector<std::string> kQueryTargets = {"medium", "lan", "obu", "yolo", "rsu"};
  for (int round = 0; round < 20; ++round) {
    Scheduler sched;
    RandomStream rng{7, "prop"};
    FaultPlan plan;
    const std::size_t n = 1 + gen() % 5;
    for (std::size_t i = 0; i < n; ++i) plan.clauses.push_back(random_clause(gen));
    FaultInjector inj{sched, rng.child("faults"), plan};

    // Probe at random instants plus every clause boundary, in time order.
    std::vector<SimTime> probes;
    std::uniform_real_distribution<double> ms{0.0, 130000.0};
    for (int i = 0; i < 40; ++i) probes.push_back(SimTime::from_milliseconds(ms(gen)));
    for (const auto& c : plan.clauses) {
      probes.push_back(c.start);
      probes.push_back(c.end);
    }
    std::sort(probes.begin(), probes.end());

    for (const SimTime t : probes) {
      sched.run_until(t);
      for (std::size_t k = 0; k < kFaultKindCount; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        for (const auto& target : kQueryTargets) {
          bool expect_active = false;
          double expect_severity = 0.0;
          for (const auto& c : plan.clauses) {
            if (c.kind != kind) continue;
            if (!c.target.empty() && c.target != target) continue;
            if (t < c.start || t >= c.end) continue;
            expect_active = true;
            expect_severity = std::max(expect_severity, c.severity);
          }
          EXPECT_EQ(inj.active(kind, target), expect_active);
          EXPECT_DOUBLE_EQ(inj.severity(kind, target), expect_severity);
        }
      }
    }
  }
}

TEST(FaultPlan, OverlappingClausesComposeWorstOf) {
  Scheduler sched;
  RandomStream rng{3, "worst"};
  FaultPlan plan;
  plan.clauses.push_back({FaultKind::HttpLoss, "lan", 0_ms, 100_ms, 0.3});
  plan.clauses.push_back({FaultKind::HttpLoss, "lan", 50_ms, 200_ms, 0.7});
  plan.clauses.push_back({FaultKind::RadioAttenuation, "medium", 0_ms, 100_ms, 20.0});
  plan.clauses.push_back({FaultKind::RadioBlackout, "medium", 20_ms, 60_ms, 1.0});
  FaultInjector inj{sched, rng.child("faults"), plan};

  sched.run_until(10_ms);
  EXPECT_DOUBLE_EQ(inj.severity(FaultKind::HttpLoss, "lan"), 0.3);
  EXPECT_DOUBLE_EQ(inj.radio_attenuation_db("medium"), 20.0);
  sched.run_until(30_ms);
  // A blackout dominates any attenuation window it overlaps.
  EXPECT_DOUBLE_EQ(inj.radio_attenuation_db("medium"), FaultInjector::kRadioBlackoutDb);
  sched.run_until(75_ms);
  EXPECT_DOUBLE_EQ(inj.severity(FaultKind::HttpLoss, "lan"), 0.7);
  EXPECT_DOUBLE_EQ(inj.radio_attenuation_db("medium"), 20.0);
  sched.run_until(150_ms);
  EXPECT_DOUBLE_EQ(inj.severity(FaultKind::HttpLoss, "lan"), 0.7);
  EXPECT_DOUBLE_EQ(inj.radio_attenuation_db("medium"), 0.0);
}

TEST(FaultPlan, WildcardTargetMatchesEveryInjectionPoint) {
  Scheduler sched;
  RandomStream rng{4, "wild"};
  FaultPlan plan;
  plan.clauses.push_back({FaultKind::NodeDown, "", 0_ms, 100_ms, 1.0});
  plan.clauses.push_back({FaultKind::HttpStall, "edge", 0_ms, 100_ms, 15.0});
  FaultInjector inj{sched, rng.child("faults"), plan};

  sched.run_until(10_ms);
  EXPECT_TRUE(inj.active(FaultKind::NodeDown, "obu"));
  EXPECT_TRUE(inj.active(FaultKind::NodeDown, "rsu"));
  EXPECT_TRUE(inj.active(FaultKind::HttpStall, "edge"));
  EXPECT_FALSE(inj.active(FaultKind::HttpStall, "lan"));
}

TEST(FaultPlan, EveryActivationAndRecoveryEmitsATypedSpan) {
  Scheduler sched;
  Trace trace;
  RandomStream rng{5, "spans"};
  FaultPlan plan;
  plan.clauses.push_back({FaultKind::RadioBlackout, "medium", 10_ms, 20_ms, 1.0});
  plan.clauses.push_back({FaultKind::HttpLoss, "lan", 15_ms, 40_ms, 0.5});
  FaultInjector inj{sched, rng.child("faults"), plan, &trace};

  sched.run_until(100_ms);
  EXPECT_EQ(inj.stats().activations, 2u);
  EXPECT_EQ(inj.stats().recoveries, 2u);

  std::vector<const TraceEvent*> events;
  for (const auto& ev : trace.events()) {
    if (ev.stage == Stage::FaultWindow) events.push_back(&ev);
  }
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < plan.clauses.size(); ++i) {
    const auto& clause = plan.clauses[i];
    int begins = 0;
    int ends = 0;
    for (const auto* ev : events) {
      if (ev->a != i) continue;
      EXPECT_EQ(static_cast<FaultKind>(ev->detail), clause.kind);
      EXPECT_DOUBLE_EQ(ev->value, clause.severity);
      if (ev->phase == Phase::Begin) {
        EXPECT_EQ(ev->when, clause.start);
        ++begins;
      } else {
        EXPECT_EQ(ev->phase, Phase::End);
        EXPECT_EQ(ev->when, clause.end);
        ++ends;
      }
    }
    EXPECT_EQ(begins, 1);
    EXPECT_EQ(ends, 1);
  }
  // The earliest span opens the radio blackout.
  const TraceEvent* first = trace.find_event(Stage::FaultWindow);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(static_cast<FaultKind>(first->detail), FaultKind::RadioBlackout);
}

TEST(FaultPlan, StreamsAreDeterministicPerKind) {
  const auto draw = [](FaultKind kind) {
    Scheduler sched;
    RandomStream rng{99, "det"};
    FaultPlan plan;
    plan.clauses.push_back({kind, "", 0_ms, 1000_ms, 0.5});
    FaultInjector inj{sched, rng.child("faults"), plan};
    std::vector<bool> draws;
    for (int i = 0; i < 64; ++i) draws.push_back(inj.draw_bernoulli(kind, 0.5));
    return draws;
  };
  // Identical (seed, plan) reproduce the exact draw sequence...
  EXPECT_EQ(draw(FaultKind::YoloMiss), draw(FaultKind::YoloMiss));
  // ...and each kind owns an independent named stream.
  EXPECT_NE(draw(FaultKind::YoloMiss), draw(FaultKind::CameraDrop));
}

// Satellite regression: under 100% HTTP loss the polling loop must keep
// its cadence — every failed poll is followed by a retry at the next poll
// period, with the losses and retries visible in the stats.
TEST(FaultPlan, PollLoopRetryCadenceUnderTotalLoss) {
  core::TestbedConfig config;
  config.seed = 92;
  config.fault_plan.clauses.push_back({FaultKind::HttpLoss, "lan", 0_ms, 3'600'000_ms, 1.0});
  config.lan.loss_timeout = 30_ms;
  core::TestbedScenario scenario{config};
  const core::TrialResult r = scenario.run_emergency_brake_trial(5_s);
  EXPECT_TRUE(r.timed_out);

  const auto& stats = scenario.message_handler().stats();
  // 5 s at the 50 ms default period: the cadence never degrades.
  const auto expected = static_cast<std::uint64_t>(5000 / 50);
  EXPECT_GE(stats.polls, expected - 2);
  EXPECT_LE(stats.polls, expected + 2);
  // Every completed response failed; every poll after the first failure is
  // a retry; every request the handler issued was lost on the LAN.
  EXPECT_GE(stats.failed_polls, stats.polls - 2);
  EXPECT_GE(stats.retries, stats.polls - 3);
  EXPECT_LE(stats.retries, stats.failed_polls);
  EXPECT_GE(scenario.lan().requests_lost(), stats.polls - 1);
}

// The largest stall the parser accepts still fits the clock on its own, but
// not once added to the time and the LAN latencies: such a request is held
// for good instead of scheduling its response at an overflowed time.
TEST(FaultPlan, StallAtTheParseLimitHoldsRequestsForGood) {
  core::TestbedConfig config;
  config.seed = 93;
  config.fault_plan.clauses.push_back(
      parse_fault_clause("http-stall:lan:0:100000:9223372036854"));
  core::TestbedScenario scenario{config};
  const core::TrialResult r = scenario.run_emergency_brake_trial(3_s);
  EXPECT_TRUE(r.timed_out);
  EXPECT_GT(scenario.lan().requests_sent(), 0u);
}

}  // namespace
}  // namespace rst::sim
