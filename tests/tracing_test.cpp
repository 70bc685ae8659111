#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"
#include "rst/sim/metrics.hpp"
#include "rst/sim/trace.hpp"

namespace rst::sim {
namespace {

using namespace rst::sim::literals;

TEST(TraceTyped, RecordAndQueryByStageAndStation) {
  Trace trace;
  trace.record_event(1_ms, Stage::DenmTx, 900, pack_action(900, 1));
  trace.record_event(2_ms, Stage::DenmRx, 42, pack_action(900, 1));
  trace.record_event(3_ms, Stage::DenmTx, 900, pack_action(900, 2));

  ASSERT_EQ(trace.events().size(), 3u);
  const TraceEvent* first_tx = trace.find_event(Stage::DenmTx);
  ASSERT_NE(first_tx, nullptr);
  EXPECT_EQ(first_tx->when, 1_ms);
  EXPECT_EQ(action_station(first_tx->a), 900u);
  EXPECT_EQ(action_sequence(first_tx->a), 1u);

  const TraceEvent* later_tx = trace.find_event(Stage::DenmTx, 2_ms);
  ASSERT_NE(later_tx, nullptr);
  EXPECT_EQ(later_tx->when, 3_ms);

  EXPECT_EQ(trace.find_event(Stage::DenmRx, SimTime::zero(), 900), nullptr);
  const TraceEvent* rx = trace.find_event(Stage::DenmRx, SimTime::zero(), 42);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->when, 2_ms);

  EXPECT_EQ(std::count_if(trace.events().begin(), trace.events().end(),
                          [](const TraceEvent& e) { return e.stage == Stage::DenmTx; }),
            2);
  EXPECT_EQ(trace.find_event(Stage::AebTrigger), nullptr);
}

TEST(TraceTyped, RingCapacityDropsNewestAndCounts) {
  Trace trace;
  trace.set_event_capacity(4);
  for (int i = 0; i < 6; ++i) {
    trace.record_event(SimTime::milliseconds(i), Stage::CamTx, 1,
                       static_cast<std::uint64_t>(i));
  }
  // Drop-new semantics: the earliest (pipeline-critical) events survive.
  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.events_dropped(), 2u);
  EXPECT_EQ(trace.events().front().a, 0u);
  EXPECT_EQ(trace.events().back().a, 3u);

  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.events_dropped(), 0u);
}

TEST(TraceTyped, StageWatchSeesOnlyKeptEventsOfItsStage) {
  Trace trace;
  trace.set_event_capacity(3);
  std::vector<std::size_t> seen;  // events().size() at each call
  trace.set_stage_watch(Stage::HazardDecision, [&] { seen.push_back(trace.events().size()); });
  trace.record_event(SimTime::milliseconds(1), Stage::CamTx);
  trace.record_event(SimTime::milliseconds(2), Stage::HazardDecision);
  trace.span_begin(SimTime::milliseconds(3), Stage::HazardDecision);
  trace.record_event(SimTime::milliseconds(4), Stage::HazardDecision);  // dropped: full
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(trace.events_dropped(), 1u);

  trace.set_stage_watch(Stage::HazardDecision, {});
  EXPECT_FALSE(trace.has_stage_watch());
  trace.clear();
  trace.record_event(SimTime::milliseconds(5), Stage::HazardDecision);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(TraceTyped, CapacityAboveTheDefaultKeepsEveryEventUpToIt) {
  // The first record reserves 16,384 events, not the whole capacity; past
  // that the buffer grows (and moves) up to the capacity, and nothing below
  // the capacity is dropped or altered by the growth.
  Trace trace;
  trace.set_event_capacity(40000);
  for (int i = 0; i <= 40000; ++i) {
    trace.record_event(SimTime::microseconds(i), Stage::CamTx, 7,
                       static_cast<std::uint64_t>(i), 0.5 * i, 3);
    if (i == 0) {
      EXPECT_LE(trace.events().capacity(), 16384u);
    }
  }
  EXPECT_LE(trace.events().capacity(), 40000u);
  ASSERT_EQ(trace.events().size(), 40000u);
  EXPECT_EQ(trace.events_dropped(), 1u);
  for (int i : {0, 1, 16383, 16384, 39999}) {
    const TraceEvent& ev = trace.events()[static_cast<std::size_t>(i)];
    EXPECT_EQ(ev.when, SimTime::microseconds(i));
    EXPECT_EQ(ev.stage, Stage::CamTx);
    EXPECT_EQ(ev.station, 7u);
    EXPECT_EQ(ev.a, static_cast<std::uint64_t>(i));
    EXPECT_EQ(ev.value, 0.5 * i);
    EXPECT_EQ(ev.detail, 3u);
  }
  const TraceEvent* mid = trace.find_event(Stage::CamTx, SimTime::microseconds(20000));
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->a, 20000u);
}

TEST(TraceTyped, EveryStageHasAUniqueName) {
  // The echo and the Chrome export both name events by stage_name.
  std::set<std::string_view> names;
  for (int i = 0; i <= static_cast<int>(Stage::DccState); ++i) {
    const std::string_view name = stage_name(static_cast<Stage>(i));
    EXPECT_NE(name, "Unknown") << "stage " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate stage name " << name;
  }
}

TEST(TraceTyped, EchoPrintsOneLinePerEvent) {
  Trace trace;
  trace.set_echo(true);
  ::testing::internal::CaptureStderr();
  trace.record_event(1500_us, Stage::DenmTx, 900, 7, 2.5, 1);
  trace.span_begin(2_ms, Stage::DenmPoll, 0, 3);
  const std::string echoed = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(echoed,
            "[       1.500 ms] DenmTx            i station=900 a=7 value=2.5 detail=1\n"
            "[       2.000 ms] DenmPoll          b station=0 a=3 value=0 detail=0\n");
}

TEST(TraceTyped, SpanPairsRenderAsAsyncChromeEvents) {
  Trace trace;
  trace.span_begin(1_ms, Stage::DenmPoll, 0, 7);
  trace.span_end(2_ms, Stage::DenmPoll, 0, 7);
  trace.record_event(3_ms, Stage::EmergencyStop);

  const std::string json = trace.to_chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"DenmPoll\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // ts is microseconds.
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
}

/// Minimal structural JSON check: balanced {} / [] outside strings, valid
/// escapes inside. Catches broken quoting/escaping without a full parser.
bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        if (i + 1 >= text.size()) return false;
        ++i;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(TraceTyped, FullScenarioEmitsAllPipelineStagesAndValidJson) {
  core::TestbedConfig config;
  config.seed = 9;
  core::TestbedScenario scenario{config};
  const auto result = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(result.stopped_by_denm);

  // Every Fig. 4 stage of the camera -> YOLO -> DENM -> actuation pipeline
  // must be present as a typed event.
  const Trace& trace = scenario.trace();
  for (const Stage stage :
       {Stage::CameraFrame, Stage::YoloDetection, Stage::HazardDecision, Stage::TriggerDenm,
        Stage::DenmTx, Stage::DenmRx, Stage::DenmPoll, Stage::DenmFetch, Stage::EmergencyStop,
        Stage::PowerCutCommand, Stage::PowerCutApplied}) {
    EXPECT_NE(trace.find_event(stage), nullptr) << "missing stage " << stage_name(stage);
  }

  // And the stage ordering must follow the physical pipeline.
  const auto* det = trace.find_event(Stage::HazardDecision);
  const auto* tx = trace.find_event(Stage::DenmTx);
  const auto* rx = trace.find_event(Stage::DenmRx, SimTime::zero(), config.obu.station_id);
  const auto* fetch = trace.find_event(Stage::DenmFetch);
  const auto* cut = trace.find_event(Stage::PowerCutCommand);
  ASSERT_TRUE(det && tx && rx && fetch && cut);
  EXPECT_LE(det->when, tx->when);
  EXPECT_LE(tx->when, rx->when);
  EXPECT_LE(rx->when, fetch->when);
  EXPECT_LE(fetch->when, cut->when);

  const std::string json = trace.to_chrome_trace_json();
  EXPECT_TRUE(json_well_formed(json));
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"HazardDecision\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"CameraFrame\""), std::string::npos);
}

TEST(Metrics, CounterAndHistogramBasics) {
  MetricsRegistry registry;
  auto& c = registry.counter("denms_dropped");
  c.add();
  c.add(4);
  EXPECT_EQ(registry.counter("denms_dropped").value(), 5u);

  auto& h = registry.histogram("latency_ms");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min_seen(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 100.0);
  // Bucketed percentiles: generous tolerance, but the ordering must hold.
  EXPECT_NEAR(h.p50(), 50.0, 10.0);
  EXPECT_NEAR(h.p95(), 95.0, 10.0);
  EXPECT_NEAR(h.p99(), 99.0, 10.0);
  EXPECT_LE(h.p50(), h.p95());
  EXPECT_LE(h.p95(), h.p99());
  EXPECT_LE(h.p99(), h.max_seen());

  const std::string text = registry.format();
  EXPECT_NE(text.find("denms_dropped"), std::string::npos);
  EXPECT_NE(text.find("latency_ms"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(Metrics, HistogramEdgeCases) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.p50(), 3.0);  // single sample: clamped to [min, max] seen
  h.observe(1'000'000.0);          // beyond the last finite edge -> overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max_seen(), 1'000'000.0);
  EXPECT_LE(h.p99(), h.max_seen());
}

TEST(ExperimentMetrics, SummaryCarriesStageHistograms) {
  core::TestbedConfig config;
  config.seed = 21;
  const auto summary = core::run_emergency_brake_experiment(config, 3, 1);
  EXPECT_EQ(summary.metrics.counters().at("trials").value(), 3u);
  const auto& total = summary.metrics.histograms().at("stage.total_ms");
  EXPECT_EQ(total.count(), summary.total_ms.count());
  if (total.count() > 0) {
    EXPECT_NEAR(total.mean(), summary.total_ms.mean(), 1e-9);
  }
}

}  // namespace
}  // namespace rst::sim
