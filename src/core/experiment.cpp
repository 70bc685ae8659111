#include "rst/core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "rst/core/config_io.hpp"
#include "rst/sim/trial_pool.hpp"

namespace rst::core {

std::vector<double> ExperimentSummary::total_samples_ms() const {
  std::vector<double> out;
  for (const auto& t : trials) {
    if (t.stopped_by_denm) out.push_back(t.meas_total_ms);
  }
  return out;
}

unsigned resolve_experiment_threads(unsigned threads) {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned parse_thread_count(const std::string& value, const std::string& key) {
  constexpr std::int64_t kMaxThreads = 1024;
  return static_cast<unsigned>(parse_spec_int_in(value, key, 0, kMaxThreads));
}

unsigned experiment_threads_from_env(unsigned fallback) {
  const char* raw = std::getenv("RST_THREADS");
  if (raw == nullptr || *raw == '\0') return fallback;
  return parse_thread_count(raw, "RST_THREADS");
}

ExperimentSummary run_emergency_brake_experiment(const TestbedConfig& base_config, int n_trials,
                                                 unsigned threads) {
  if (n_trials <= 0) return ExperimentSummary{};
  std::vector<TrialResult> trials(static_cast<std::size_t>(n_trials));
  // Trial i is fully determined by seed+i and owns every piece of simulation
  // state, so it can run on any worker; slot i keeps the seed order.
  const auto run_one = [&](std::size_t i) {
    TestbedConfig config = base_config;
    config.seed = base_config.seed + static_cast<std::uint64_t>(i);
    TestbedScenario scenario{config};
    trials[i] = scenario.run_emergency_brake_trial();
  };
  const unsigned resolved = resolve_experiment_threads(threads);
  if (resolved <= 1) {
    for (std::size_t i = 0; i < trials.size(); ++i) run_one(i);
  } else {
    sim::TrialPool pool{static_cast<unsigned>(
        std::min<std::size_t>(resolved, trials.size()))};
    pool.run_indexed(trials.size(), run_one);
  }
  return aggregate_experiment_summary(std::move(trials));
}

ExperimentSummary aggregate_experiment_summary(std::vector<TrialResult> trials) {
  ExperimentSummary summary;
  summary.trials = std::move(trials);
  // Stats accumulate from the seed-ordered vector, never in completion
  // order, so the aggregate is bit-identical at any thread count.
  auto& trials_done = summary.metrics.counter("trials");
  auto& trials_failed = summary.metrics.counter("trials_failed");
  auto& h_det_rsu = summary.metrics.histogram("stage.detection_to_rsu_ms");
  auto& h_rsu_obu = summary.metrics.histogram("stage.rsu_to_obu_ms");
  auto& h_obu_act = summary.metrics.histogram("stage.obu_to_actuator_ms");
  auto& h_total = summary.metrics.histogram("stage.total_ms");
  for (const auto& r : summary.trials) {
    trials_done.add();
    if (r.stopped_by_denm) {
      summary.detection_to_rsu_ms.add(r.meas_detection_to_rsu_ms);
      summary.rsu_to_obu_ms.add(r.meas_rsu_to_obu_ms);
      summary.obu_to_actuator_ms.add(r.meas_obu_to_actuator_ms);
      summary.total_ms.add(r.meas_total_ms);
      summary.braking_distance_m.add(r.braking_distance_m);
      h_det_rsu.observe(r.meas_detection_to_rsu_ms);
      h_rsu_obu.observe(r.meas_rsu_to_obu_ms);
      h_obu_act.observe(r.meas_obu_to_actuator_ms);
      h_total.observe(r.meas_total_ms);
    } else {
      ++summary.failures;
      trials_failed.add();
    }
  }
  return summary;
}

std::string format_table2(const ExperimentSummary& summary, int max_rows) {
  std::string out;
  char line[256];
  out += "Table II: Time interval measurements (ms)\n";
  out += "  Interval                       ";
  int shown = 0;
  for (const auto& t : summary.trials) {
    if (!t.stopped_by_denm || shown >= max_rows) continue;
    std::snprintf(line, sizeof line, "  run#%d", ++shown);
    out += line;
  }
  out += "    Avg\n";

  const auto row = [&](const char* label, auto getter, const sim::RunningStats& stats) {
    std::snprintf(line, sizeof line, "  %-30s", label);
    out += line;
    int n = 0;
    for (const auto& t : summary.trials) {
      if (!t.stopped_by_denm || n >= max_rows) continue;
      ++n;
      std::snprintf(line, sizeof line, " %6.1f", getter(t));
      out += line;
    }
    std::snprintf(line, sizeof line, " %6.1f\n", stats.mean());
    out += line;
  };
  row("#2->#3 Detection -> RSU DENM", [](const TrialResult& t) { return t.meas_detection_to_rsu_ms; },
      summary.detection_to_rsu_ms);
  row("#3->#4 RSU DENM -> OBU recv", [](const TrialResult& t) { return t.meas_rsu_to_obu_ms; },
      summary.rsu_to_obu_ms);
  row("#4->#5 OBU recv -> actuators", [](const TrialResult& t) { return t.meas_obu_to_actuator_ms; },
      summary.obu_to_actuator_ms);
  row("Total delay (#2->#5)", [](const TrialResult& t) { return t.meas_total_ms; },
      summary.total_ms);
  std::snprintf(line, sizeof line,
                "  paper: 27.6 / 1.6 / 29.2 / 58.4 ms avg over 5 runs; all totals < 100 ms\n");
  out += line;
  return out;
}

std::string format_table3(const ExperimentSummary& summary, int max_rows) {
  std::string out;
  char line[256];
  out += "Table III: Distance travelled from detection to halt (m)\n  ";
  int n = 0;
  for (const auto& t : summary.trials) {
    if (!t.stopped_by_denm || n >= max_rows) continue;
    ++n;
    std::snprintf(line, sizeof line, "run#%d: %.2f  ", n, t.braking_distance_m);
    out += line;
  }
  std::snprintf(line, sizeof line, "\n  avg %.3f m, variance %.4f (paper: avg 0.36 m, var 0.0022)\n",
                summary.braking_distance_m.mean(), summary.braking_distance_m.population_variance());
  out += line;
  return out;
}

}  // namespace rst::core
