#pragma once

#include <string>
#include <vector>

#include "rst/core/testbed.hpp"
#include "rst/sim/metrics.hpp"
#include "rst/sim/stats.hpp"

namespace rst::core {

/// Aggregated results over a set of emergency-braking trials.
struct ExperimentSummary {
  std::vector<TrialResult> trials;
  sim::RunningStats detection_to_rsu_ms{};
  sim::RunningStats rsu_to_obu_ms{};
  sim::RunningStats obu_to_actuator_ms{};
  sim::RunningStats total_ms{};
  sim::RunningStats braking_distance_m{};
  std::size_t failures{0};
  /// Cross-trial observability: per-stage latency histograms (p50/p95/p99)
  /// and trial counters, fed from the same seed-ordered pass as the
  /// RunningStats so the registry is thread-count independent.
  sim::MetricsRegistry metrics{};

  [[nodiscard]] std::vector<double> total_samples_ms() const;
};

/// Runs `n` independent emergency-braking trials (fresh testbed per trial,
/// seeds seed+0..n-1) and aggregates the paper's Table II/III quantities.
///
/// `threads` fans the trials out over a sim::TrialPool: 0 (the default)
/// selects hardware_concurrency, 1 keeps the legacy serial path. Trials are
/// collected in seed order and the summary stats are accumulated from that
/// ordered vector, so the result — including the format_table2/format_table3
/// renderings — is identical at any thread count.
[[nodiscard]] ExperimentSummary run_emergency_brake_experiment(const TestbedConfig& base_config,
                                                               int n_trials, unsigned threads = 0);

/// Builds the summary (RunningStats + MetricsRegistry) from an already
/// seed-ordered trial vector — the single aggregation pass shared by
/// run_emergency_brake_experiment and the campaign server's cache-hit
/// path, so a summary rebuilt from stored trial records is bit-identical
/// to the one the cold run produced.
[[nodiscard]] ExperimentSummary aggregate_experiment_summary(std::vector<TrialResult> trials);

/// Resolves the thread-count knob: 0 -> hardware_concurrency (at least 1).
[[nodiscard]] unsigned resolve_experiment_threads(unsigned threads);

/// Parses a thread count strictly (0 = auto). Throws std::invalid_argument
/// naming `key` on anything but an integer in [0, 1024]: far above any core
/// count, far below what thread stacks could exhaust memory with.
[[nodiscard]] unsigned parse_thread_count(const std::string& value, const std::string& key);

/// Thread-count knob for benches and examples: reads the RST_THREADS
/// environment variable (0 = auto) through parse_thread_count; returns
/// `fallback` when unset or empty and throws std::invalid_argument naming
/// RST_THREADS when it is set to anything else.
[[nodiscard]] unsigned experiment_threads_from_env(unsigned fallback = 0);

/// Renders a Table II-style report (paper rows vs measured) to a string.
[[nodiscard]] std::string format_table2(const ExperimentSummary& summary, int max_rows = 5);

/// Renders a Table III-style report.
[[nodiscard]] std::string format_table3(const ExperimentSummary& summary, int max_rows = 7);

}  // namespace rst::core
