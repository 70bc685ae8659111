// Command-line experiment runner: the tool a testbed operator would use to
// run measurement campaigns with different knobs, the way the paper's
// authors ran their five (Table II) and seven (Table III) trials.
//
// Usage:
//   run_experiment [--trials N] [--seed S] [--threads T] [--poll-ms P]
//                  [--fps F] [--speed V] [--action-point D]
//                  [--bearer its-g5|embb|urllc] [--csv] [--trace-out FILE]
//                  [--fault-plan FILE]
//
// Prints the Table II/III style summary; --csv additionally dumps one line
// per trial for external analysis. --threads fans the trials out over a
// worker pool (0 = hardware concurrency, 1 = serial; the default is the
// RST_THREADS environment variable, else auto) — results are identical at
// any thread count. --trace-out runs one extra trial at the base seed and
// writes its full stage timeline as Chrome trace-event JSON (open in
// Perfetto / chrome://tracing). --fault-plan installs a deterministic
// fault-injection schedule from a config file of `fault = ...` clauses
// (plus any other override keys, e.g. watchdog = true); see
// examples/degraded_run.conf.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"

namespace {

using rst::core::parse_spec_int;
using rst::core::parse_spec_int_in;

/// Flags that set one config key each, through that key's table row.
constexpr std::pair<std::string_view, std::string_view> kKeyFlags[] = {
    {"--poll-ms", "poll_period_ms"}, {"--fps", "detection_fps"}, {"--speed", "target_speed_mps"},
    {"--action-point", "action_point_m"}, {"--bearer", "warning_bearer"}};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--trials N] [--seed S] [--threads T] [--poll-ms P] [--fps F]\n"
      "          [--speed V] [--action-point D] [--bearer its-g5|embb|urllc] [--csv]\n"
      "          [--config FILE] [--fault-plan FILE] [--list-config-keys] [--trace-out FILE]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  int trials = 10;
  unsigned threads = 0;
  rst::core::TestbedConfig config;
  config.seed = 1;
  bool csv = false;
  std::string trace_out;

  try {
    threads = rst::core::experiment_threads_from_env();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          usage(argv[0]);
          std::exit(2);
        }
        return argv[++i];
      };
      const auto* flag = std::find_if(std::begin(kKeyFlags), std::end(kKeyFlags),
                                      [&](const auto& f) { return f.first == arg; });
      if (flag != std::end(kKeyFlags)) {
        rst::core::config_fields().set(config, flag->second, next());
      } else if (arg == "--trials") {
        trials = static_cast<int>(
            parse_spec_int_in(next(), arg, 1, std::numeric_limits<int>::max()));
      } else if (arg == "--threads") {
        threads = rst::core::parse_thread_count(next(), arg);
      } else if (arg == "--seed") {
        config.seed = static_cast<std::uint64_t>(parse_spec_int(next(), arg));
      } else if (arg == "--csv") {
        csv = true;
      } else if (arg == "--trace-out") {
        trace_out = next();
      } else if (arg == "--config" || arg == "--fault-plan") {
        // A fault plan is just a config file whose keys are fault clauses
        // (and typically the watchdog knobs), so both flags share the parser.
        std::ifstream file{next()};
        if (!file) {
          std::fprintf(stderr, "cannot open %s file\n", arg.c_str() + 2);
          return 2;
        }
        std::string text{std::istreambuf_iterator<char>{file}, std::istreambuf_iterator<char>{}};
        const auto n = rst::core::apply_config_overrides(config, text);
        std::printf("applied %zu config override(s)\n", n);
      } else if (arg == "--list-config-keys") {
        for (const auto& [key, help] : rst::core::config_override_keys()) {
          std::printf("  %-24s %s\n", key.c_str(), help.c_str());
        }
        return 0;
      } else {
        usage(argv[0]);
        return arg == "--help" ? 0 : 2;
      }
    }
    config.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
    return 2;
  }

  std::printf("Running %d emergency-braking trials (seed %llu, %u thread%s)...\n\n", trials,
              static_cast<unsigned long long>(config.seed),
              rst::core::resolve_experiment_threads(threads),
              rst::core::resolve_experiment_threads(threads) == 1 ? "" : "s");
  const auto summary = rst::core::run_emergency_brake_experiment(config, trials, threads);
  std::printf("%s\n%s\n", rst::core::format_table2(summary, trials).c_str(),
              rst::core::format_table3(summary, trials).c_str());
  if (summary.failures > 0) {
    std::printf("WARNING: %zu trial(s) did not stop via DENM\n", summary.failures);
  }
  if (summary.total_ms.count() >= 2) {
    const auto ci = rst::sim::bootstrap_mean_ci(summary.total_samples_ms());
    std::printf("total delay mean %.1f ms, 95%% bootstrap CI [%.1f, %.1f]\n", ci.point, ci.lower,
                ci.upper);
  }
  std::printf("\n%s", summary.metrics.format().c_str());

  if (!trace_out.empty()) {
    // One dedicated trial at the base seed: its typed stage timeline is the
    // Fig. 4 pipeline rendered as a Chrome/Perfetto trace.
    rst::core::TestbedScenario scenario{config};
    (void)scenario.run_emergency_brake_trial();
    std::ofstream out{trace_out};
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_out.c_str());
      return 2;
    }
    out << scenario.trace().to_chrome_trace_json();
    std::printf("wrote %zu stage event(s) to %s\n", scenario.trace().events().size(),
                trace_out.c_str());
  }

  if (csv) {
    std::printf("\ntrial,detection_to_rsu_ms,rsu_to_obu_ms,obu_to_actuator_ms,total_ms,"
                "braking_distance_m,stopped\n");
    int index = 0;
    for (const auto& t : summary.trials) {
      std::printf("%d,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n", index++, t.meas_detection_to_rsu_ms,
                  t.meas_rsu_to_obu_ms, t.meas_obu_to_actuator_ms, t.meas_total_ms,
                  t.braking_distance_m, t.stopped_by_denm ? 1 : 0);
    }
  }
  return summary.failures == 0 ? 0 : 1;
}
