// Table II reproduction: time-interval measurements of the emergency
// braking chain (paper §IV-A). Runs the paper's 5-trial campaign, then a
// 50-trial campaign for tighter statistics, and checks the paper's shape
// claims: the wireless hop is a minimal part (~1.6 ms avg), the total
// averages ~58 ms and never exceeds 100 ms.

#include <cstdio>
#include <stdexcept>

#include "rst/core/experiment.hpp"

int main() try {
  // RST_THREADS fans the trial sweeps over a worker pool (0/unset = auto);
  // every reported number is identical at any thread count.
  const unsigned threads = rst::core::experiment_threads_from_env();
  std::printf("[threads: %u]\n\n", rst::core::resolve_experiment_threads(threads));

  rst::core::TestbedConfig config;
  config.seed = 42;

  std::printf("=== Table II: 5-run campaign (paper protocol) ===\n");
  const auto paper_scale = rst::core::run_emergency_brake_experiment(config, 5, threads);
  std::printf("%s\n", rst::core::format_table2(paper_scale).c_str());

  std::printf("=== Extended 50-run campaign ===\n");
  rst::core::TestbedConfig extended = config;
  extended.seed = 4242;
  const auto ext = rst::core::run_emergency_brake_experiment(extended, 50, threads);
  const auto row = [](const char* label, const rst::sim::RunningStats& s, double paper_avg) {
    std::printf("  %-28s mean %6.1f ms  sd %5.1f  min %6.1f  max %6.1f   (paper avg %.1f)\n",
                label, s.mean(), s.stddev(), s.min(), s.max(), paper_avg);
  };
  row("#2->#3 detection -> RSU", ext.detection_to_rsu_ms, 27.6);
  row("#3->#4 RSU -> OBU (air)", ext.rsu_to_obu_ms, 1.6);
  row("#4->#5 OBU -> actuators", ext.obu_to_actuator_ms, 29.2);
  row("total  #2->#5", ext.total_ms, 58.4);
  const auto ci = rst::sim::bootstrap_mean_ci(ext.total_samples_ms());
  std::printf("  total mean 95%% bootstrap CI: [%.1f, %.1f] ms (paper avg 58.4 inside: %s)\n",
              ci.lower, ci.upper, (58.4 >= ci.lower - 5 && 58.4 <= ci.upper + 5) ? "~yes" : "no");
  std::printf("  failures: %zu / 50\n\n", ext.failures);

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  std::printf("=== Shape checks vs paper ===\n");
  check("wireless hop (#3->#4) mean below 5 ms", ext.rsu_to_obu_ms.mean() < 5.0);
  check("wireless hop is the smallest component",
        ext.rsu_to_obu_ms.mean() < ext.detection_to_rsu_ms.mean() &&
            ext.rsu_to_obu_ms.mean() < ext.obu_to_actuator_ms.mean());
  check("detection->RSU in the tens of ms (15..45)",
        ext.detection_to_rsu_ms.mean() > 15 && ext.detection_to_rsu_ms.mean() < 45);
  check("OBU->actuators in the tens of ms (15..45)",
        ext.obu_to_actuator_ms.mean() > 15 && ext.obu_to_actuator_ms.mean() < 45);
  check("total mean within 40..80 ms", ext.total_ms.mean() > 40 && ext.total_ms.mean() < 80);
  check("no trial exceeded 100 ms", ext.total_ms.max() < 100.0);
  check("all 50 trials stopped via DENM", ext.failures == 0);
  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed RST_THREADS stops the bench with a message instead of running it.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
