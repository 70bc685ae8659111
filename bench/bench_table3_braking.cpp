// Table III reproduction: distance travelled from detection to halt
// (paper §IV-B). Runs the paper's 7-trial campaign and an extended one,
// and checks the paper's claims: average ~0.36 m, small variance
// (paper: 0.0022), and under one vehicle length (~0.53 m).

#include <cstdio>
#include <stdexcept>

#include "rst/core/experiment.hpp"

int main() try {
  // RST_THREADS fans the trial sweeps over a worker pool (0/unset = auto);
  // every reported number is identical at any thread count.
  const unsigned threads = rst::core::experiment_threads_from_env();
  std::printf("[threads: %u]\n\n", rst::core::resolve_experiment_threads(threads));

  rst::core::TestbedConfig config;
  config.seed = 777;

  std::printf("=== Table III: 7-run campaign (paper protocol) ===\n");
  const auto paper_scale = rst::core::run_emergency_brake_experiment(config, 7, threads);
  std::printf("%s\n", rst::core::format_table3(paper_scale).c_str());

  std::printf("=== Extended 60-run campaign ===\n");
  rst::core::TestbedConfig extended = config;
  extended.seed = 7777;
  const auto ext = rst::core::run_emergency_brake_experiment(extended, 60, threads);
  const auto& d = ext.braking_distance_m;
  std::printf("  braking distance: mean %.3f m  sd %.3f  min %.2f  max %.2f  var %.4f\n",
              d.mean(), d.stddev(), d.min(), d.max(), d.population_variance());
  std::printf("  (paper: avg 0.36 m over 7 runs, variance 0.0022, range 0.31-0.43)\n");
  std::printf("  vehicle length: %.2f m\n\n", extended.vehicle_params.length_m);

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  std::printf("=== Shape checks vs paper ===\n");
  check("mean braking distance within 0.25..0.50 m", d.mean() > 0.25 && d.mean() < 0.50);
  check("average below one vehicle length", d.mean() < extended.vehicle_params.length_m);
  check("variance small (< 0.01)", d.population_variance() < 0.01);
  check("every run stopped", ext.failures == 0);
  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed RST_THREADS stops the bench with a message instead of running it.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
