// Fig. 11 reproduction: empirical distribution function of the total
// detection-to-actuation delay samples. The paper plots the EDF of its five
// Table II totals (60% between 44-55 ms, 40% between 70-71 ms) and, as
// future work, wants "a more comprehensive CDF of end-to-end latency".
// This bench prints the 5-sample EDF and a 200-run EDF.

#include <cstdio>
#include <stdexcept>

#include "rst/core/experiment.hpp"
#include "rst/sim/stats.hpp"

namespace {

void print_edf(const rst::sim::Edf& edf) {
  for (const auto& [x, f] : edf.steps()) {
    const int bar = static_cast<int>(f * 50);
    std::printf("  %7.1f ms  %5.2f  |", x, f);
    for (int i = 0; i < bar; ++i) std::printf("#");
    std::printf("\n");
  }
}

}  // namespace

int main() try {
  // RST_THREADS fans the trial sweeps over a worker pool (0/unset = auto);
  // every reported number is identical at any thread count.
  const unsigned threads = rst::core::experiment_threads_from_env();
  std::printf("[threads: %u]\n\n", rst::core::resolve_experiment_threads(threads));

  rst::core::TestbedConfig config;
  config.seed = 42;

  std::printf("=== Fig. 11a: EDF of the paper-protocol 5-run campaign ===\n");
  const auto small = rst::core::run_emergency_brake_experiment(config, 5, threads);
  const rst::sim::Edf small_edf{small.total_samples_ms()};
  print_edf(small_edf);

  std::printf("\n=== Fig. 11b: comprehensive EDF, 200 runs (paper future work) ===\n");
  rst::core::TestbedConfig big_config = config;
  big_config.seed = 5000;
  const auto big = rst::core::run_emergency_brake_experiment(big_config, 200, threads);
  const rst::sim::Edf edf{big.total_samples_ms()};
  rst::sim::Histogram hist{30.0, 100.0, 14};
  for (double v : big.total_samples_ms()) hist.add(v);
  std::printf("%s\n", hist.render(46).c_str());
  std::printf("  quantiles: p10 %.1f  p50 %.1f  p90 %.1f  p99 %.1f  max %.1f ms\n",
              edf.quantile(0.10), edf.quantile(0.50), edf.quantile(0.90), edf.quantile(0.99),
              edf.sorted_samples().back());

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  std::printf("\n=== Shape checks vs paper ===\n");
  check("5-run EDF is a valid distribution function (ends at 1.0)",
        small_edf.steps().back().second == 1.0);
  check("most probability mass between 40 and 80 ms", edf.fraction_in(40, 80) > 0.8);
  check("no sample above 100 ms (headline claim)", edf.at(100.0) == 1.0);
  check("median within 45..70 ms (paper avg 58.4)",
        edf.quantile(0.5) > 45 && edf.quantile(0.5) < 70);
  check("spread covers tens of ms (poll-phase driven)",
        edf.quantile(0.95) - edf.quantile(0.05) > 20.0);
  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed RST_THREADS stops the bench with a message instead of running it.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
