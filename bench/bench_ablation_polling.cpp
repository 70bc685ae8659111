// Ablation A1: the paper's step 4->5 interval (OBU reception to actuator
// command, avg 29.2 ms) is dominated by the Jetson's HTTP polling loop
// against the OBU's /request_denm endpoint. Sweeping the polling period
// shows the dependence and quantifies how much of the end-to-end budget the
// integration choice costs.

#include <cstdio>
#include <stdexcept>

#include "rst/core/experiment.hpp"

int main() try {
  const unsigned threads = rst::core::experiment_threads_from_env();
  const long periods_ms[] = {5, 10, 20, 50, 100};
  constexpr int kRuns = 25;

  std::printf("Ablation: OBU polling period vs step 4->5 and total delay (%d runs each)\n\n",
              kRuns);
  std::printf("  poll (ms)   #4->#5 mean (ms)   #4->#5 max   total mean   total max\n");

  double mean_at_5 = 0;
  double mean_at_100 = 0;
  bool all_ok = true;
  for (long period : periods_ms) {
    rst::core::TestbedConfig config;
    config.seed = 9000 + static_cast<std::uint64_t>(period);
    config.message_handler.poll_period = rst::sim::SimTime::milliseconds(period);
    const auto summary = rst::core::run_emergency_brake_experiment(config, kRuns, threads);
    all_ok = all_ok && summary.failures == 0;
    std::printf("  %9ld   %16.1f   %10.1f   %10.1f   %9.1f\n", period,
                summary.obu_to_actuator_ms.mean(), summary.obu_to_actuator_ms.max(),
                summary.total_ms.mean(), summary.total_ms.max());
    if (period == 5) mean_at_5 = summary.obu_to_actuator_ms.mean();
    if (period == 100) mean_at_100 = summary.obu_to_actuator_ms.mean();
  }

  std::printf("\nExpectation: mean #4->#5 ~= poll/2 + handling; grows linearly with the period.\n");
  bool ok = all_ok;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  check("all runs stopped", all_ok);
  check("polling dominates: 100 ms poll costs >5x the 5 ms poll", mean_at_100 > 5.0 * mean_at_5);
  check("5 ms polling brings step 4->5 under 12 ms", mean_at_5 < 12.0);
  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed RST_THREADS stops the bench with a message instead of running it.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
