// Ablation A2: the edge node's ~4 FPS YOLO loop quantises the action-point
// crossing ("a small error margin on detection exists", paper §IV-A1).
// Sweeping the processing rate shows the margin shrink and the braking
// distance tighten.

#include <cstdio>
#include <stdexcept>

#include "rst/core/experiment.hpp"

int main() try {
  const unsigned threads = rst::core::experiment_threads_from_env();
  const long periods_ms[] = {100, 250, 500, 1000};  // 10, 4, 2, 1 FPS
  constexpr int kRuns = 25;

  std::printf("Ablation: detection-loop rate vs detection margin & braking distance (%d runs)\n\n",
              kRuns);
  std::printf("  FPS    margin mean (m)  margin max   braking mean (m)  missed stops\n");

  double margin_at_4fps = 0;
  double margin_at_10fps = 0;
  std::size_t failures_at_4fps = 1;
  std::size_t failures_at_1fps = 0;
  for (long period : periods_ms) {
    rst::core::TestbedConfig config;
    config.seed = 11000 + static_cast<std::uint64_t>(period);
    config.detection.processing_period = rst::sim::SimTime::milliseconds(period);
    const auto summary = rst::core::run_emergency_brake_experiment(config, kRuns, threads);
    rst::sim::RunningStats margin;
    for (const auto& t : summary.trials) {
      if (t.stopped_by_denm) {
        margin.add(config.hazard.action_point_distance_m - t.detection_distance_m);
      }
    }
    std::printf("  %4.1f   %15.3f  %10.3f   %16.3f  %7zu / %d\n", 1000.0 / period, margin.mean(),
                margin.max(), summary.braking_distance_m.mean(), summary.failures, kRuns);
    if (period == 250) {
      margin_at_4fps = margin.mean();
      failures_at_4fps = summary.failures;
    }
    if (period == 100) margin_at_10fps = margin.mean();
    if (period == 1000) failures_at_1fps = summary.failures;
  }

  std::printf("\nAt 1-2 FPS the car can cross the whole 1.52 m -> 0.75 m detection window\n");
  std::printf("between processed frames: missed stops are a genuine failure mode, which is\n");
  std::printf("why the paper's ~4 FPS loop (with the 1.73 m min-range default as backstop)\n");
  std::printf("is the minimum viable rate at this approach speed.\n\n");

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  check("paper's 4 FPS rate misses no stops", failures_at_4fps == 0);
  check("higher FPS shrinks the detection margin", margin_at_10fps < margin_at_4fps);
  std::printf("  [info] 1 FPS missed %zu of %d stops\n", failures_at_1fps, kRuns);
  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed RST_THREADS stops the bench with a message instead of running it.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
