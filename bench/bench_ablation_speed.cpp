// Ablation A12: approach speed vs the fixed 1.52 m Action Point. The
// paper's margin analysis in physical terms: the vehicle travels
// v * (detection + chain latency) before power-cut and then coasts
// v^2 / 2a — at some approach speed the 1.52 m budget no longer suffices
// and the vehicle overruns the camera position. This bench finds that
// operational envelope.

#include <cstdio>
#include <stdexcept>

#include "rst/core/experiment.hpp"

int main() try {
  const unsigned threads = rst::core::experiment_threads_from_env();
  constexpr int kRuns = 20;
  const double speeds[] = {0.8, 1.2, 1.6, 2.0, 2.4};

  std::printf("Approach speed vs stopping margin (action point 1.52 m, %d runs each)\n\n", kRuns);
  std::printf("  speed (m/s)  braking dist (m)  stop margin to camera (m)  overruns\n");

  double margin_at_12 = 0;
  double margin_at_24 = 0;
  int overruns_at_08 = 0;
  int overruns_at_24 = 0;
  for (double speed : speeds) {
    rst::core::TestbedConfig config;
    config.seed = 13000 + static_cast<std::uint64_t>(speed * 10);
    config.planner.target_speed_mps = speed;
    const auto summary = rst::core::run_emergency_brake_experiment(config, kRuns, threads);
    rst::sim::RunningStats margin;
    int overruns = 0;
    for (const auto& t : summary.trials) {
      if (!t.stopped_by_denm) {
        ++overruns;
        continue;
      }
      margin.add(t.stop_distance_to_camera_m);
      if (t.stop_distance_to_camera_m <= 0.05) ++overruns;  // reached the camera
    }
    overruns += static_cast<int>(summary.failures);
    std::printf("  %10.1f  %16.3f  %25.3f  %7d/%d\n", speed,
                summary.braking_distance_m.count() ? summary.braking_distance_m.mean() : 0.0,
                margin.count() ? margin.mean() : 0.0, overruns, kRuns);
    if (speed == 1.2) margin_at_12 = margin.mean();
    if (speed == 2.4) {
      margin_at_24 = margin.count() ? margin.mean() : 0.0;
      overruns_at_24 = overruns;
    }
    if (speed == 0.8) overruns_at_08 = overruns;
  }

  std::printf("\nKinematic budget: margin ~ action_point - v*(t_frame + t_chain) - v^2/2a.\n");
  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  check("paper's operating point (1.2 m/s) stops with healthy margin", margin_at_12 > 0.4);
  check("slow approach never overruns", overruns_at_08 == 0);
  check("fast approach (2.4 m/s) erodes or breaks the margin",
        margin_at_24 < margin_at_12 || overruns_at_24 > 0);
  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed RST_THREADS stops the bench with a message instead of running it.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
