// Extension A11: hazard trigger policy — the paper's fixed Action-Point
// threshold vs kinematic collision prediction (closest point of approach
// against the CAM-known protagonist, "assess a potential collision from
// consulting the LDM", §III-A). Geometry: the camera watches the crossing
// road; the protagonist approaches the intersection on its own road and is
// known to the infrastructure only through its CAMs.

#include <cmath>
#include <cstdio>

#include "rst/core/testbed.hpp"

namespace {

using namespace rst;
using namespace rst::sim::literals;

struct Outcome {
  bool stopped{false};
  double trigger_time_s{0};
  double stop_distance_to_conflict_m{0};
  double min_separation_m{0};
};

Outcome run_mode(roadside::HazardTriggerMode mode, std::uint64_t seed, bool gnss = false,
                 double gnss_bias_sigma_m = 0.8) {
  core::TestbedConfig config;
  config.seed = seed;
  // Camera at the intersection, watching the crossing road (east).
  config.camera_position = {0, 8.0};
  config.camera_facing_rad = M_PI / 2;
  config.hazard.trigger_mode = mode;
  // In CPA mode widen the DENM destination around the conflict point.
  config.hazard.destination_radius_m = 150.0;
  config.use_gnss = gnss;
  config.gnss.initial_bias_sigma_m = gnss_bias_sigma_m;

  core::TestbedScenario scenario{config};
  // Crossing road user: reaches the camera's 1.52 m action point late, at
  // about the same time the protagonist reaches the intersection.
  scenario.add_road_user({7.8, 8.0}, 3 * M_PI / 2, 1.0, roadside::Presentation::StopSign);

  const auto r = scenario.run_emergency_brake_trial(20_s);
  Outcome out;
  out.stopped = scenario.dynamics().power_cut() && scenario.dynamics().stopped();
  const auto* trig = scenario.trace().find_event(sim::Stage::HazardDecision);
  out.trigger_time_s = trig ? trig->when.to_seconds() : -1.0;
  out.stop_distance_to_conflict_m = geo::distance(scenario.dynamics().position(), {0, 8.0});
  out.min_separation_m = scenario.min_separation_m();
  (void)r;
  return out;
}

}  // namespace

int main() {
  std::printf("Hazard trigger policy at a watched crossing (protagonist known via CAMs)\n\n");

  const Outcome action_point = run_mode(roadside::HazardTriggerMode::ActionPointDistance, 51);
  const Outcome cpa = run_mode(roadside::HazardTriggerMode::CpaPrediction, 51);

  const auto row = [](const char* name, const Outcome& o) {
    std::printf("  %-22s stopped=%-3s  DENM trigger at %5.2f s  stop margin %5.2f m  min sep %5.2f m\n",
                name, o.stopped ? "yes" : "NO", o.trigger_time_s, o.stop_distance_to_conflict_m,
                o.min_separation_m);
  };
  row("action-point (paper)", action_point);
  row("CPA prediction", cpa);

  // Robustness: the protagonist's CAMs now carry GNSS error instead of
  // ground truth — the prediction must still hold up.
  const Outcome cpa_gnss = run_mode(roadside::HazardTriggerMode::CpaPrediction, 51, true);
  row("CPA + GNSS positions", cpa_gnss);

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  std::printf("\n=== Shape checks ===\n");
  check("both policies stop the protagonist", action_point.stopped && cpa.stopped);
  check("CPA warns earlier than the fixed threshold",
        cpa.trigger_time_s > 0 && cpa.trigger_time_s < action_point.trigger_time_s - 0.5);
  check("earlier warning leaves a larger stopping margin",
        cpa.stop_distance_to_conflict_m > action_point.stop_distance_to_conflict_m + 0.3);
  check("both avoid an actual collision", action_point.min_separation_m > 0.55 &&
                                              cpa.min_separation_m > 0.55);
  check("CPA survives GNSS-grade position error",
        cpa_gnss.stopped && cpa_gnss.min_separation_m > 0.55);
  return ok ? 0 : 1;
}
