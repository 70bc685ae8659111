// Intersection watch: the full Fig. 1 arrangement of the paper with the
// kinematic hazard assessment. The road-side camera monitors the crossing
// road; the ETSI-capable protagonist is known to the infrastructure only
// through its CAMs (LDM); when the CPA predictor flags a conflict between
// the camera-tracked road user and the protagonist, a DENM goes out and
// the protagonist brakes — long before any fixed distance threshold fires.

#include <cmath>
#include <cstdio>

#include "rst/core/testbed.hpp"
#include "rst/middleware/ascii_map.hpp"

namespace {

std::string render(rst::core::TestbedScenario& scenario, rst::geo::Vec2 user) {
  rst::middleware::AsciiMap map{{-2, -1}, {10, 11}, 61, 25};
  map.plot_line(scenario.config().track_start, scenario.config().track_end, '.');
  map.plot_line({0, 8}, {9.5, 8}, '-');  // the crossing road
  map.plot(scenario.config().camera_position, 'C');
  map.plot(user, 'u');
  map.plot(scenario.dynamics().position(), 'P');
  for (const auto& e : scenario.rsu().ldm().events()) map.plot(e.event_position, '!');
  map.legend('P', "protagonist (ETSI ITS, CAMs)");
  map.legend('u', "crossing road user (camera-tracked)");
  map.legend('!', "advertised DEN event (predicted conflict point)");
  map.legend('C', "camera (watching the crossing road, east)");
  return map.render();
}

}  // namespace

int main() {
  rst::core::TestbedConfig config;
  config.seed = 7;
  config.camera_position = {0, 8.0};
  config.camera_facing_rad = M_PI / 2;  // east, along the crossing road
  config.hazard.trigger_mode = rst::roadside::HazardTriggerMode::CpaPrediction;
  config.hazard.destination_radius_m = 150.0;

  rst::core::TestbedScenario scenario{config};
  scenario.add_road_user({7.8, 8.0}, 3 * M_PI / 2, 1.0, rst::roadside::Presentation::StopSign);
  scenario.start_services();

  auto& sched = scenario.scheduler();
  for (int second = 1; second <= 8; ++second) {
    sched.run_until(rst::sim::SimTime::seconds(second));
    const rst::geo::Vec2 user{7.8 - 1.0 * second, 8.0};
    if (second == 2 || second == 4 || second == 6) {
      std::printf("---- t = %d s ----\n%s\n", second, render(scenario, user).c_str());
    }
  }

  const auto* predicted = scenario.trace().find_event(rst::sim::Stage::HazardDecision);
  const auto* stopped = scenario.trace().find_event(rst::sim::Stage::PowerCutCommand);
  if (predicted && stopped) {
    std::printf("collision predicted at %s; protagonist power cut at %s\n",
                predicted->when.to_string().c_str(), stopped->when.to_string().c_str());
    std::printf("protagonist halted %.2f m short of the conflict point\n",
                rst::geo::distance(scenario.dynamics().position(), {0, 8.0}));
    return 0;
  }
  std::printf("no conflict was predicted (unexpected)\n");
  return 1;
}
