// Quickstart: assemble the default scale testbed, run one emergency-braking
// trial and print the step-by-step latency breakdown (the measurement chain
// of the paper's Fig. 4).
//
// Build & run:  ./examples/quickstart [seed]

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "rst/core/config_io.hpp"
#include "rst/core/testbed.hpp"

int main(int argc, char** argv) {
  rst::core::TestbedConfig config;
  config.seed = 1;
  try {
    if (argc > 2) throw std::invalid_argument{"too many arguments"};
    if (argc == 2) {
      config.seed = static_cast<std::uint64_t>(rst::core::parse_spec_int_in(
          argv[1], "seed", 0, std::numeric_limits<std::int64_t>::max()));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\nusage: %s [seed]   (seed >= 0; default 1)\n", e.what(), argv[0]);
    return 2;
  }

  rst::core::TestbedScenario scenario{config};
  scenario.trace().set_echo(true);  // watch the chain unfold

  std::printf("=== Emergency-braking trial (seed %llu) ===\n",
              static_cast<unsigned long long>(config.seed));
  const rst::core::TrialResult r = scenario.run_emergency_brake_trial();

  if (!r.stopped_by_denm) {
    std::printf("Trial failed: the vehicle did not stop via DENM.\n");
    return 1;
  }

  std::printf("\n--- Step instants (simulation clock) ---\n");
  std::printf("  step 1  action point crossed       %s\n", r.t_cross_actual.to_string().c_str());
  std::printf("  step 2  YOLO detection output      %s\n", r.t_detection.to_string().c_str());
  std::printf("  step 3  RSU sends DENM             %s\n", r.t_rsu_send.to_string().c_str());
  std::printf("  step 4  OBU receives DENM          %s\n", r.t_obu_receive.to_string().c_str());
  std::printf("  step 5  power-cut commanded        %s\n", r.t_power_cut.to_string().c_str());
  std::printf("  step 6  vehicle at standstill      %s\n", r.t_halt.to_string().c_str());

  std::printf("\n--- NTP-measured intervals (what the paper's Table II reports) ---\n");
  std::printf("  detection -> RSU DENM     %6.1f ms   (paper avg 27.6)\n", r.meas_detection_to_rsu_ms);
  std::printf("  RSU DENM  -> OBU          %6.1f ms   (paper avg  1.6)\n", r.meas_rsu_to_obu_ms);
  std::printf("  OBU       -> actuators    %6.1f ms   (paper avg 29.2)\n", r.meas_obu_to_actuator_ms);
  std::printf("  total detection->action   %6.1f ms   (paper avg 58.4, always < 100)\n",
              r.meas_total_ms);

  std::printf("\n--- Braking (paper Table III) ---\n");
  std::printf("  braking distance          %6.2f m    (paper avg 0.36)\n", r.braking_distance_m);
  std::printf("  final distance to camera  %6.2f m\n", r.stop_distance_to_camera_m);
  return 0;
}
