#include "rst/vehicle/line_detection.hpp"

#include <cmath>

namespace rst::vehicle {

LineCameraSensor::LineCameraSensor(sim::Scheduler& sched, VehicleBus& bus,
                                   const Track& track, const VehicleDynamics& vehicle,
                                   sim::RandomStream rng, Config config)
    : sched_{sched},
      bus_{bus},
      track_{track},
      vehicle_{vehicle},
      rng_{rng.child("line_camera")},
      config_{config},
      frame_timer_{sched, [this] { capture(); }} {}

void LineCameraSensor::start() {
  if (!frame_timer_.armed()) frame_timer_.arm_in(config_.frame_period);
}

void LineCameraSensor::capture() {
  ++frames_;

  LineDetection det;
  det.capture_time = sched_.now();
  const Track::Projection proj = track_.project(vehicle_.position());
  const double heading_err =
      std::remainder(vehicle_.heading_rad() - track_.heading_at(proj.arc_length), 2.0 * M_PI);

  if (std::abs(proj.lateral_offset) > config_.fov_half_width_m ||
      rng_.bernoulli(config_.dropout_probability)) {
    det.line_found = false;
  } else {
    det.lateral_offset_m = proj.lateral_offset + rng_.normal(0.0, config_.offset_noise_m);
    det.heading_error_rad = heading_err + rng_.normal(0.0, config_.heading_noise_rad);
  }

  const auto latency = rng_.normal_time(config_.processing_mean, config_.processing_sigma,
                                        config_.processing_min);
  sched_.post_in(latency, [this, det] { bus_.line_detection.publish(det); });

  frame_timer_.arm_in(config_.frame_period);
}

}  // namespace rst::vehicle
