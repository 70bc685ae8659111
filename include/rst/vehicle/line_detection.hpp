#pragma once

#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"
#include "rst/vehicle/dynamics.hpp"
#include "rst/vehicle/track.hpp"
#include "rst/vehicle/vehicle_bus.hpp"

namespace rst::vehicle {

struct LineCameraConfig {
  sim::SimTime frame_period{sim::SimTime::from_milliseconds(1000.0 / 30.0)};
  sim::SimTime processing_mean{sim::SimTime::milliseconds(18)};
  sim::SimTime processing_sigma{sim::SimTime::milliseconds(3)};
  sim::SimTime processing_min{sim::SimTime::milliseconds(8)};
  double offset_noise_m{0.004};
  double heading_noise_rad{0.01};
  /// Probability a frame yields no usable Hough lines.
  double dropout_probability{0.01};
  /// Lateral distance beyond which the line leaves the camera FOV.
  double fov_half_width_m{0.5};
};

/// Simulates the ZED-camera line-detection front end: frames are captured
/// at a fixed rate, processed for a latency drawn per frame, and published
/// as `LineDetection` messages on the bus topic `line_detection`.
class LineCameraSensor {
 public:
  using Config = LineCameraConfig;

  LineCameraSensor(sim::Scheduler& sched, VehicleBus& bus, const Track& track,
                   const VehicleDynamics& vehicle, sim::RandomStream rng, Config config = {});
  LineCameraSensor(const LineCameraSensor&) = delete;
  LineCameraSensor& operator=(const LineCameraSensor&) = delete;

  void start();

  [[nodiscard]] std::uint64_t frames_processed() const { return frames_; }

 private:
  void capture();

  sim::Scheduler& sched_;
  VehicleBus& bus_;
  const Track& track_;
  const VehicleDynamics& vehicle_;
  sim::RandomStream rng_;
  Config config_;
  sim::Timer frame_timer_;
  std::uint64_t frames_{0};
};

}  // namespace rst::vehicle
