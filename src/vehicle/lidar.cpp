#include "rst/vehicle/lidar.hpp"

#include <algorithm>
#include <cmath>

namespace rst::vehicle {

ScanningLidar::ScanningLidar(sim::Scheduler& sched, VehicleBus& bus,
                             const VehicleDynamics& vehicle, sim::RandomStream rng, Config config)
    : sched_{sched},
      bus_{bus},
      vehicle_{vehicle},
      rng_{rng.child("lidar")},
      config_{config},
      timer_{sched, [this] { tick(); }} {}

void ScanningLidar::add_target(LidarTarget target) { targets_.push_back(std::move(target)); }

void ScanningLidar::start() {
  if (!timer_.armed()) timer_.arm_in(config_.scan_period);
}

LidarScan ScanningLidar::scan() const {
  LidarScan out;
  out.capture_time = sched_.now();
  const geo::Vec2 own = vehicle_.position();
  const double heading = vehicle_.heading_rad();

  for (const auto& target : targets_) {
    const geo::Vec2 pos = target.position();
    const geo::Vec2 rel = pos - own;
    const double distance = rel.norm();
    if (distance < 1e-6 || distance - target.radius_m > config_.max_range_m) continue;
    const double bearing = std::remainder(geo::heading_from_vector(rel) - heading, 2.0 * M_PI);
    if (std::abs(bearing) > config_.fov_half_angle_rad) continue;
    // Occlusion: a wall between the sensor and the target blocks the ray.
    const bool occluded = std::ranges::any_of(walls_, [&](const dot11p::Wall& w) {
      return dot11p::segments_intersect(own, pos, w.a, w.b);
    });
    if (occluded) continue;
    LidarDetection det;
    det.range_m = std::max(0.0, distance - target.radius_m +
                                    rng_.normal(0.0, config_.range_noise_sigma_m));
    det.bearing_rad = bearing;
    out.detections.push_back(det);
  }
  return out;
}

void ScanningLidar::tick() {
  const LidarScan result = scan();
  ++scans_;
  sched_.post_in(config_.processing_latency,
                 [this, result] { bus_.lidar_scan.publish(result); });
  timer_.arm_in(config_.scan_period);
}

AebController::AebController(sim::Scheduler& sched, VehicleBus& bus, Config config,
                             sim::Trace* trace)
    : sched_{sched}, bus_{bus}, config_{config}, trace_{trace} {
  bus_.lidar_scan.subscribe([this](const LidarScan& scan) { on_scan(scan); });
  bus_.odometry.subscribe([this](const Odometry& odo) { speed_ = odo.speed_mps; });
}

void AebController::on_scan(const LidarScan& scan) {
  if (!running_ || triggered_) return;
  ++scans_;
  const double stopping =
      speed_ * speed_ / (2.0 * config_.assumed_decel_mps2) + config_.margin_m;
  for (const auto& det : scan.detections) {
    if (std::abs(det.bearing_rad) > config_.max_bearing_rad) continue;
    const double forward = det.range_m * std::cos(det.bearing_rad);
    const double lateral = det.range_m * std::sin(det.bearing_rad);
    if (forward < 0 || std::abs(lateral) > config_.corridor_half_width_m) continue;
    if (forward <= stopping) {
      triggered_ = true;
      if (trace_) {
        trace_->record_event(sched_.now(), sim::Stage::AebTrigger, 0, 0, forward);
      }
      bus_.emergency_stop.publish(EmergencyStop{});
      return;
    }
  }
}

}  // namespace rst::vehicle
