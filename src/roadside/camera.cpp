#include "rst/roadside/camera.hpp"

#include <algorithm>
#include <cmath>

#include "rst/sim/fault_plan.hpp"

namespace rst::roadside {

RoadsideCamera::RoadsideCamera(sim::Scheduler& sched, Config config)
    : sched_{sched}, config_{config} {}

void RoadsideCamera::add_object(CameraObject object) { objects_.push_back(std::move(object)); }

void RoadsideCamera::capture(CameraFrame& frame) {
  frame.capture_time = sched_.now();
  frame.frame_number = ++frame_counter_;
  frame.objects.clear();
  if (faults_) {
    // Drop beats freeze when both windows overlap: a sensor that returns
    // nothing is strictly worse than one that returns stale data.
    if (faults_->active(sim::FaultKind::CameraDrop, "camera") &&
        faults_->draw_bernoulli(sim::FaultKind::CameraDrop,
                                faults_->severity(sim::FaultKind::CameraDrop, "camera"))) {
      ++stats_.frames_dropped;
      return;
    }
    if (faults_->active(sim::FaultKind::CameraFreeze, "camera")) {
      // Replay the last live frame's content under a fresh frame number and
      // timestamp (the sensor still paces; the image is stuck).
      ++stats_.frames_frozen;
      frame.objects = last_objects_;
      return;
    }
  }
  for (const auto& obj : objects_) {
    const geo::Vec2 rel = obj.position() - config_.position;
    const double distance = rel.norm();
    if (distance > config_.max_range_m || distance < 1e-6) continue;
    const double bearing =
        std::remainder(geo::heading_from_vector(rel) - config_.facing_rad, 2.0 * M_PI);
    if (std::abs(bearing) > config_.fov_half_angle_rad) continue;
    const geo::Vec2 target = obj.position();
    const bool occluded = std::ranges::any_of(walls_, [&](const dot11p::Wall& w) {
      return dot11p::segments_intersect(config_.position, target, w.a, w.b);
    });
    if (occluded) continue;
    frame.objects.push_back({obj.id, distance, bearing, obj.presentation});
  }
  if (faults_) last_objects_ = frame.objects;
}

}  // namespace rst::roadside
