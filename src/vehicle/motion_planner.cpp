#include "rst/vehicle/motion_planner.hpp"

#include <algorithm>
#include <cmath>

namespace rst::vehicle {

MotionPlanner::MotionPlanner(sim::Scheduler& sched, VehicleBus& bus, Config config,
                             sim::Trace* trace)
    : sched_{sched},
      bus_{bus},
      config_{config},
      trace_{trace},
      steering_pid_{config.steering_gains, -config.max_steer_rad, config.max_steer_rad} {
  bus_.line_detection.subscribe([this](const LineDetection& det) { on_line(det); });
  bus_.odometry.subscribe([this](const Odometry& odo) { on_odometry(odo); });
  bus_.v2x_emergency.subscribe([this](const EmergencyStop&) { emergency_stop(); });
  // Local (non-V2X) emergencies, e.g. the on-board AEB.
  bus_.emergency_stop.subscribe([this](const EmergencyStop&) { emergency_stop(); });
  bus_.watchdog.subscribe([this](const WatchdogState& state) { degraded_ = state.degraded; });
}

void MotionPlanner::on_odometry(const Odometry& odo) { current_speed_ = odo.speed_mps; }

void MotionPlanner::on_line(const LineDetection& det) {
  if (emergency_latched_) return;
  double dt = 1.0 / 30.0;
  if (has_last_line_) {
    dt = std::max(1e-3, (sched_.now() - last_line_time_).to_seconds());
  }
  last_line_time_ = sched_.now();
  has_last_line_ = true;

  DriveCommand cmd;
  if (det.line_found) {
    // Positive offset = vehicle left of the line = steer right (positive);
    // the heading term damps the correction once the car rotates towards
    // the line (Stanley-style error blend).
    const double error =
        det.lateral_offset_m - config_.heading_gain_m * std::sin(det.heading_error_rad);
    cmd.steering_rad = steering_pid_.update(error, dt);
  } else {
    cmd.steering_rad = 0.0;  // hold course until the line reappears
  }
  const double target = degraded_ ? std::min(config_.target_speed_mps, config_.failsafe_speed_mps)
                                  : config_.target_speed_mps;
  const double speed_error = target - current_speed_;
  cmd.throttle01 = std::clamp(config_.cruise_throttle + config_.speed_kp * speed_error, 0.0, 1.0);
  ++commands_;
  bus_.drive_cmd.publish(cmd);
}

void MotionPlanner::emergency_stop() {
  if (emergency_latched_) return;
  emergency_latched_ = true;
  if (trace_) trace_->record_event(sched_.now(), sim::Stage::EmergencyStop);
  DriveCommand cmd;
  cmd.power_cut = true;
  ++commands_;
  bus_.drive_cmd.publish(cmd);
}

}  // namespace rst::vehicle
