#pragma once

#include "rst/sim/scheduler.hpp"
#include "rst/sim/trace.hpp"
#include "rst/vehicle/pid.hpp"
#include "rst/vehicle/vehicle_bus.hpp"

namespace rst::vehicle {

struct MotionPlannerConfig {
  PidController::Gains steering_gains{.kp = 2.2, .ki = 0.0, .kd = 0.25};
  double max_steer_rad{0.35};
  /// Heading-error blend: effective error = offset + k_heading * sin(err).
  double heading_gain_m{0.35};
  double target_speed_mps{1.2};
  /// Speed cap while the liveness watchdog reports infrastructure contact
  /// lost (topic `watchdog`): creep slowly so the on-board sensors can
  /// still stop the vehicle within their short range.
  double failsafe_speed_mps{0.35};
  /// Simple proportional throttle to hold target speed.
  double speed_kp{1.5};
  /// Feed-forward throttle near the rolling-resistance equilibrium.
  double cruise_throttle{0.05};
};

/// The vehicle's Motion Planner: line following via a PID steering loop
/// plus the network-aided emergency-stop path of the paper — when a DENM
/// arrives (topic `v2x_emergency`), the planner latches a stop and sends a
/// power-cut DriveCommand to the control module.
class MotionPlanner {
 public:
  using Config = MotionPlannerConfig;

  MotionPlanner(sim::Scheduler& sched, VehicleBus& bus, Config config = {},
                sim::Trace* trace = nullptr);

  /// Latches an emergency stop (also reachable via the `v2x_emergency`
  /// and `emergency_stop` bus topics). Idempotent.
  void emergency_stop();

  [[nodiscard]] bool stopped() const { return emergency_latched_; }
  [[nodiscard]] std::uint64_t commands_sent() const { return commands_; }
  /// True while the planner holds the watchdog failsafe speed cap.
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  void on_line(const LineDetection& det);
  void on_odometry(const Odometry& odo);

  sim::Scheduler& sched_;
  VehicleBus& bus_;
  Config config_;
  sim::Trace* trace_;
  PidController steering_pid_;
  double current_speed_{0};
  sim::SimTime last_line_time_{};
  bool has_last_line_{false};
  bool emergency_latched_{false};
  bool degraded_{false};
  std::uint64_t commands_{0};
};

}  // namespace rst::vehicle
