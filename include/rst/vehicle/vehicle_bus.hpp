#pragma once

#include <vector>

#include "rst/geo/vec2.hpp"
#include "rst/middleware/message_bus.hpp"
#include "rst/sim/time.hpp"

namespace rst::vehicle {

/// Output of the on-board line-detection pipeline (ZED frame -> Canny ->
/// region filter -> probabilistic Hough transform in the paper; here the
/// geometric result of that pipeline, observed with sensor noise).
struct LineDetection {
  double lateral_offset_m{0};   ///< signed offset of the vehicle from the line
  double heading_error_rad{0};  ///< vehicle heading minus line tangent
  bool line_found{true};
  sim::SimTime capture_time{};
};

/// Odometry sample published by the control module.
struct Odometry {
  double speed_mps{0};
  geo::Vec2 position{};
  double heading_rad{0};
};

/// Command from the Motion Planner to the Control module (the ROS topic
/// between the Jetson's planner node and the Teensy bridge).
struct DriveCommand {
  double steering_rad{0};
  double throttle01{0};
  /// True triggers the ESC power interruption (emergency stop).
  bool power_cut{false};
};

/// Request to latch the planner's emergency stop.
struct EmergencyStop {};

/// Degradation state broadcast by the liveness watchdog.
struct WatchdogState {
  bool degraded{false};
};

/// One return from the scanning LiDAR, in the vehicle frame.
struct LidarDetection {
  double range_m{0};
  double bearing_rad{0};  ///< relative to the vehicle heading, + = clockwise
};

/// A full scan published on the bus topic `lidar_scan`.
struct LidarScan {
  sim::SimTime capture_time{};
  std::vector<LidarDetection> detections;
};

/// The Jetson's ROS topics, one member per topic.
struct VehicleBus : middleware::MessageBus {
  using MessageBus::MessageBus;

  middleware::Topic<LineDetection> line_detection{*this};  ///< line camera -> planner
  middleware::Topic<Odometry> odometry{*this};             ///< control -> planner, AEB
  middleware::Topic<DriveCommand> drive_cmd{*this};        ///< planner -> control
  middleware::Topic<EmergencyStop> v2x_emergency{*this};   ///< DENM/cellular/CPM -> planner
  middleware::Topic<EmergencyStop> emergency_stop{*this};  ///< AEB -> planner
  middleware::Topic<WatchdogState> watchdog{*this};        ///< handler -> planner, testbed
  middleware::Topic<LidarScan> lidar_scan{*this};          ///< LiDAR -> AEB
};

}  // namespace rst::vehicle
