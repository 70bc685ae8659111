#pragma once

#include <functional>
#include <vector>

#include "rst/dot11p/channel.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/trace.hpp"
#include "rst/vehicle/dynamics.hpp"
#include "rst/vehicle/vehicle_bus.hpp"

namespace rst::vehicle {

/// An object the LiDAR can return: a disc at a (possibly moving) position.
struct LidarTarget {
  std::function<geo::Vec2()> position;
  double radius_m{0.15};
};

struct ScanningLidarConfig {
  sim::SimTime scan_period{sim::SimTime::milliseconds(100)};  // Hokuyo ~10 Hz
  sim::SimTime processing_latency{sim::SimTime::milliseconds(3)};
  double fov_half_angle_rad{2.36};  // ~270 degrees total
  double max_range_m{8.0};
  double range_noise_sigma_m{0.01};
};

/// The Hokuyo scanning LiDAR of the paper's vehicle (Fig. 5 hardware
/// architecture). Returns ranges to registered targets, with occlusion by
/// the same wall segments that block the radio LOS — a physical wall stops
/// both light and RF, which is exactly the blind-corner problem.
class ScanningLidar {
 public:
  using Config = ScanningLidarConfig;

  ScanningLidar(sim::Scheduler& sched, VehicleBus& bus, const VehicleDynamics& vehicle,
                sim::RandomStream rng, Config config = {});
  ScanningLidar(const ScanningLidar&) = delete;
  ScanningLidar& operator=(const ScanningLidar&) = delete;

  void add_target(LidarTarget target);
  void set_walls(std::vector<dot11p::Wall> walls) { walls_ = std::move(walls); }

  void start();

  /// Synchronous scan (also used by the periodic loop).
  [[nodiscard]] LidarScan scan() const;

  [[nodiscard]] std::uint64_t scans_published() const { return scans_; }

 private:
  void tick();

  sim::Scheduler& sched_;
  VehicleBus& bus_;
  const VehicleDynamics& vehicle_;
  mutable sim::RandomStream rng_;
  Config config_;
  std::vector<LidarTarget> targets_;
  std::vector<dot11p::Wall> walls_;
  sim::Timer timer_;
  std::uint64_t scans_{0};
};

struct AebConfig {
  /// Deceleration the controller assumes the power-cut will deliver.
  double assumed_decel_mps2{2.2};
  /// Extra stopping margin in metres.
  double margin_m{0.35};
  /// Half-width of the corridor ahead that counts as collision-relevant.
  double corridor_half_width_m{0.35};
  /// Ignore returns behind or far to the side.
  double max_bearing_rad{1.2};
};

/// Automatic Emergency Braking from the on-board LiDAR: latches an
/// emergency stop when a return lies inside the braking envelope ahead.
/// This is the *in-car* system the paper's introduction says V2X must
/// complement — it cannot see around a blind corner.
class AebController {
 public:
  using Config = AebConfig;

  AebController(sim::Scheduler& sched, VehicleBus& bus, Config config = {},
                sim::Trace* trace = nullptr);

  void start() { running_ = true; }
  void stop() { running_ = false; }

  [[nodiscard]] bool triggered() const { return triggered_; }
  [[nodiscard]] std::uint64_t scans_evaluated() const { return scans_; }

 private:
  void on_scan(const LidarScan& scan);

  sim::Scheduler& sched_;
  VehicleBus& bus_;
  Config config_;
  sim::Trace* trace_;
  bool running_{false};
  bool triggered_{false};
  double speed_{0};
  std::uint64_t scans_{0};
};

}  // namespace rst::vehicle
