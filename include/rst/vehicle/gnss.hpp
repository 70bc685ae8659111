#pragma once

#include "rst/geo/vec2.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"
#include "rst/vehicle/dynamics.hpp"

namespace rst::sim {
class FaultInjector;
}

namespace rst::vehicle {

struct GnssConfig {
  sim::SimTime fix_period{sim::SimTime::milliseconds(100)};  // 10 Hz receiver
  /// White noise per fix.
  double noise_sigma_m{0.35};
  /// Slowly wandering bias (multipath/atmospheric), random walk per fix.
  double bias_walk_sigma_m{0.02};
  double initial_bias_sigma_m{0.8};
  /// Bias magnitude is softly bounded by pulling it back towards zero.
  double bias_decay{0.01};
};

/// GNSS receiver for the OBU's position source: the true pose corrupted by
/// a random-walk bias plus per-fix noise, sampled at the receiver rate.
/// Everything the ETSI stack advertises (CAM reference positions, GN
/// position vectors) can be routed through this instead of ground truth.
class GnssReceiver {
 public:
  using Config = GnssConfig;

  GnssReceiver(sim::Scheduler& sched, const VehicleDynamics& vehicle, sim::RandomStream rng,
               Config config = {});
  GnssReceiver(const GnssReceiver&) = delete;
  GnssReceiver& operator=(const GnssReceiver&) = delete;

  void start();

  /// Latest fix (the value an application polling the receiver sees).
  [[nodiscard]] geo::Vec2 position() const { return last_fix_; }
  [[nodiscard]] sim::SimTime last_fix_time() const { return last_fix_time_; }
  [[nodiscard]] std::uint64_t fixes() const { return fixes_; }
  /// Current total error vs ground truth (for instrumentation/tests).
  [[nodiscard]] double error_m() const { return geo::distance(last_fix_, vehicle_.position()); }

  /// Subscribes the receiver to a fault plan (injection point "gnss"):
  /// during a GnssDrift window the bias ramps at `severity` m/s along a
  /// direction drawn once per activation from the injector's stream.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

 private:
  void tick();

  sim::Scheduler& sched_;
  const VehicleDynamics& vehicle_;
  sim::RandomStream rng_;
  Config config_;
  sim::FaultInjector* faults_{nullptr};
  geo::Vec2 drift_direction_{};
  bool drifting_{false};
  geo::Vec2 bias_{};
  geo::Vec2 last_fix_{};
  sim::SimTime last_fix_time_{};
  sim::Timer timer_;
  std::uint64_t fixes_{0};
};

}  // namespace rst::vehicle
