#pragma once

#include <optional>

#include "rst/its/facilities/ca_basic_service.hpp"
#include "rst/sim/trace.hpp"
#include "rst/vehicle/dynamics.hpp"

namespace rst::vehicle {

struct CaccConfig {
  /// Constant-time-gap policy: desired gap = standstill + headway * v.
  double standstill_gap_m{0.6};
  double headway_s{0.6};
  /// Gap-and-speed feedback gains.
  double gap_gain{1.2};
  double speed_gain{0.8};
  /// Throttle feed-forward around the rolling-resistance equilibrium.
  double cruise_throttle{0.05};
  sim::SimTime control_period{sim::SimTime::milliseconds(50)};
  /// If no CAM from the leader arrives for this long, fail safe: coast.
  sim::SimTime leader_timeout{sim::SimTime::milliseconds(1500)};
};

/// Cooperative Adaptive Cruise Control follower: regulates the gap to the
/// vehicle ahead using the predecessor's CAMs (position + speed) — the
/// control loop a connected platoon (paper §V future work) runs on top of
/// the awareness service. Longitudinal only; the platoon drives a straight
/// lane. Latches off permanently once the vehicle's power is cut.
class CaccController {
 public:
  using Config = CaccConfig;

  CaccController(sim::Scheduler& sched, VehicleDynamics& dynamics, Config config = {},
                 sim::Trace* trace = nullptr);
  CaccController(const CaccController&) = delete;
  CaccController& operator=(const CaccController&) = delete;

  void start();
  void stop();

  /// Feed of the predecessor's CAMs (wire to the OBU's CA callback).
  void on_leader_cam(const its::Cam& cam, geo::Vec2 leader_position);

  [[nodiscard]] bool leader_valid() const;
  [[nodiscard]] double current_gap_m() const;
  [[nodiscard]] std::uint64_t control_updates() const { return updates_; }

 private:
  void tick();

  sim::Scheduler& sched_;
  VehicleDynamics& dynamics_;
  Config config_;
  sim::Trace* trace_;

  struct LeaderState {
    geo::Vec2 position{};
    double speed_mps{0};
    sim::SimTime stamp{};
  };
  std::optional<LeaderState> leader_;
  sim::Timer timer_;
  std::uint64_t updates_{0};
};

}  // namespace rst::vehicle
