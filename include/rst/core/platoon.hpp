#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "rst/cellular/cellular_link.hpp"
#include "rst/core/its_station.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/vehicle/cacc.hpp"
#include "rst/vehicle/dynamics.hpp"
#include "rst/vehicle/message_handler.hpp"

namespace rst::core {

/// Configuration of the platoon extension (paper §V: "extend the testbed to
/// support connected platoons … and evaluate the detection-to-action delay
/// for the entire platoon", including the multi-technology arrangement
/// where "the platoon leader is 5G-capable while intra-platoon message
/// forwarding is based on IEEE 802.11p").
struct PlatoonConfig {
  std::uint64_t seed{1};
  int n_vehicles{4};
  double spacing_m{1.2};
  double speed_mps{1.2};
  vehicle::VehicleParams vehicle_params{};
  /// OBU polling period of each vehicle's stop logic.
  sim::SimTime poll_period{sim::SimTime::milliseconds(50)};
  /// When true, followers regulate their gap with CACC fed by the
  /// predecessor's CAMs (instead of independent cruise control).
  bool use_cacc{false};
  vehicle::CaccConfig cacc{};

  /// When true the RSU reaches only the leader, over a cellular link; the
  /// leader re-advertises the event on 802.11p for the rest of the platoon.
  bool leader_uses_cellular{false};
  cellular::CellularConfig cellular{};

  /// Radio parameters; lower tx power forces multi-hop GeoNetworking
  /// forwarding down the platoon.
  dot11p::RadioConfig radio{};
  double path_loss_exponent{2.1};
  double shadowing_sigma_db{2.0};

  /// DENM repetition by the originator.
  std::optional<sim::SimTime> denm_repetition{sim::SimTime::milliseconds(100)};
  geo::GeoPosition origin{41.1780, -8.6080};
  geo::Vec2 rsu_position{2.0, 10.0};
};

/// Per-vehicle outcome of a platoon emergency-stop run.
struct PlatoonVehicleResult {
  int index{0};
  bool stopped{false};
  /// Event-detection (trigger) to power-cut-command latency.
  double detection_to_action_ms{0};
};

struct PlatoonResult {
  std::vector<PlatoonVehicleResult> vehicles;
  /// Detection-to-action of the slowest vehicle (the platoon-level metric).
  double worst_detection_to_action_ms{0};
  bool all_stopped{false};
  /// Smallest bumper-to-bumper gap between adjacent vehicles observed
  /// during the stop; negative means a rear-end collision occurred.
  double min_gap_m{0};
};


/// A line of connected scale vehicles cruising behind a leader; at a
/// configurable instant the road-side infrastructure advertises an
/// emergency event and every vehicle must brake. Exercises DENM
/// repetition, GeoBroadcast forwarding (with reduced radio range) and the
/// mixed 5G-leader / 802.11p-followers arrangement.
class PlatoonScenario {
 public:
  explicit PlatoonScenario(PlatoonConfig config);
  PlatoonScenario(const PlatoonScenario&) = delete;
  PlatoonScenario& operator=(const PlatoonScenario&) = delete;

  /// Runs the scenario: cruise for `warmup`, trigger the event, then run
  /// until all vehicles halted or `timeout` elapses.
  PlatoonResult run_emergency_stop(sim::SimTime warmup = sim::SimTime::seconds(2),
                                   sim::SimTime timeout = sim::SimTime::seconds(10));

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] ItsStation& rsu() { return *rsu_; }
  [[nodiscard]] ItsStation& vehicle_obu(int i) { return *units_.at(i)->obu; }
  [[nodiscard]] vehicle::VehicleDynamics& vehicle_dynamics(int i) {
    return *units_.at(i)->dynamics;
  }
  [[nodiscard]] int size() const { return static_cast<int>(units_.size()); }

 private:
  struct Unit {
    std::unique_ptr<vehicle::VehicleDynamics> dynamics;
    std::unique_ptr<vehicle::VehicleBus> bus;
    std::unique_ptr<vehicle::MessageHandler> handler;
    std::unique_ptr<ItsStation> obu;
    std::unique_ptr<vehicle::CaccController> cacc;
    std::unique_ptr<sim::Timer> cruise_timer;
    sim::SimTime power_cut_at{};
    bool power_cut{false};
  };

  void cruise_tick(Unit& unit);

  PlatoonConfig config_;
  sim::Scheduler sched_;
  sim::Trace trace_;
  sim::RandomStream rng_;
  geo::LocalFrame frame_;
  std::unique_ptr<dot11p::Medium> medium_;
  std::unique_ptr<middleware::HttpLan> lan_;
  std::unique_ptr<cellular::CellularNetwork> cellular_;
  std::unique_ptr<ItsStation> rsu_;
  std::vector<std::unique_ptr<Unit>> units_;
};

}  // namespace rst::core
