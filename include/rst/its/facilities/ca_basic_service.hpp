#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <span>

#include "rst/its/facilities/ldm.hpp"
#include "rst/its/messages/cam.hpp"
#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/sim/trace.hpp"

namespace rst::its {

/// Snapshot of the originating station handed to the CA service on every
/// generation check.
struct CaVehicleData {
  geo::Vec2 position{};
  double heading_rad{0};
  double speed_mps{0};
  double longitudinal_accel_mps2{0};
  DriveDirection drive_direction{DriveDirection::Forward};
};

/// CA basic service configuration (EN 302 637-2 §6.1.3 generation rules).
struct CaConfig {
  sim::SimTime t_gen_cam_min{sim::SimTime::milliseconds(100)};
  sim::SimTime t_gen_cam_max{sim::SimTime::milliseconds(1000)};
  /// Number of consecutive dynamics-triggered CAMs that keep the reduced
  /// T_GenCam before it relaxes back to t_gen_cam_max (N_GenCam).
  int n_gen_cam{3};
  double heading_delta_deg{4.0};
  double position_delta_m{4.0};
  double speed_delta_mps{0.5};
  StationType station_type{StationType::PassengerCar};
  double vehicle_length_m{0.53};  // paper: the 1/10-scale car measures ~53 cm
  double vehicle_width_m{0.30};
  /// The low-frequency container (exterior lights + path history) is
  /// attached at most once per this interval (EN 302 637-2 §6.1.3: 500 ms).
  sim::SimTime lf_container_interval{sim::SimTime::milliseconds(500)};
  /// Minimum travelled distance between recorded path-history points.
  double path_point_spacing_m{1.0};
  std::size_t max_path_points{23};  // EN 302 637-2 recommends ~23 for CAMs
};

/// Cooperative Awareness basic service: cyclic CAM generation following the
/// standard's dynamics-based trigger rules, single-hop broadcast transport,
/// and reception into the LDM.
class CaBasicService {
 public:
  using VehicleDataProvider = std::function<CaVehicleData()>;
  using CamCallback = std::function<void(const Cam&, const GnDeliveryMeta&)>;

  CaBasicService(sim::Scheduler& sched, GeoNetRouter& router, StationId station_id,
                 VehicleDataProvider provider, CaConfig config, Ldm* ldm = nullptr,
                 sim::Trace* trace = nullptr);

  /// Begins periodic generation. Idempotent.
  void start();

  /// Feed of BTP payloads arriving on port 2001 (wired by the station).
  void on_btp_payload(std::span<const std::uint8_t> cam_bytes, const GnDeliveryMeta& meta);

  void set_cam_callback(CamCallback cb) { cam_cb_ = std::move(cb); }

  /// Builds the CAM that would be sent right now (exposed for tests).
  /// `include_lf` attaches the low-frequency container.
  [[nodiscard]] Cam build_cam(bool include_lf = false) const;

  struct Stats {
    std::uint64_t cams_sent{0};
    std::uint64_t cams_received{0};
    std::uint64_t decode_errors{0};
    std::uint64_t dynamics_triggers{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] sim::SimTime current_t_gen_cam() const { return t_gen_cam_; }

 private:
  void check_generation();
  void send_cam(const CaVehicleData& data);

  sim::Scheduler& sched_;
  GeoNetRouter& router_;
  StationId station_id_;
  VehicleDataProvider provider_;
  CaConfig config_;
  Ldm* ldm_;
  sim::Trace* trace_;

  sim::Timer check_timer_;
  sim::SimTime t_gen_cam_;
  int dynamic_cam_countdown_{0};
  std::optional<CaVehicleData> last_sent_;
  sim::SimTime last_sent_time_{};
  sim::SimTime last_lf_time_{-sim::SimTime::seconds(3600)};
  /// Recent ego positions for the path-history DF (most recent first).
  std::deque<geo::Vec2> path_points_;
  CamCallback cam_cb_;
  Stats stats_;
};

}  // namespace rst::its
