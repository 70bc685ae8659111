#pragma once

#include <map>
#include <memory>
#include <vector>

#include "rst/cellular/cellular_link.hpp"
#include "rst/core/its_station.hpp"
#include "rst/dot11p/channel.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/roadside/hazard_service.hpp"
#include "rst/sim/fault_plan.hpp"
#include "rst/sim/metrics.hpp"
#include "rst/roadside/object_detection_service.hpp"
#include "rst/vehicle/control_module.hpp"
#include "rst/vehicle/dynamics.hpp"
#include "rst/vehicle/line_detection.hpp"
#include "rst/vehicle/gnss.hpp"
#include "rst/vehicle/lidar.hpp"
#include "rst/vehicle/message_handler.hpp"
#include "rst/vehicle/motion_planner.hpp"
#include "rst/vehicle/track.hpp"

namespace rst::core {

/// Which bearer carries the warning from the RSU to the vehicle. ItsG5 is
/// the paper's deployment (802.11p broadcast + OBU polling); the cellular
/// options realise the §V future-work comparison ("installing a 5G module
/// in the robotic vehicles, to compare the same detection-to-action delay
/// over a different interface and network") — push-based delivery to a
/// 5G modem on the vehicle, no HTTP polling loop.
enum class WarningPath : std::uint8_t { ItsG5, CellularEmbb, CellularUrllc };

/// Full configuration of the scale testbed (Fig. 8 of the paper): geometry,
/// vehicle, road-side infrastructure, ITS stations and channel.
struct TestbedConfig {
  std::uint64_t seed{1};
  WarningPath warning_path{WarningPath::ItsG5};
  /// Deterministic fault-injection schedule. Empty (the default) means no
  /// injector is constructed at all: every component hook is a strict
  /// no-op and the simulation is byte-identical to a build without the
  /// subsystem. Clauses parse from config files via `fault = ...` lines.
  sim::FaultPlan fault_plan{};

  // --- Geometry (local east-north metres) ---
  geo::GeoPosition origin{41.1780, -8.6080};  // the lab's anchor coordinate
  geo::Vec2 track_start{0, 0};
  geo::Vec2 track_end{0, 10};
  geo::Vec2 vehicle_start{0, 0.5};
  geo::Vec2 camera_position{0, 8.0};
  double camera_facing_rad{M_PI};  // facing south, towards the inbound car
  geo::Vec2 rsu_position{0.5, 8.0};

  // --- Vehicle side ---
  vehicle::VehicleParams vehicle_params{};
  vehicle::MotionPlanner::Config planner{};
  vehicle::LineCameraSensor::Config line_sensor{};
  vehicle::ControlModule::Config control{};
  vehicle::MessageHandler::Config message_handler{};
  roadside::Presentation presentation{roadside::Presentation::StopSign};
  /// On-board sensing: the Hokuyo LiDAR + AEB fallback (off by default to
  /// isolate the network-aided chain, as in the paper's measurements).
  bool enable_lidar_aeb{false};
  vehicle::ScanningLidarConfig lidar{};
  vehicle::AebConfig aeb{};
  /// Route the OBU's advertised positions (CAM reference position, GN
  /// position vectors) through a GNSS receiver model instead of ground
  /// truth — what a real deployment would do.
  bool use_gnss{false};
  vehicle::GnssConfig gnss{};

  // --- Road side ---
  roadside::RoadsideCamera::Config camera{};  // position/facing overridden
  roadside::YoloSimulator::Config yolo{};
  roadside::ObjectDetectionService::Config detection{};
  roadside::HazardAdvertisementService::Config hazard{};

  // --- ITS stations ---
  ItsStationConfig obu{.station_id = 42,
                       .station_type = its::StationType::PassengerCar,
                       .name = "obu"};
  ItsStationConfig rsu{.station_id = 900,
                       .station_type = its::StationType::RoadSideUnit,
                       .name = "rsu"};
  bool enable_cam{true};

  // --- Collective Perception (ETSI CPM, TS 103 324 style) ---
  /// Both stations publish their LDM percepts as CPMs and fuse remote
  /// ones: the RSU's detection stream feeds its LDM continuously and the
  /// OBU runs the collision predictor on every fused percept. Opt-in; off
  /// (the default) keeps every artifact byte-identical to a CPM-less run.
  bool cpm_enable{false};
  sim::SimTime cpm_interval{sim::SimTime::milliseconds(250)};
  sim::SimTime cpm_object_lifetime{sim::SimTime::milliseconds(1500)};
  sim::SimTime cpm_redundancy_window{sim::SimTime::milliseconds(500)};

  // --- Radio channel ---
  double path_loss_exponent{2.1};
  double shadowing_sigma_db{2.0};
  std::vector<dot11p::Wall> walls{};
  /// Ray-index the walls (geo::ObstacleGrid); off keeps the brute-force
  /// wall scan. Results are bit-identical either way.
  bool obstacle_index{true};

  // --- Medium range (see README "Scaling the medium") ---
  /// Link budget (dBm) below which a link is out of range.
  double medium_power_floor_dbm{-110.0};

  // --- Wired middleware ---
  middleware::HttpLan::Config lan{};
  middleware::NtpClock::Config edge_ntp{};
  middleware::NtpClock::Config jetson_ntp{};

  /// Throws std::invalid_argument naming the offending field when the
  /// configuration cannot describe a runnable testbed. Called by
  /// TestbedScenario's constructor.
  void validate() const;
};

/// Result of one emergency-braking trial (the measurement chain of
/// Fig. 4 / §IV-A of the paper).
struct TrialResult {
  bool stopped_by_denm{false};
  bool timed_out{false};

  // True (simulation-clock) step instants.
  sim::SimTime t_cross_actual{};   ///< step 1: vehicle geometrically at the Action Point
  sim::SimTime t_detection{};      ///< step 2: YOLO output flags the crossing
  sim::SimTime t_rsu_send{};       ///< step 3: RSU transmits the DENM
  sim::SimTime t_obu_receive{};    ///< step 4: OBU facilities receive the DENM
  sim::SimTime t_power_cut{};      ///< step 5: ECU commands the actuators
  sim::SimTime t_halt{};           ///< step 6: vehicle at standstill

  // NTP-measured intervals (include residual clock error, like the paper).
  double meas_detection_to_rsu_ms{0};  ///< step 2 -> 3
  double meas_rsu_to_obu_ms{0};        ///< step 3 -> 4
  double meas_obu_to_actuator_ms{0};   ///< step 4 -> 5
  double meas_total_ms{0};             ///< step 2 -> 5

  double braking_distance_m{0};        ///< travel from detection to halt (Table III)
  double stop_distance_to_camera_m{0};
  double detection_distance_m{0};      ///< estimated distance at the trigger
  double speed_at_detection_mps{0};
};

/// The assembled laboratory testbed: one protagonist scale vehicle with an
/// OBU, one road-side infrastructure (camera + edge node + RSU), a shared
/// 802.11p medium and a wired LAN — everything Fig. 3 of the paper shows.
class TestbedScenario {
 public:
  explicit TestbedScenario(TestbedConfig config);
  ~TestbedScenario();
  TestbedScenario(const TestbedScenario&) = delete;
  TestbedScenario& operator=(const TestbedScenario&) = delete;

  /// Runs one complete trial: the vehicle line-follows towards the camera,
  /// the infrastructure detects the Action-Point crossing, triggers the
  /// DENM and the vehicle stops. Returns the measured chain.
  TrialResult run_emergency_brake_trial(sim::SimTime timeout = sim::SimTime::seconds(30));

  /// Adds a non-ITS road user moving at constant velocity (blind-corner
  /// use-case: the vehicle the camera must perceive for the protagonist).
  /// Visible to the road-side camera and to the on-board LiDAR (subject to
  /// FOV, range and wall occlusion).
  void add_road_user(geo::Vec2 start, double heading_rad, double speed_mps,
                     roadside::Presentation presentation);

  /// Adds a stationary obstacle (e.g. a broken-down vehicle) visible to
  /// both the camera and the LiDAR.
  void add_static_obstacle(geo::Vec2 position, roadside::Presentation presentation,
                           double radius_m = 0.15);

  /// Smallest protagonist-to-road-user separation seen so far (metres);
  /// infinity when no road user exists.
  [[nodiscard]] double min_separation_m() const { return min_separation_; }

  // --- Component access (the public API surface examples build on) ---
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] const TestbedConfig& config() const { return config_; }
  [[nodiscard]] const geo::LocalFrame& frame() const { return frame_; }
  [[nodiscard]] dot11p::Medium& medium() { return *medium_; }
  [[nodiscard]] vehicle::VehicleDynamics& dynamics() { return *dynamics_; }
  [[nodiscard]] vehicle::MotionPlanner& planner() { return *planner_; }
  [[nodiscard]] vehicle::MessageHandler& message_handler() { return *message_handler_; }
  [[nodiscard]] vehicle::Track& track() { return *track_; }
  [[nodiscard]] vehicle::ScanningLidar* lidar() { return lidar_.get(); }
  [[nodiscard]] vehicle::AebController* aeb() { return aeb_.get(); }
  [[nodiscard]] vehicle::GnssReceiver* gnss() { return gnss_.get(); }
  [[nodiscard]] roadside::RoadsideCamera& camera() { return *camera_; }
  [[nodiscard]] roadside::ObjectDetectionService& detection() { return *detection_; }
  [[nodiscard]] roadside::HazardAdvertisementService& hazard() { return *hazard_; }
  [[nodiscard]] ItsStation& obu() { return *obu_; }
  [[nodiscard]] ItsStation& rsu() { return *rsu_; }
  [[nodiscard]] middleware::NtpClock& edge_clock() { return *edge_clock_; }
  [[nodiscard]] middleware::NtpClock& jetson_clock() { return *jetson_clock_; }
  [[nodiscard]] middleware::HttpLan& lan() { return *lan_; }
  /// Null when the configured fault plan is empty.
  [[nodiscard]] sim::FaultInjector* fault_injector() { return faults_.get(); }
  /// cpm.* counters when cpm_enable is set (empty registry otherwise).
  [[nodiscard]] sim::MetricsRegistry& metrics() { return metrics_; }

  /// Starts every service (also done by run_emergency_brake_trial).
  void start_services();

 private:
  struct RoadUser {
    geo::Vec2 start;
    geo::Vec2 velocity;
    sim::SimTime t0;
  };

  void schedule_separation_probe();
  void feed_rsu_ldm(const roadside::DetectionBatch& batch);
  void on_fused_percept(const its::PerceivedObject& object);

  TestbedConfig config_;
  sim::Scheduler sched_;
  sim::Trace trace_;
  sim::RandomStream rng_;
  geo::LocalFrame frame_;
  std::unique_ptr<sim::FaultInjector> faults_;

  std::unique_ptr<dot11p::Medium> medium_;
  std::unique_ptr<middleware::HttpLan> lan_;
  std::unique_ptr<vehicle::VehicleBus> vehicle_bus_;
  std::unique_ptr<roadside::EdgeBus> edge_bus_;

  std::unique_ptr<vehicle::Track> track_;
  std::unique_ptr<vehicle::VehicleDynamics> dynamics_;
  std::unique_ptr<vehicle::LineCameraSensor> line_sensor_;
  std::unique_ptr<vehicle::MotionPlanner> planner_;
  std::unique_ptr<vehicle::ControlModule> control_;
  std::unique_ptr<vehicle::MessageHandler> message_handler_;
  std::unique_ptr<middleware::NtpClock> jetson_clock_;
  std::unique_ptr<vehicle::ScanningLidar> lidar_;
  std::unique_ptr<vehicle::AebController> aeb_;
  std::unique_ptr<vehicle::GnssReceiver> gnss_;

  std::unique_ptr<roadside::RoadsideCamera> camera_;
  std::unique_ptr<roadside::YoloSimulator> yolo_;
  std::unique_ptr<roadside::ObjectDetectionService> detection_;
  std::unique_ptr<roadside::HazardAdvertisementService> hazard_;
  std::unique_ptr<middleware::NtpClock> edge_clock_;

  std::unique_ptr<ItsStation> obu_;
  std::unique_ptr<ItsStation> rsu_;
  std::unique_ptr<cellular::CellularNetwork> cellular_;

  std::vector<RoadUser> road_users_;
  double min_separation_{std::numeric_limits<double>::infinity()};
  bool services_started_{false};
  std::uint32_t next_object_id_{1};

  sim::MetricsRegistry metrics_;
  /// Per-object motion estimate of the detections -> RSU-LDM feed: the
  /// YOLO range rate is radial only, so world-frame velocity comes from
  /// finite differences over the detection stream.
  struct FeedTrack {
    geo::Vec2 position{};
    geo::Vec2 velocity{};
    sim::SimTime at{};
  };
  std::map<std::uint32_t, FeedTrack> cpm_feed_tracks_;
  bool cpm_stop_latched_{false};
};

}  // namespace rst::core
