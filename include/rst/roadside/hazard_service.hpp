#pragma once

#include <map>
#include <optional>
#include <string>

#include "rst/its/facilities/ldm.hpp"
#include "rst/its/messages/cause_code.hpp"
#include "rst/middleware/http.hpp"
#include "rst/roadside/collision_predictor.hpp"
#include "rst/roadside/object_detection_service.hpp"
#include "rst/sim/trace.hpp"

namespace rst::roadside {

/// How the service decides to advertise a hazard.
enum class HazardTriggerMode : std::uint8_t {
  /// The paper's deployment: a road user crossing a fixed threshold
  /// distance to the camera (the "Action Point").
  ActionPointDistance,
  /// Kinematic assessment: closest point of approach between the
  /// perceived object and each CAM-known vehicle in the LDM.
  CpaPrediction,
};

struct HazardServiceConfig {
  HazardTriggerMode trigger_mode{HazardTriggerMode::ActionPointDistance};
  /// Threshold distance to the camera at which braking must be requested.
  double action_point_distance_m{1.52};
  /// CPA assessment parameters (CpaPrediction mode).
  CollisionPredictor::Config cpa{};
  /// The YOLO estimator's min-range default (paper §III-C2: below ~75 cm
  /// the "estimated distance defaults to 1.73m"). An object that was being
  /// tracked approaching and suddenly reports exactly this value is inside
  /// the minimum working range — i.e. very close — and must also trigger
  /// (the paper's reason for tying the threshold to "this value").
  double min_range_default_m{1.73};
  bool treat_min_range_default_as_crossing{true};
  /// Detection quality gates. With the defaults every detection is
  /// considered (the paper's deployment triggers on distance alone); raise
  /// them to make the decision robust against misclassification and
  /// confidence-collapse faults.
  double min_confidence{0.0};
  /// Only react to labels the hazard logic recognises as road users
  /// (car/truck/bus/motorbike/bicycle/person/stop sign).
  bool require_known_road_user{false};
  /// Decision + LDM-consult + request-marshalling time on the edge node.
  sim::SimTime processing_mean{sim::SimTime::milliseconds(25)};
  sim::SimTime processing_sigma{sim::SimTime::milliseconds(4)};
  sim::SimTime processing_min{sim::SimTime::milliseconds(12)};
  std::string rsu_hostname{"rsu"};
  /// When true, a collision risk (cause 97) is only advertised if the
  /// LDM knows an ETSI-capable protagonist vehicle; otherwise the event
  /// degrades to an obstacle warning (cause 10).
  bool require_cam_vehicle_for_collision_risk{false};
  /// Validity and repetition of the triggered DENM.
  sim::SimTime denm_validity{sim::SimTime::seconds(10)};
  std::optional<sim::SimTime> denm_repetition{};
  double destination_radius_m{100.0};
  /// Re-arm delay: after a trigger, further crossings are ignored until
  /// the object has left the region for at least this long.
  sim::SimTime rearm_delay{sim::SimTime::seconds(3)};
  /// Additionally scan the LDM for conflicts between pairs of CAM-known
  /// vehicles (paper §II-A: the infrastructure can also work purely "from
  /// CA Messages broadcast by vehicles").
  bool monitor_cam_pairs{false};
  sim::SimTime cam_pair_scan_period{sim::SimTime::milliseconds(250)};
};

/// The paper's Hazard Advertisement Service (edge node): watches the
/// detection stream for a road user crossing the Action Point, consults
/// the LDM to assess a potential collision with a protagonist vehicle,
/// and triggers the RSU's OpenC2X stack to send a DENM via
/// `POST /trigger_denm`.
class HazardAdvertisementService {
 public:
  using Config = HazardServiceConfig;

  HazardAdvertisementService(sim::Scheduler& sched, EdgeBus& bus, middleware::HttpLan& lan,
                             const geo::LocalFrame& frame, geo::Vec2 camera_position,
                             double camera_facing_rad, sim::RandomStream rng, Config config = {},
                             its::Ldm* ldm = nullptr, sim::Trace* trace = nullptr);

  void start();
  void stop();

  struct Stats {
    std::uint64_t batches_seen{0};
    std::uint64_t crossings_detected{0};
    std::uint64_t denms_triggered{0};
    std::uint64_t trigger_failures{0};
    /// Detections dropped by the confidence / known-road-user gates.
    std::uint64_t detections_gated{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// Clears the trigger latch (new experiment run).
  void rearm();

 private:
  void on_detections(const DetectionBatch& batch);
  void scan_cam_pairs();
  void trigger_denm_at(geo::Vec2 event_position, its::EventType event, double event_speed_mps);
  void trigger_denm(const TrackedDetection& det, std::optional<geo::Vec2> event_position);
  /// World-frame position of a detection (camera pose + bearing + range).
  [[nodiscard]] geo::Vec2 world_position(const TrackedDetection& det) const;
  /// Updates and returns the smoothed world-frame velocity of an object.
  geo::Vec2 update_velocity(std::uint32_t object_id, geo::Vec2 position, sim::SimTime now);
  [[nodiscard]] bool crossing_detected(const TrackedDetection& det);

  sim::Scheduler& sched_;
  middleware::HttpLan& lan_;
  const geo::LocalFrame& frame_;
  geo::Vec2 camera_position_;
  double camera_facing_rad_;
  sim::RandomStream rng_;
  Config config_;
  its::Ldm* ldm_;
  sim::Trace* trace_;
  bool running_{false};
  bool armed_{true};
  sim::SimTime last_trigger_{};
  /// Last estimated distance per tracked object (min-range inference).
  std::map<std::uint32_t, double> last_distance_;
  /// Smoothed world-frame motion per object (CPA mode).
  struct MotionState {
    geo::Vec2 position{};
    geo::Vec2 velocity{};
    sim::SimTime stamp{};
    bool has_velocity{false};
  };
  std::map<std::uint32_t, MotionState> motion_;
  CollisionPredictor predictor_{};
  sim::Timer cam_scan_timer_;
  Stats stats_;
};

}  // namespace rst::roadside
