#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "rst/middleware/message_bus.hpp"
#include "rst/roadside/associator.hpp"
#include "rst/roadside/camera.hpp"
#include "rst/roadside/tracker.hpp"
#include "rst/roadside/yolo_sim.hpp"
#include "rst/sim/trace.hpp"

namespace rst::roadside {

/// One tracked detection enriched with motion information.
struct TrackedDetection {
  YoloDetection detection{};
  /// Smoothed range rate in m/s (negative = approaching the camera),
  /// from the per-object alpha-beta tracker; 0 until the track warms up.
  double range_rate_mps{0};
  /// Smoothed range from the same tracker.
  double tracked_range_m{0};
  sim::SimTime capture_time{};
  sim::SimTime output_time{};
};

/// Batch of detections published on the bus topic `detections`.
struct DetectionBatch {
  std::uint64_t frame_number{0};
  sim::SimTime capture_time{};
  sim::SimTime output_time{};
  std::vector<TrackedDetection> detections;
};

/// A published batch, shared read-only by every subscriber (as `Bytes`
/// shares a payload): a delivery copies this handle, not the detections.
using SharedDetectionBatch = std::shared_ptr<const DetectionBatch>;

/// The edge node's bus, one member per topic.
struct EdgeBus : middleware::MessageBus {
  using MessageBus::MessageBus;

  /// Detection service -> hazard service (and, with CPM on, the RSU's LDM feed).
  middleware::Topic<SharedDetectionBatch> detections{*this};
};

struct ObjectDetectionConfig {
  /// End-to-end period of the detection loop (4 FPS).
  sim::SimTime processing_period{sim::SimTime::milliseconds(250)};
  /// Inference latency between frame grab and detection output.
  sim::SimTime inference_mean{sim::SimTime::milliseconds(80)};
  sim::SimTime inference_sigma{sim::SimTime::milliseconds(12)};
  sim::SimTime inference_min{sim::SimTime::milliseconds(40)};
  RangeTracker::Config tracker{};
  /// Real detectors output anonymous boxes: when set, the simulator-side
  /// object identities are discarded and track ids are re-derived by
  /// frame-to-frame data association.
  bool anonymize_detections{false};
  AssociatorConfig associator{};
};

/// The paper's Object Detection Service: grabs the latest camera frame,
/// runs YOLO, determines the dynamics of the observed vehicles (motion
/// direction vector via range rate) and publishes the result.
///
/// The processing loop runs at ~4 FPS ("the processing is done at
/// approximately 4 Frames per Second, so a small error margin on detection
/// exists"), which quantises the action-point crossing instant.
///
/// Once warm, a frame allocates nothing: frames, detections and batches
/// live in buffers the service reuses, keeping their capacity.
class ObjectDetectionService {
 public:
  using Config = ObjectDetectionConfig;

  ObjectDetectionService(sim::Scheduler& sched, EdgeBus& bus, RoadsideCamera& camera,
                         YoloSimulator& yolo, sim::RandomStream rng, Config config = {},
                         sim::Trace* trace = nullptr);
  ObjectDetectionService(const ObjectDetectionService&) = delete;
  ObjectDetectionService& operator=(const ObjectDetectionService&) = delete;

  void start();

  [[nodiscard]] std::uint64_t frames_processed() const { return frames_; }
  [[nodiscard]] double effective_fps() const;

 private:
  /// A frame and its YOLO output waiting out the inference latency. The
  /// pending event carries only the slot index, so it fits the scheduler's
  /// inline buffer; frames overlap when inference outlasts the period.
  struct InFlight {
    CameraFrame frame;
    std::vector<YoloDetection> detections;
  };

  void process_frame();
  /// Tracks and publishes the frame held in `slot`, then frees the slot.
  void complete_frame(std::uint32_t slot);

  sim::Scheduler& sched_;
  EdgeBus& bus_;
  RoadsideCamera& camera_;
  YoloSimulator& yolo_;
  sim::RandomStream rng_;
  Config config_;
  sim::Trace* trace_;
  sim::Timer loop_timer_;
  std::uint64_t frames_{0};
  sim::SimTime started_at_{};
  RangeTracker tracker_;
  DetectionAssociator associator_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;  // indices into in_flight_
  /// Published batches; one is refilled once no delivery or subscriber
  /// holds it any more.
  std::vector<std::shared_ptr<DetectionBatch>> batches_;
  std::vector<geo::Vec2> positions_;  // association input, anonymized mode
};

}  // namespace rst::roadside
