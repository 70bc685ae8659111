#include "rst/roadside/object_detection_service.hpp"

#include <algorithm>

namespace rst::roadside {

ObjectDetectionService::ObjectDetectionService(sim::Scheduler& sched, EdgeBus& bus,
                                               RoadsideCamera& camera, YoloSimulator& yolo,
                                               sim::RandomStream rng, Config config,
                                               sim::Trace* trace)
    : sched_{sched},
      bus_{bus},
      camera_{camera},
      yolo_{yolo},
      rng_{rng.child("od_service")},
      config_{config},
      trace_{trace},
      loop_timer_{sched, [this] { process_frame(); }},
      tracker_{config.tracker},
      associator_{config.associator} {}

void ObjectDetectionService::start() {
  if (loop_timer_.armed()) return;
  started_at_ = sched_.now();
  // Random initial phase: the detection loop is not synchronised to the
  // experiment start.
  loop_timer_.arm_in(rng_.uniform_time(sim::SimTime::zero(), config_.processing_period));
}

double ObjectDetectionService::effective_fps() const {
  const double elapsed = (sched_.now() - started_at_).to_seconds();
  return elapsed > 0 ? static_cast<double>(frames_) / elapsed : 0.0;
}

void ObjectDetectionService::process_frame() {
  ++frames_;
  std::uint32_t slot;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  InFlight& in = in_flight_[slot];
  camera_.capture(in.frame);
  if (trace_) {
    trace_->span_begin(sched_.now(), sim::Stage::CameraFrame, 0, in.frame.frame_number);
  }
  yolo_.detect(in.frame, in.detections);

  const auto inference =
      rng_.normal_time(config_.inference_mean, config_.inference_sigma, config_.inference_min);
  sched_.post_in(inference, [this, slot] { complete_frame(slot); });

  loop_timer_.arm_in(config_.processing_period);
}

void ObjectDetectionService::complete_frame(std::uint32_t slot) {
  const CameraFrame& frame = in_flight_[slot].frame;
  std::vector<YoloDetection>& detections = in_flight_[slot].detections;
  if (config_.anonymize_detections) {
    // Strip the simulator identities and re-derive track ids the way a
    // real pipeline must: geometrically, frame to frame.
    const geo::Vec2 cam_pos = camera_.config().position;
    const double facing = camera_.config().facing_rad;
    positions_.clear();
    for (const auto& det : detections) {
      positions_.push_back(cam_pos + geo::vector_from_heading(facing + det.bearing_rad) *
                                         det.estimated_distance_m);
    }
    const auto& ids = associator_.associate(positions_, frame.capture_time);
    for (std::size_t i = 0; i < detections.size(); ++i) {
      detections[i].object_id = ids[i];
    }
  }
  auto free_batch = std::find_if(batches_.begin(), batches_.end(),
                                 [](const auto& b) { return b.use_count() == 1; });
  if (free_batch == batches_.end()) {
    free_batch = batches_.insert(batches_.end(), std::make_shared<DetectionBatch>());
  }
  DetectionBatch& batch = **free_batch;
  batch.frame_number = frame.frame_number;
  batch.capture_time = frame.capture_time;
  batch.output_time = sched_.now();
  batch.detections.clear();
  for (const auto& det : detections) {
    TrackedDetection tracked;
    tracked.detection = det;
    tracked.capture_time = frame.capture_time;
    tracked.output_time = sched_.now();
    const RangeEstimate est =
        tracker_.update(det.object_id, det.estimated_distance_m, frame.capture_time);
    tracked.tracked_range_m = est.range_m;
    // The rate needs a couple of updates before it means anything.
    tracked.range_rate_mps = est.updates >= 3 ? est.range_rate_mps : 0.0;
    batch.detections.push_back(std::move(tracked));
  }
  if (trace_) {
    trace_->span_end(sched_.now(), sim::Stage::CameraFrame, 0, frame.frame_number);
    if (!batch.detections.empty()) {
      trace_->record_event(sched_.now(), sim::Stage::YoloDetection, 0, batch.detections.size(),
                           batch.detections.front().detection.estimated_distance_m);
    }
  }
  bus_.detections.publish(*free_batch);
  free_in_flight_.push_back(slot);
}

}  // namespace rst::roadside
