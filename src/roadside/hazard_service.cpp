#include "rst/roadside/hazard_service.hpp"

#include <array>
#include <string_view>

namespace rst::roadside {

namespace {
/// Labels the hazard logic recognises as road users worth advertising.
constexpr std::array<std::string_view, 7> kKnownRoadUsers = {
    "car", "truck", "bus", "motorbike", "bicycle", "person", "stop sign"};

bool is_known_road_user(std::string_view label) {
  for (const auto known : kKnownRoadUsers) {
    if (label == known) return true;
  }
  return false;
}
}  // namespace

HazardAdvertisementService::HazardAdvertisementService(
    sim::Scheduler& sched, EdgeBus& bus, middleware::HttpLan& lan,
    const geo::LocalFrame& frame, geo::Vec2 camera_position, double camera_facing_rad,
    sim::RandomStream rng, Config config, its::Ldm* ldm, sim::Trace* trace)
    : sched_{sched},
      lan_{lan},
      frame_{frame},
      camera_position_{camera_position},
      camera_facing_rad_{camera_facing_rad},
      rng_{rng.child("hazard")},
      config_{config},
      ldm_{ldm},
      trace_{trace},
      cam_scan_timer_{sched, [this] { scan_cam_pairs(); }} {
  predictor_ = CollisionPredictor{config_.cpa};
  bus.detections.subscribe([this](const SharedDetectionBatch& b) { on_detections(*b); });
}

void HazardAdvertisementService::start() {
  running_ = true;
  if (config_.monitor_cam_pairs && !cam_scan_timer_.armed()) {
    cam_scan_timer_.arm_in(config_.cam_pair_scan_period);
  }
}

void HazardAdvertisementService::stop() {
  running_ = false;
  cam_scan_timer_.cancel();
}

void HazardAdvertisementService::scan_cam_pairs() {
  cam_scan_timer_.arm_in(config_.cam_pair_scan_period);
  if (!ldm_) return;
  if (!armed_) {
    if (sched_.now() - last_trigger_ > config_.rearm_delay) armed_ = true;
    else return;
  }
  const auto vehicles = ldm_->vehicles();
  for (std::size_t i = 0; i < vehicles.size(); ++i) {
    const geo::Vec2 vi =
        geo::vector_from_heading(vehicles[i].heading_rad) * vehicles[i].speed_mps;
    // Assess vehicle i (as the "object") against all the others.
    std::vector<its::LdmVehicleEntry> others;
    for (std::size_t j = 0; j < vehicles.size(); ++j) {
      if (j != i) others.push_back(vehicles[j]);
    }
    const auto threat = predictor_.assess(vehicles[i].position, vi, others);
    if (!threat) continue;
    armed_ = false;
    last_trigger_ = sched_.now();
    ++stats_.crossings_detected;
    if (trace_) {
      trace_->record_event(sched_.now(), sim::Stage::HazardDecision, 0,
                           (static_cast<std::uint64_t>(vehicles[i].station_id) << 32) |
                               threat->station_id,
                           threat->t_cpa_s, sim::kHazardCpaStation);
    }
    trigger_denm_at(threat->predicted_conflict_point,
                    its::EventType::of(its::Cause::CollisionRisk,
                                       static_cast<std::uint8_t>(
                                           its::CollisionRiskSubCause::CrossingCollisionRisk)),
                    vehicles[i].speed_mps);
    return;
  }
}

void HazardAdvertisementService::rearm() { armed_ = true; }

bool HazardAdvertisementService::crossing_detected(const TrackedDetection& det) {
  const double est = det.detection.estimated_distance_m;
  bool crossing = est <= config_.action_point_distance_m;
  if (!crossing && config_.treat_min_range_default_as_crossing &&
      est == config_.min_range_default_m) {
    // Exactly the estimator's default: the object is inside the minimum
    // working range, i.e. closer than any threshold — but only if we saw
    // it genuinely approaching before (a fresh far object can plausibly
    // sit at 1.73 m for real).
    const auto it = last_distance_.find(det.detection.object_id);
    crossing = it != last_distance_.end() && it->second < config_.min_range_default_m - 0.05;
  }
  last_distance_[det.detection.object_id] = est;
  return crossing;
}

geo::Vec2 HazardAdvertisementService::world_position(const TrackedDetection& det) const {
  const geo::Vec2 direction =
      geo::vector_from_heading(camera_facing_rad_ + det.detection.bearing_rad);
  return camera_position_ + direction * det.detection.estimated_distance_m;
}

geo::Vec2 HazardAdvertisementService::update_velocity(std::uint32_t object_id, geo::Vec2 position,
                                                      sim::SimTime now) {
  auto& m = motion_[object_id];
  if (m.stamp != sim::SimTime{} && now > m.stamp) {
    const double dt = (now - m.stamp).to_seconds();
    const geo::Vec2 raw = (position - m.position) / dt;
    m.velocity = m.has_velocity ? m.velocity * 0.65 + raw * 0.35 : raw;
    m.has_velocity = true;
  }
  m.position = position;
  m.stamp = now;
  return m.has_velocity ? m.velocity : geo::Vec2{};
}

void HazardAdvertisementService::on_detections(const DetectionBatch& batch) {
  if (!running_) return;
  ++stats_.batches_seen;
  if (!armed_) {
    if (sched_.now() - last_trigger_ > config_.rearm_delay) armed_ = true;
    else return;
  }
  for (const auto& det : batch.detections) {
    if (det.detection.confidence < config_.min_confidence ||
        (config_.require_known_road_user && !is_known_road_user(det.detection.label))) {
      ++stats_.detections_gated;
      continue;
    }
    if (config_.trigger_mode == HazardTriggerMode::ActionPointDistance) {
      if (!crossing_detected(det)) continue;
      ++stats_.crossings_detected;
      armed_ = false;
      last_trigger_ = sched_.now();
      if (trace_) {
        trace_->record_event(sched_.now(), sim::Stage::HazardDecision, 0,
                             det.detection.object_id, det.detection.estimated_distance_m,
                             sim::kHazardActionPoint);
      }
      trigger_denm(det, std::nullopt);
      return;  // one trigger per batch
    }

    // CPA mode: build the object's world-frame motion and assess against
    // every CAM-known vehicle in the LDM.
    const geo::Vec2 position = world_position(det);
    const geo::Vec2 velocity = update_velocity(det.detection.object_id, position,
                                               batch.capture_time);
    const auto& m = motion_[det.detection.object_id];
    if (!m.has_velocity || !ldm_) continue;
    const auto threat = predictor_.assess(position, velocity, ldm_->vehicles());
    if (!threat) continue;
    ++stats_.crossings_detected;
    armed_ = false;
    last_trigger_ = sched_.now();
    if (trace_) {
      trace_->record_event(sched_.now(), sim::Stage::HazardDecision, 0,
                           (static_cast<std::uint64_t>(det.detection.object_id) << 32) |
                               threat->station_id,
                           threat->t_cpa_s, sim::kHazardCpaObject);
    }
    trigger_denm(det, threat->predicted_conflict_point);
    return;
  }
}

void HazardAdvertisementService::trigger_denm(const TrackedDetection& det,
                                              std::optional<geo::Vec2> event_position_override) {
  // Decide the cause code. If the LDM confirms an ETSI-capable protagonist
  // vehicle approaching, announce a crossing collision risk (97/2, paper
  // Table I); otherwise an obstacle-on-road warning (10).
  its::EventType event = its::EventType::of(its::Cause::CollisionRisk,
                                            static_cast<std::uint8_t>(its::CollisionRiskSubCause::CrossingCollisionRisk));
  if (config_.require_cam_vehicle_for_collision_risk) {
    const bool have_vehicle = ldm_ && !ldm_->vehicles().empty();
    if (!have_vehicle) event = its::EventType::of(its::Cause::HazardousLocationObstacleOnTheRoad, 0);
  }

  // The event position: the predicted conflict point (CPA mode) or the
  // detected object's location projected from the camera along its bearing.
  const geo::Vec2 event_pos = event_position_override.value_or(world_position(det));

  // LDM bookkeeping: the perceived (possibly non-ITS) road user.
  if (ldm_) {
    its::PerceivedObject obj;
    obj.object_id = det.detection.object_id;
    obj.classification = det.detection.label;
    obj.position = event_pos;
    obj.velocity = geo::vector_from_heading(camera_facing_rad_ + det.detection.bearing_rad) *
                   det.range_rate_mps;
    obj.confidence = det.detection.confidence;
    ldm_->update_perceived_object(obj);
  }

  trigger_denm_at(event_pos, event, std::abs(det.range_rate_mps));
}

void HazardAdvertisementService::trigger_denm_at(geo::Vec2 event_position, its::EventType event,
                                                 double event_speed_mps) {
  its::DenmRequest request;
  request.event_type = event;
  request.information_quality = 5;
  request.event_position = event_position;
  request.validity = config_.denm_validity;
  request.destination_area = geo::GeoArea::circle(event_position, config_.destination_radius_m);
  if (config_.denm_repetition) {
    request.repetition_interval = config_.denm_repetition;
    request.repetition_duration = config_.denm_validity;
  }
  if (event_speed_mps != 0) request.event_speed_mps = event_speed_mps;

  const auto processing =
      rng_.normal_time(config_.processing_mean, config_.processing_sigma, config_.processing_min);
  sched_.post_in(processing, [this, request = std::move(request)]() mutable {
    if (trace_) {
      trace_->record_event(sched_.now(), sim::Stage::TriggerDenm, 0, 0, 0.0,
                           sim::kTriggerIssued);
    }
    lan_.trigger_denm(config_.rsu_hostname, std::move(request), [this](int status, its::ActionId) {
      if (status == 200) {
        ++stats_.denms_triggered;
      } else {
        ++stats_.trigger_failures;
        if (trace_) {
          trace_->record_event(sched_.now(), sim::Stage::TriggerDenm, 0, 0, 0.0,
                               sim::kTriggerFailed);
        }
      }
    });
  });
}

}  // namespace rst::roadside
