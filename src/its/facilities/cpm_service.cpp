#include "rst/its/facilities/cpm_service.hpp"

#include <algorithm>
#include <cmath>

namespace rst::its {

namespace {

[[nodiscard]] double heading_of(const geo::Vec2& velocity) {
  return std::atan2(velocity.x, velocity.y);
}

[[nodiscard]] double speed_of(const geo::Vec2& velocity) {
  return std::sqrt(velocity.x * velocity.x + velocity.y * velocity.y);
}

template <typename T>
[[nodiscard]] T clamp_cast(double v, double lo, double hi) {
  return static_cast<T>(std::lround(std::clamp(v, lo, hi)));
}

}  // namespace

CpmService::CpmService(sim::Scheduler& sched, GeoNetRouter& router, StationId station_id,
                       CpmConfig config, Ldm* ldm, sim::Trace* trace)
    : sched_{sched},
      router_{router},
      station_id_{station_id},
      config_{config},
      ldm_{ldm},
      trace_{trace},
      timer_{sched, [this] { generate(); }} {}

void CpmService::start() {
  if (!timer_.armed()) timer_.arm_in(config_.interval);
}

void CpmService::set_metrics(sim::MetricsRegistry* metrics) {
  metrics_ = metrics;
  expired_baseline_ = ldm_ ? ldm_->perceived_objects_expired() : 0;
}

void CpmService::generate() {
  send_now();
  timer_.arm_in(config_.interval);
}

std::size_t CpmService::send_now() {
  prune_announcements();
  std::uint64_t skipped = 0;
  const Cpm cpm = build(&skipped);
  stats_.objects_redundancy_skipped += skipped;
  if (metrics_ && skipped > 0) metrics_->counter("cpm.objects_redundancy_skipped").add(skipped);
  publish_expired_delta();
  // Nothing perceived locally (or everything already announced by a peer):
  // stay quiet instead of sending an empty message.
  if (cpm.objects.empty()) return 0;

  BtpHeader btp{.destination_port = kBtpPortCpm, .destination_port_info = 0};
  if (config_.use_gbc) {
    const geo::GeoArea area =
        geo::GeoArea::circle(router_.ego().position, config_.destination_radius_m);
    router_.send_gbc(btp.prepend_to(cpm.encode()), area, dot11p::AccessCategory::Video);
  } else {
    router_.send_shb(btp.prepend_to(cpm.encode()), dot11p::AccessCategory::Video);
  }
  ++stats_.cpms_sent;
  stats_.objects_published += cpm.objects.size();
  if (metrics_) metrics_->counter("cpm.objects_published").add(cpm.objects.size());
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::CpmTx, station_id_, cpm.objects.size(),
                         static_cast<double>(cpm.objects.size()));
  }
  return cpm.objects.size();
}

Cpm CpmService::build_cpm() const { return build(nullptr); }

Cpm CpmService::build(std::uint64_t* redundancy_skipped) const {
  Cpm cpm;
  cpm.header.station_id = station_id_;
  cpm.generation_delta_time = generation_delta_time(to_timestamp_its(sched_.now()));
  cpm.management.station_type = config_.station_type;

  const geo::Vec2 ego = router_.ego().position;
  const geo::GeoPosition gp = router_.local_frame().to_geo(ego);
  cpm.management.reference_position.latitude = geo::to_its_tenth_microdegree(gp.latitude_deg);
  cpm.management.reference_position.longitude = geo::to_its_tenth_microdegree(gp.longitude_deg);
  cpm.management.reference_position.confidence.semi_major_cm = 50;
  cpm.management.reference_position.confidence.semi_minor_cm = 50;
  cpm.management.reference_position.confidence.orientation_01deg = 0;

  if (!ldm_) return cpm;
  for (const PerceivedObject& obj : ldm_->perceived_objects()) {
    // Only re-announce what this station sensed itself: forwarding fused
    // remote percepts would echo them around the network.
    if (obj.source_station != 0) continue;
    if (recently_announced_by_peer(obj.position)) {
      if (redundancy_skipped) ++*redundancy_skipped;
      continue;
    }
    if (cpm.objects.size() >= config_.max_objects) break;
    CpmPerceivedObject wire;
    wire.object_id = static_cast<std::uint16_t>(obj.object_id & 0xffffu);
    const double age_ms = (sched_.now() - obj.measured).to_seconds() * 1000.0;
    wire.age_ms = clamp_cast<std::uint16_t>(age_ms, 0.0, 1500.0);
    wire.x_offset_cm = clamp_cast<std::int32_t>((obj.position.x - ego.x) * 100.0, -132768.0, 132767.0);
    wire.y_offset_cm = clamp_cast<std::int32_t>((obj.position.y - ego.y) * 100.0, -132768.0, 132767.0);
    wire.x_speed_cms = clamp_cast<std::int16_t>(obj.velocity.x * 100.0, -16383.0, 16383.0);
    wire.y_speed_cms = clamp_cast<std::int16_t>(obj.velocity.y * 100.0, -16383.0, 16383.0);
    wire.object_class = cpm_class_from_label(obj.classification);
    wire.confidence_pct = clamp_cast<std::uint8_t>(obj.confidence * 100.0, 0.0, 100.0);
    cpm.objects.push_back(wire);
  }
  return cpm;
}

bool CpmService::recently_announced_by_peer(const geo::Vec2& position) const {
  const sim::SimTime now = sched_.now();
  for (const RemoteAnnouncement& a : announcements_) {
    if (now - a.heard >= config_.redundancy_window) continue;
    if (geo::distance(a.position, position) <= config_.redundancy_gating_m) return true;
  }
  return false;
}

void CpmService::prune_announcements() {
  const sim::SimTime now = sched_.now();
  std::erase_if(announcements_, [&](const RemoteAnnouncement& a) {
    return now - a.heard >= config_.redundancy_window;
  });
}

void CpmService::publish_expired_delta() {
  if (!metrics_ || !ldm_) return;
  const std::uint64_t expired = ldm_->perceived_objects_expired();
  if (expired > expired_baseline_) {
    metrics_->counter("cpm.objects_expired").add(expired - expired_baseline_);
    expired_baseline_ = expired;
  }
}

void CpmService::on_btp_payload(std::span<const std::uint8_t> cpm_bytes,
                                const GnDeliveryMeta& meta) {
  Cpm cpm;
  try {
    cpm = Cpm::decode(cpm_bytes);
  } catch (const asn1::DecodeError&) {
    ++stats_.decode_errors;
    return;
  }
  if (cpm.header.station_id == station_id_) return;
  ++stats_.cpms_received;
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::CpmRx, station_id_, cpm.header.station_id,
                         static_cast<double>(cpm.objects.size()));
  }

  prune_announcements();
  const geo::GeoPosition sender_geo{
      geo::from_its_tenth_microdegree(cpm.management.reference_position.latitude),
      geo::from_its_tenth_microdegree(cpm.management.reference_position.longitude)};
  const geo::Vec2 sender = router_.local_frame().to_local(sender_geo);
  const sim::SimTime now = sched_.now();

  for (const CpmPerceivedObject& wire : cpm.objects) {
    const geo::Vec2 position{sender.x + wire.x_offset_cm / 100.0,
                             sender.y + wire.y_offset_cm / 100.0};
    const geo::Vec2 velocity{wire.x_speed_cms / 100.0, wire.y_speed_cms / 100.0};
    // Remember the announcement for redundancy mitigation whether or not
    // the percept survives the fusion gates below.
    announcements_.push_back({position, now, cpm.header.station_id});

    const double confidence = wire.confidence_pct / 100.0;
    if (confidence < config_.fusion_min_confidence) {
      ++stats_.objects_gated;
      if (metrics_) metrics_->counter("cpm.objects_gated").add();
      continue;
    }
    if (!ldm_) continue;

    // Dedup against the live LDM picture: position gate plus (for moving
    // objects) a heading gate, mirroring the detection associator.
    const PerceivedObject* match = nullptr;
    double best = config_.fusion_gating_m;
    const auto live = ldm_->perceived_objects();
    for (const PerceivedObject& existing : live) {
      const double d = geo::distance(existing.position, position);
      if (d > best) continue;
      if (speed_of(existing.velocity) > config_.fusion_moving_speed_mps &&
          speed_of(velocity) > config_.fusion_moving_speed_mps) {
        const double dh =
            std::abs(std::remainder(heading_of(existing.velocity) - heading_of(velocity), 2.0 * M_PI));
        if (dh > config_.fusion_heading_gate_rad) continue;
      }
      match = &existing;
      best = d;
    }
    if (match && match->source_station == 0) {
      // Local sensing already covers this object — keep the local track.
      ++stats_.objects_deduped;
      if (metrics_) metrics_->counter("cpm.objects_deduped").add();
      continue;
    }

    PerceivedObject fused;
    fused.object_id =
        match ? match->object_id : remote_object_id(cpm.header.station_id, wire.object_id);
    fused.classification = std::string{cpm_label_from_class(wire.object_class)};
    fused.position = position;
    fused.velocity = velocity;
    fused.confidence = confidence;
    fused.measured = now - sim::SimTime::milliseconds(wire.age_ms);
    fused.source_station = cpm.header.station_id;
    ldm_->update_perceived_object(fused);
    ++stats_.objects_fused;
    if (metrics_) metrics_->counter("cpm.objects_fused").add();
    if (trace_) {
      trace_->record_event(sched_.now(), sim::Stage::CpmFusion, station_id_, fused.object_id,
                           confidence, static_cast<std::uint16_t>(cpm.header.station_id & 0xffffu));
    }
    if (fused_cb_) fused_cb_(fused, meta);
  }
  publish_expired_delta();
}

}  // namespace rst::its
