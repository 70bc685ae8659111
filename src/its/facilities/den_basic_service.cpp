#include "rst/its/facilities/den_basic_service.hpp"

#include <cmath>

namespace rst::its {

DenBasicService::DenBasicService(sim::Scheduler& sched, GeoNetRouter& router, StationId station_id,
                                 sim::Trace* trace, Ldm* ldm, DenConfig config)
    : sched_{sched},
      router_{router},
      station_id_{station_id},
      trace_{trace},
      ldm_{ldm},
      config_{config} {}

DenBasicService::~DenBasicService() {
  for (const auto& [key, ev] : originated_) sched_.cancel(ev.repetition_timer);
  for (const auto& [key, st] : received_) sched_.cancel(st.kaf_timer);
}

Denm DenBasicService::build_denm(ActionId id, const DenmRequest& request,
                                 TimestampIts detection_time) const {
  Denm denm;
  denm.header.station_id = station_id_;
  denm.header.message_id = MessageId::Denm;

  denm.management.action_id = id;
  denm.management.detection_time = detection_time;
  denm.management.reference_time = to_timestamp_its(sched_.now());
  const geo::GeoPosition gp = router_.local_frame().to_geo(request.event_position);
  denm.management.event_position.latitude = geo::to_its_tenth_microdegree(gp.latitude_deg);
  denm.management.event_position.longitude = geo::to_its_tenth_microdegree(gp.longitude_deg);
  denm.management.relevance_distance = request.relevance_distance;
  denm.management.relevance_traffic_direction = request.relevance_traffic_direction;
  // EN 302 637-3: validityDuration is 0..86400 s; clamp rather than letting
  // oversized application requests wrap through the PER encoding.
  denm.management.validity_duration_s = static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(request.validity.count_ns() / 1'000'000'000, 1, 86400));
  if (request.repetition_interval) {
    denm.management.transmission_interval_ms = static_cast<std::uint16_t>(
        std::clamp<std::int64_t>(request.repetition_interval->count_ns() / 1'000'000, 1, 10000));
  }
  denm.management.station_type = request.station_type;

  SituationContainer situation;
  situation.information_quality = request.information_quality;
  situation.event_type = request.event_type;
  denm.situation = situation;

  if (request.event_speed_mps || request.event_heading_rad) {
    LocationContainer location;
    if (request.event_speed_mps) location.event_speed = Speed::from_mps(*request.event_speed_mps);
    if (request.event_heading_rad) {
      double deg = std::fmod(*request.event_heading_rad * 180.0 / M_PI, 360.0);
      if (deg < 0) deg += 360.0;
      // Round to the nearest deci-degree (truncation biased every heading
      // down by up to 0.1°); 360.0° rounds up to 3600, which wraps to 0.
      location.event_position_heading =
          Heading{static_cast<std::uint16_t>(std::lround(deg * 10.0) % 3600), 10};
    }
    location.traces.push_back(PathHistory{});  // mandatory traces field
    denm.location = location;
  }
  denm.alacarte = request.alacarte;
  return denm;
}

void DenBasicService::transmit(const Denm& denm, const geo::GeoArea& area) {
  BtpHeader btp{.destination_port = kBtpPortDenm, .destination_port_info = 0};
  router_.send_gbc(btp.prepend_to(denm.encode()), area, dot11p::AccessCategory::Voice);
  if (transmit_hook_) transmit_hook_(denm);
  ++stats_.denms_sent;
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::DenmTx, station_id_,
                         sim::pack_action(denm.management.action_id.originating_station,
                                          denm.management.action_id.sequence_number),
                         0.0, denm.is_termination() ? sim::kDenmTermination : 0);
  }
}

void DenBasicService::expire_originated() {
  // Mirror of the received-state sweep: originated events past their
  // validity stop existing — cancel any still-pending repetition (the
  // repetition window may outlive the validity) and drop the entry so the
  // map cannot grow without bound on a long-running RSU.
  const sim::SimTime now = sched_.now();
  for (auto it = originated_.begin(); it != originated_.end();) {
    if (now <= it->second.expires) {
      ++it;
      continue;
    }
    sched_.cancel(it->second.repetition_timer);
    it = originated_.erase(it);
  }
}

ActionId DenBasicService::trigger(const DenmRequest& request) {
  expire_originated();
  const ActionId id{station_id_, next_sequence_++};
  OriginatedEvent ev;
  ev.request = request;
  ev.current = build_denm(id, request, to_timestamp_its(sched_.now()));
  ev.expires = sched_.now() + request.validity;
  ev.repetition_ends = sched_.now() + request.repetition_duration;
  originated_[key(id)] = std::move(ev);
  if (ldm_) ldm_->update_from_denm(originated_[key(id)].current);
  transmit(originated_[key(id)].current, request.destination_area);
  schedule_repetition(id);
  return id;
}

void DenBasicService::update(ActionId id, const DenmRequest& request) {
  auto it = originated_.find(key(id));
  if (it == originated_.end()) throw std::invalid_argument{"DenBasicService::update: unknown ActionID"};
  auto& ev = it->second;
  const TimestampIts original_detection = ev.current.management.detection_time;
  ev.request = request;
  ev.current = build_denm(id, request, original_detection);
  ev.expires = sched_.now() + request.validity;
  ev.repetition_ends = sched_.now() + request.repetition_duration;
  if (ldm_) ldm_->update_from_denm(ev.current);
  transmit(ev.current, request.destination_area);
  schedule_repetition(id);
}

void DenBasicService::terminate(ActionId id) {
  auto it = originated_.find(key(id));
  if (it == originated_.end()) {
    throw std::invalid_argument{"DenBasicService::terminate: unknown ActionID"};
  }
  auto& ev = it->second;
  sched_.cancel(ev.repetition_timer);
  Denm cancel = ev.current;
  cancel.management.termination = Termination::IsCancellation;
  cancel.management.reference_time = to_timestamp_its(sched_.now());
  if (ldm_) ldm_->update_from_denm(cancel);
  transmit(cancel, ev.request.destination_area);
  originated_.erase(it);
}

bool DenBasicService::negate(ActionId id) {
  auto it = received_.find(key(id));
  if (it == received_.end() || !it->second.area) return false;
  auto& st = it->second;
  if (st.terminated) return false;
  st.terminated = true;
  sched_.cancel(st.kaf_timer);

  Denm negation = st.last_denm;
  negation.header.station_id = station_id_;  // we are the terminating station
  negation.management.termination = Termination::IsNegation;
  negation.management.reference_time = to_timestamp_its(sched_.now());
  if (ldm_) ldm_->update_from_denm(negation);
  transmit(negation, *st.area);
  return true;
}

void DenBasicService::schedule_repetition(ActionId id) {
  auto it = originated_.find(key(id));
  if (it == originated_.end()) return;
  auto& ev = it->second;
  sched_.cancel(ev.repetition_timer);
  if (!ev.request.repetition_interval) return;
  if (sched_.now() + *ev.request.repetition_interval > ev.repetition_ends) return;
  ev.repetition_timer = sched_.post_in(*ev.request.repetition_interval, [this, id] {
    auto it2 = originated_.find(key(id));
    if (it2 == originated_.end()) return;
    if (sched_.now() > it2->second.expires) {
      // Validity elapsed mid-repetition-window: the event no longer exists.
      originated_.erase(it2);
      return;
    }
    ++stats_.repetitions;
    transmit(it2->second.current, it2->second.request.destination_area);
    schedule_repetition(id);
  });
}

std::optional<ReceivedDenmState> DenBasicService::received_state(ActionId id) const {
  const auto it = received_.find(key(id));
  if (it == received_.end()) return std::nullopt;
  return static_cast<const ReceivedDenmState&>(it->second);  // without the KAF ticket
}

void DenBasicService::on_btp_payload(std::span<const std::uint8_t> denm_bytes,
                                     const GnDeliveryMeta& meta) {
  Denm denm;
  try {
    denm = Denm::decode(denm_bytes);
  } catch (const asn1::DecodeError&) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.denms_received;

  const auto k = key(denm.management.action_id);
  auto it = received_.find(k);
  bool is_update = false;
  if (it != received_.end()) {
    auto& st = it->second;
    if (denm.is_termination()) {
      if (st.terminated) {
        ++stats_.duplicates_discarded;
        return;
      }
      st.terminated = true;
      sched_.cancel(st.kaf_timer);
    } else if (denm.management.reference_time > st.reference_time) {
      is_update = true;  // genuine update of a known event
      st.reference_time = denm.management.reference_time;
      st.detection_time = denm.management.detection_time;
      st.last_denm = denm;
      // The update carries a fresh validityDuration: extend the local
      // expiry, or the event is still erased (and keep-alive forwarding
      // silently stops) at the ORIGINAL deadline.
      st.expires = sched_.now() + sim::SimTime::seconds(denm.management.validity_duration_s);
      if (meta.destination_area) st.area = meta.destination_area;
      if (config_.enable_kaf) schedule_kaf(denm.management.action_id);
    } else {
      // Same or older reference time: repetition or out-of-order copy.
      // A fresher copy on air also resets the keep-alive timer.
      ++stats_.duplicates_discarded;
      if (config_.enable_kaf && !st.terminated) schedule_kaf(denm.management.action_id);
      return;
    }
  } else {
    if (denm.is_termination()) {
      // Termination for an event we never saw: record and ignore.
      ++stats_.stale_discarded;
      ReceivedEvent st;
      st.reference_time = denm.management.reference_time;
      st.detection_time = denm.management.detection_time;
      st.terminated = true;
      st.expires = sched_.now() + sim::SimTime::seconds(60);
      received_[k] = std::move(st);
      return;
    }
    ReceivedEvent st;
    st.reference_time = denm.management.reference_time;
    st.detection_time = denm.management.detection_time;
    st.terminated = false;
    st.expires = sched_.now() + sim::SimTime::seconds(denm.management.validity_duration_s);
    st.last_denm = denm;
    st.area = meta.destination_area;
    received_[k] = std::move(st);
    if (config_.enable_kaf) schedule_kaf(denm.management.action_id);
  }

  if (ldm_) ldm_->update_from_denm(denm);
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::DenmRx, station_id_,
                         sim::pack_action(denm.management.action_id.originating_station,
                                          denm.management.action_id.sequence_number),
                         0.0, denm.is_termination() ? sim::kDenmTermination : 0);
  }
  if (denm_cb_) denm_cb_(denm, meta, is_update);

  // Expire stale state opportunistically — received and originated alike.
  const sim::SimTime now = sched_.now();
  for (auto it2 = received_.begin(); it2 != received_.end();) {
    if (now <= it2->second.expires) {
      ++it2;
      continue;
    }
    sched_.cancel(it2->second.kaf_timer);
    it2 = received_.erase(it2);
  }
  expire_originated();
}

void DenBasicService::schedule_kaf(ActionId id) {
  auto it = received_.find(key(id));
  if (it == received_.end()) return;
  auto& st = it->second;
  sched_.cancel(st.kaf_timer);
  if (!st.area) return;  // no scope to forward into

  sim::SimTime interval = config_.kaf_default_interval;
  if (st.last_denm.management.transmission_interval_ms) {
    // Forward only after the originator visibly stopped repeating.
    interval = sim::SimTime::milliseconds(
                   *st.last_denm.management.transmission_interval_ms) *
               3;
  }
  if (sched_.now() + interval >= st.expires) return;  // event about to expire

  st.kaf_timer = sched_.post_in(interval, [this, id] {
    auto it2 = received_.find(key(id));
    if (it2 == received_.end() || it2->second.terminated || !it2->second.area) return;
    // Only stations inside the relevance area keep the event alive.
    if (!it2->second.area->contains(router_.ego().position)) return;
    ++stats_.kaf_retransmissions;
    if (trace_) {
      trace_->record_event(sched_.now(), sim::Stage::KafForward, station_id_,
                           sim::pack_action(id.originating_station, id.sequence_number));
    }
    transmit(it2->second.last_denm, *it2->second.area);
    schedule_kaf(id);
  });
}

}  // namespace rst::its
