#include "rst/middleware/openc2x_api.hpp"

namespace rst::middleware {

OpenC2xApi::OpenC2xApi(HttpHost& host, const geo::LocalFrame& frame, its::DenBasicService& den,
                       its::Ldm* ldm, sim::Trace* trace, its::CaBasicService* ca,
                       std::size_t max_inbox)
    : frame_{frame},
      den_{den},
      ca_{ca},
      ldm_{ldm},
      trace_{trace},
      max_inbox_{max_inbox == 0 ? 1 : max_inbox} {
  den_.set_denm_callback([this](const its::Denm& denm, const its::GnDeliveryMeta& meta, bool) {
    // Bounded inbox: a slow (or dead) poller must not let undelivered DENMs
    // accumulate without limit. Drop the OLDEST — the newest message holds
    // the freshest event state.
    while (inbox_.size() >= max_inbox_) {
      const its::ActionId dropped = inbox_.front().denm.management.action_id;
      inbox_.pop_front();
      ++stats_.denms_dropped;
      if (trace_) {
        trace_->record_event(meta.delivered_at, sim::Stage::InboxDrop, den_.station_id(),
                             sim::pack_action(dropped.originating_station,
                                              dropped.sequence_number));
      }
    }
    inbox_.push_back({denm, meta.delivered_at});
  });
  host.handle("/trigger_denm", [this](const HttpRequest& req) { return handle_trigger_denm(req); });
  host.handle("/request_denm", [this](const HttpRequest& req) { return handle_request_denm(req); });
  host.handle("/ldm", [this](const HttpRequest&) {
    return HttpResponse{200, ldm_ ? ldm_->dump() : std::string{"no LDM attached"}};
  });
  host.handle("/trigger_cam", [this](const HttpRequest&) {
    if (!ca_) return HttpResponse{503, "no CA service attached"};
    ca_->send_now();
    return HttpResponse{200, "cam sent"};
  });
  host.handle("/cam_table", [this](const HttpRequest&) {
    if (!ldm_) return HttpResponse{503, "no LDM attached"};
    KvBody out;
    int index = 0;
    for (const auto& v : ldm_->vehicles()) {
      const std::string prefix = "station" + std::to_string(index++);
      out.set_int(prefix + ".id", v.station_id);
      out.set_double(prefix + ".x", v.position.x);
      out.set_double(prefix + ".y", v.position.y);
      out.set_double(prefix + ".speed", v.speed_mps);
      out.set_int(prefix + ".cams", static_cast<std::int64_t>(v.cam_count));
    }
    out.set_int("count", index);
    return HttpResponse{200, out.serialize()};
  });
}

its::DenmRequest OpenC2xApi::parse_trigger_body(const std::string& body) const {
  const KvBody kv = KvBody::parse(body);
  its::DenmRequest r;
  r.event_type.cause_code = static_cast<std::uint8_t>(kv.get_int("cause").value_or(0));
  r.event_type.sub_cause_code = static_cast<std::uint8_t>(kv.get_int("subcause").value_or(0));
  r.information_quality = static_cast<std::uint8_t>(kv.get_int("quality").value_or(3));
  r.event_position.x = kv.get_double("x").value_or(0.0);
  r.event_position.y = kv.get_double("y").value_or(0.0);
  r.validity = sim::SimTime::milliseconds(kv.get_int("validity_ms").value_or(600000));
  const double radius = kv.get_double("radius_m").value_or(100.0);
  r.destination_area = geo::GeoArea::circle(r.event_position, radius);
  if (const auto repeat = kv.get_int("repeat_ms"); repeat && *repeat > 0) {
    r.repetition_interval = sim::SimTime::milliseconds(*repeat);
    r.repetition_duration = sim::SimTime::milliseconds(kv.get_int("repeat_dur_ms").value_or(0));
  }
  if (const auto speed = kv.get_double("event_speed")) r.event_speed_mps = *speed;
  if (const auto heading = kv.get_double("event_heading")) r.event_heading_rad = *heading;
  r.station_type = its::StationType::RoadSideUnit;
  return r;
}

HttpResponse OpenC2xApi::handle_trigger_denm(const HttpRequest& req) {
  const its::DenmRequest r = parse_trigger_body(req.body);
  const its::ActionId id = den_.trigger(r);
  KvBody out;
  out.set_int("station", id.originating_station);
  out.set_int("sequence", id.sequence_number);
  return {200, out.serialize()};
}

HttpResponse OpenC2xApi::handle_request_denm(const HttpRequest&) {
  if (inbox_.empty()) return {200, {}};
  // Drain everything pending in one response: with the inbox now bounded, a
  // one-message-per-poll reply could fall behind a bursty sender forever.
  KvBody out;
  int index = 0;
  while (!inbox_.empty()) {
    InboxEntry entry = std::move(inbox_.front());
    inbox_.pop_front();
    const std::string suffix = std::to_string(index++);
    out.set("denm" + suffix, hex_encode(entry.denm.encode()));
    out.set_int("received_ns" + suffix, entry.received.count_ns());
  }
  out.set_int("count", index);
  return {200, out.serialize()};
}

}  // namespace rst::middleware
