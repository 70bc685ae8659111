#include "rst/its/network/geonet.hpp"

#include <algorithm>
#include <cmath>

#include "rst/geo/geodesy.hpp"

namespace rst::its {

void LongPositionVector::encode(asn1::PerEncoder& e) const {
  e.bits(address.value, 64);
  e.bits(timestamp_ms, 32);
  e.constrained(latitude, -900000000, 900000001);
  e.constrained(longitude, -1800000000, 1800000001);
  e.boolean(position_accurate);
  e.constrained(speed_cms, -32768, 32767);
  e.constrained(heading_01deg, 0, 3601);
}

LongPositionVector LongPositionVector::decode(asn1::PerDecoder& d) {
  LongPositionVector v;
  v.address.value = d.bits(64);
  v.timestamp_ms = static_cast<std::uint32_t>(d.bits(32));
  v.latitude = static_cast<std::int32_t>(d.constrained(-900000000, 900000001));
  v.longitude = static_cast<std::int32_t>(d.constrained(-1800000000, 1800000001));
  v.position_accurate = d.boolean();
  v.speed_cms = static_cast<std::int16_t>(d.constrained(-32768, 32767));
  v.heading_01deg = static_cast<std::uint16_t>(d.constrained(0, 3601));
  return v;
}

void WireGeoArea::encode(asn1::PerEncoder& e) const {
  e.constrained(center_latitude, -900000000, 900000001);
  e.constrained(center_longitude, -1800000000, 1800000001);
  e.bits(distance_a_m, 16);
  e.bits(distance_b_m, 16);
  e.constrained(angle_deg, 0, 360);
  e.constrained(shape, 0, 2);
}

WireGeoArea WireGeoArea::decode(asn1::PerDecoder& d) {
  WireGeoArea v;
  v.center_latitude = static_cast<std::int32_t>(d.constrained(-900000000, 900000001));
  v.center_longitude = static_cast<std::int32_t>(d.constrained(-1800000000, 1800000001));
  v.distance_a_m = static_cast<std::uint16_t>(d.bits(16));
  v.distance_b_m = static_cast<std::uint16_t>(d.bits(16));
  v.angle_deg = static_cast<std::uint16_t>(d.constrained(0, 360));
  v.shape = static_cast<std::uint8_t>(d.constrained(0, 2));
  return v;
}

std::vector<std::uint8_t> GnPacket::encode() const {
  // ~56 bytes of GN headers ahead of the BTP payload.
  asn1::PerEncoder e{64 + payload.size()};
  e.constrained(version, 0, 15);
  e.enumerated(static_cast<std::uint32_t>(type), kGnPacketTypeCount);
  e.constrained(traffic_class, 0, 63);
  e.bits(remaining_hop_limit, 8);
  e.bits(lifetime_50ms, 16);
  e.bits(sequence_number, 16);
  source.encode(e);
  forwarder.encode(e);
  e.boolean(destination_area.has_value());
  if (destination_area) destination_area->encode(e);
  e.boolean(destination.has_value());
  if (destination) destination->encode(e);
  e.octet_string(payload);
  return std::move(e).finish();
}

GnPacket GnPacket::decode(const std::vector<std::uint8_t>& buf) {
  asn1::PerDecoder d{buf};
  GnPacket v;
  v.version = static_cast<std::uint8_t>(d.constrained(0, 15));
  v.type = static_cast<GnPacketType>(d.enumerated(kGnPacketTypeCount));
  v.traffic_class = static_cast<std::uint8_t>(d.constrained(0, 63));
  v.remaining_hop_limit = static_cast<std::uint8_t>(d.bits(8));
  v.lifetime_50ms = static_cast<std::uint16_t>(d.bits(16));
  v.sequence_number = static_cast<std::uint16_t>(d.bits(16));
  v.source = LongPositionVector::decode(d);
  v.forwarder = LongPositionVector::decode(d);
  if (d.boolean()) v.destination_area = WireGeoArea::decode(d);
  if (d.boolean()) v.destination = LongPositionVector::decode(d);
  v.payload = d.octet_string();
  return v;
}

namespace {

/// The GN packet of the frame buffer this thread decoded last, or nullopt
/// when those bytes do not decode. A broadcast reaches all its receivers
/// as one shared buffer, so they decode it once between them and share one
/// payload buffer. Holding `frame` keeps the buffer, and with it the key,
/// alive.
struct DecodeMemo {
  Bytes frame;
  std::optional<GnPacket> packet;
};

/// The first entry of `table` whose address is not below `address`.
template <typename Table>
auto lower_bound_address(Table& table, std::uint64_t address) {
  return std::lower_bound(table.begin(), table.end(), address,
                          [](const LocationTableEntry& e, std::uint64_t a) {
                            return e.position_vector.address.value < a;
                          });
}

const std::optional<GnPacket>& decode_memoized(const Bytes& frame) {
  thread_local DecodeMemo memo;
  if (frame.storage_id() == nullptr || frame.storage_id() != memo.frame.storage_id()) {
    try {
      memo.packet = GnPacket::decode(frame);
    } catch (const asn1::DecodeError&) {
      memo.packet.reset();
    }
    memo.frame = frame;  // only once the entry matches it: other exceptions propagate
  }
  return memo.packet;
}

}  // namespace

GeoNetRouter::GeoNetRouter(sim::Scheduler& sched, dot11p::Radio& radio, const geo::LocalFrame& frame,
                           GnAddress address, EgoProvider ego, GeoNetConfig config,
                           sim::RandomStream rng, sim::Trace* trace)
    : sched_{sched},
      radio_{radio},
      frame_{frame},
      address_{address},
      ego_{std::move(ego)},
      config_{config},
      rng_{rng.child("geonet")},
      trace_{trace},
      beacon_timer_{sched, [this] { send_beacon(); }} {
  radio_.set_receive_callback(
      [this](const dot11p::Frame& f, const dot11p::RxInfo& info) { on_frame(f, info); });
  if (config_.enable_beaconing) schedule_beacon();
}

GeoNetRouter::~GeoNetRouter() {
  radio_.set_receive_callback(nullptr);
  for (const auto& [key, timer] : cbf_timers_) sched_.cancel(timer);
}

LongPositionVector GeoNetRouter::make_position_vector() const {
  const EgoState ego = ego_();
  const geo::GeoPosition gp = frame_.to_geo(ego.position);
  LongPositionVector pv;
  pv.address = address_;
  pv.timestamp_ms = static_cast<std::uint32_t>(sched_.now().count_ns() / 1'000'000);
  pv.latitude = geo::to_its_tenth_microdegree(gp.latitude_deg);
  pv.longitude = geo::to_its_tenth_microdegree(gp.longitude_deg);
  pv.position_accurate = true;
  pv.speed_cms = static_cast<std::int16_t>(std::clamp(ego.speed_mps * 100.0, -32768.0, 32767.0));
  double heading_deg = ego.heading_rad * 180.0 / M_PI;
  heading_deg = std::fmod(heading_deg, 360.0);
  if (heading_deg < 0) heading_deg += 360.0;
  pv.heading_01deg = static_cast<std::uint16_t>(heading_deg * 10.0);
  return pv;
}

WireGeoArea GeoNetRouter::area_to_wire(const geo::GeoArea& a) const {
  const geo::GeoPosition c = frame_.to_geo(a.center);
  WireGeoArea w;
  w.center_latitude = geo::to_its_tenth_microdegree(c.latitude_deg);
  w.center_longitude = geo::to_its_tenth_microdegree(c.longitude_deg);
  w.distance_a_m = static_cast<std::uint16_t>(std::min(a.a, 65535.0));
  w.distance_b_m = static_cast<std::uint16_t>(std::min(a.b, 65535.0));
  w.angle_deg = static_cast<std::uint16_t>(std::fmod(a.azimuth_rad * 180.0 / M_PI + 360.0, 360.0));
  switch (a.shape) {
    case geo::AreaShape::Circle: w.shape = 0; break;
    case geo::AreaShape::Rectangle: w.shape = 1; break;
    case geo::AreaShape::Ellipse: w.shape = 2; break;
  }
  return w;
}

geo::GeoArea GeoNetRouter::area_from_wire(const WireGeoArea& w) const {
  geo::GeoPosition c{geo::from_its_tenth_microdegree(w.center_latitude),
                     geo::from_its_tenth_microdegree(w.center_longitude)};
  geo::GeoArea a;
  a.center = frame_.to_local(c);
  a.a = w.distance_a_m;
  a.b = w.distance_b_m;
  a.azimuth_rad = w.angle_deg * M_PI / 180.0;
  switch (w.shape) {
    case 0: a.shape = geo::AreaShape::Circle; break;
    case 1: a.shape = geo::AreaShape::Rectangle; break;
    default: a.shape = geo::AreaShape::Ellipse; break;
  }
  return a;
}

void GeoNetRouter::broadcast(const GnPacket& pkt, dot11p::AccessCategory ac) {
  prune_tables();  // housekeeping piggybacks on traffic
  dot11p::Frame f;
  f.payload = pkt.encode();
  f.ac = ac;
  if (send_hook_) {
    send_hook_(std::move(f));
  } else {
    radio_.send(std::move(f));
  }
}

void GeoNetRouter::send_shb(std::vector<std::uint8_t> btp_pdu, dot11p::AccessCategory ac) {
  GnPacket pkt;
  pkt.type = GnPacketType::Shb;
  pkt.remaining_hop_limit = 1;
  pkt.source = make_position_vector();
  pkt.forwarder = pkt.source;
  pkt.payload = std::move(btp_pdu);
  ++stats_.originated;
  broadcast(pkt, ac);
}

void GeoNetRouter::send_tsb(std::vector<std::uint8_t> btp_pdu, std::uint8_t hop_limit,
                            dot11p::AccessCategory ac) {
  GnPacket pkt;
  pkt.type = GnPacketType::Tsb;
  pkt.remaining_hop_limit = hop_limit;
  pkt.sequence_number = next_sequence_++;
  pkt.source = make_position_vector();
  pkt.forwarder = pkt.source;
  pkt.payload = std::move(btp_pdu);
  remember(address_, pkt.sequence_number);  // never re-forward own packet
  ++stats_.originated;
  broadcast(pkt, ac);
}

void GeoNetRouter::send_gbc(std::vector<std::uint8_t> btp_pdu, const geo::GeoArea& area,
                            dot11p::AccessCategory ac, std::optional<std::uint8_t> hop_limit) {
  GnPacket pkt;
  pkt.type = GnPacketType::Gbc;
  pkt.remaining_hop_limit = hop_limit.value_or(config_.default_hop_limit);
  pkt.sequence_number = next_sequence_++;
  pkt.source = make_position_vector();
  pkt.forwarder = pkt.source;
  pkt.destination_area = area_to_wire(area);
  pkt.payload = std::move(btp_pdu);
  remember(address_, pkt.sequence_number);
  ++stats_.originated;
  broadcast(pkt, ac);
}

void GeoNetRouter::transmit_guc(std::vector<std::uint8_t> btp_pdu,
                                const LongPositionVector& destination, dot11p::AccessCategory ac,
                                std::optional<std::uint8_t> hop_limit) {
  GnPacket pkt;
  pkt.type = GnPacketType::Guc;
  pkt.remaining_hop_limit = hop_limit.value_or(config_.default_hop_limit);
  pkt.sequence_number = next_sequence_++;
  pkt.source = make_position_vector();
  pkt.forwarder = pkt.source;
  pkt.destination = destination;
  pkt.payload = std::move(btp_pdu);
  remember(address_, pkt.sequence_number);
  ++stats_.originated;
  broadcast(pkt, ac);
}

std::optional<LocationTableEntry> GeoNetRouter::location_entry(GnAddress address) const {
  const auto it = lower_bound_address(location_table_, address.value);
  if (it == location_table_.end() || it->position_vector.address != address) return std::nullopt;
  return *it;
}

bool GeoNetRouter::send_guc(std::vector<std::uint8_t> btp_pdu, GnAddress destination,
                            dot11p::AccessCategory ac, std::optional<std::uint8_t> hop_limit) {
  if (const std::optional<LocationTableEntry> entry = location_entry(destination)) {
    transmit_guc(std::move(btp_pdu), entry->position_vector, ac, hop_limit);
    return true;
  }
  // Unknown position: buffer the PDU and run the location service.
  auto& queue = ls_buffer_[destination.value];
  // Expire stale entries opportunistically.
  std::erase_if(queue, [&](const PendingGuc& p) {
    return sched_.now() - p.queued > config_.ls_buffer_lifetime;
  });
  if (queue.size() >= config_.ls_buffer_capacity) {
    ++stats_.ls_buffer_dropped;
    return false;
  }
  queue.push_back({std::move(btp_pdu), ac, hop_limit, sched_.now()});

  GnPacket request;
  request.type = GnPacketType::LsRequest;
  request.remaining_hop_limit = config_.ls_hop_limit;
  request.sequence_number = next_sequence_++;
  request.source = make_position_vector();
  request.forwarder = request.source;
  LongPositionVector target;
  target.address = destination;
  request.destination = target;  // only the address is meaningful
  remember(address_, request.sequence_number);
  ++stats_.ls_requests_sent;
  broadcast(request, dot11p::AccessCategory::BestEffort);
  return true;
}

void GeoNetRouter::flush_ls_buffer(GnAddress destination) {
  const auto it = ls_buffer_.find(destination.value);
  if (it == ls_buffer_.end()) return;
  const std::optional<LocationTableEntry> entry = location_entry(destination);
  if (!entry) return;
  std::vector<PendingGuc> queue = std::move(it->second);
  ls_buffer_.erase(it);
  for (auto& pending : queue) {
    if (sched_.now() - pending.queued > config_.ls_buffer_lifetime) {
      ++stats_.ls_buffer_dropped;
      continue;
    }
    transmit_guc(std::move(pending.btp_pdu), entry->position_vector, pending.ac,
                 pending.hop_limit);
  }
}

void GeoNetRouter::handle_ls_request(GnPacket pkt) {
  if (!pkt.destination) return;
  if (is_duplicate(pkt.source.address, pkt.sequence_number)) {
    ++stats_.duplicates_dropped;
    return;
  }
  remember(pkt.source.address, pkt.sequence_number);

  if (pkt.destination->address == address_) {
    // We are the sought station: answer with a unicast LS reply towards
    // the requester's advertised position.
    GnPacket reply;
    reply.type = GnPacketType::LsReply;
    reply.remaining_hop_limit = config_.ls_hop_limit;
    reply.sequence_number = next_sequence_++;
    reply.source = make_position_vector();
    reply.forwarder = reply.source;
    reply.destination = pkt.source;
    remember(address_, reply.sequence_number);
    ++stats_.ls_replies_sent;
    broadcast(reply, dot11p::AccessCategory::BestEffort);
    return;
  }
  // Not us: flood on (TSB-style).
  if (pkt.remaining_hop_limit > 1) {
    GnPacket fwd = std::move(pkt);
    --fwd.remaining_hop_limit;
    fwd.forwarder = make_position_vector();
    ++stats_.forwarded;
    if (trace_) {
      trace_->record_event(sched_.now(), sim::Stage::GnForward,
                           static_cast<std::uint32_t>(address_.value), fwd.sequence_number);
    }
    broadcast(fwd, dot11p::AccessCategory::BestEffort);
  }
}

bool GeoNetRouter::is_duplicate(GnAddress src, std::uint16_t seq) {
  prune_tables();
  return dpd_.contains({src.value, seq});
}

void GeoNetRouter::remember(GnAddress src, std::uint16_t seq) {
  dpd_[{src.value, seq}] = DpdEntry{sched_.now()};
}

void GeoNetRouter::update_location_table(const LongPositionVector& pv) {
  if (pv.address == address_) return;
  auto it = lower_bound_address(location_table_, pv.address.value);
  const bool fresh = it == location_table_.end() || it->position_vector.address != pv.address;
  if (fresh) it = location_table_.insert(it, LocationTableEntry{});
  it->position_vector = pv;
  it->last_update = sched_.now();
  ++it->packets_received;
  if (fresh) flush_ls_buffer(pv.address);
}

void GeoNetRouter::prune_tables() {
  const sim::SimTime now = sched_.now();
  std::erase_if(dpd_, [&](const auto& kv) {
    return now - kv.second.seen > config_.duplicate_entry_lifetime;
  });
  std::erase_if(location_table_, [&](const LocationTableEntry& e) {
    return now - e.last_update > config_.location_entry_lifetime;
  });
}

void GeoNetRouter::on_frame(const dot11p::Frame& f, const dot11p::RxInfo& info) {
  const std::optional<GnPacket>& decoded = decode_memoized(f.payload);
  if (!decoded) return;  // not a GN packet / corrupted beyond the CRC model
  if (decoded->source.address == address_) return;  // echo of our own origination
  GnPacket pkt = *decoded;  // our copy; the payload buffer stays shared

  // Lifetime check (EN 302 636-4-1 §10.3.3): a packet older than its
  // lifetime is dropped, not processed or forwarded. Source timestamps are
  // on the shared GN time base (ms mod 2^32).
  const auto now_ms = static_cast<std::uint32_t>(sched_.now().count_ns() / 1'000'000);
  const std::uint32_t age_ms = now_ms - pkt.source.timestamp_ms;  // mod-2^32 arithmetic
  if (age_ms > static_cast<std::uint32_t>(pkt.lifetime_50ms) * 50 && age_ms < 0x80000000u) {
    ++stats_.lifetime_expired_dropped;
    return;
  }

  update_location_table(pkt.source);
  if (pkt.forwarder.address != pkt.source.address) update_location_table(pkt.forwarder);

  const auto deliver_up = [&] {
    if (!deliver_) return;
    const geo::GeoPosition sp{geo::from_its_tenth_microdegree(pkt.source.latitude),
                              geo::from_its_tenth_microdegree(pkt.source.longitude)};
    GnDeliveryMeta meta;
    meta.source = pkt.source.address;
    meta.source_position = frame_.to_local(sp);
    meta.rssi_dbm = info.rssi_dbm;
    meta.hops_traversed = static_cast<std::uint8_t>(config_.default_hop_limit - pkt.remaining_hop_limit);
    meta.delivered_at = sched_.now();
    ++stats_.delivered_up;
    deliver_(pkt.payload, meta);
  };

  switch (pkt.type) {
    case GnPacketType::Beacon:
      return;  // location table already updated
    case GnPacketType::Shb:
      deliver_up();
      return;
    case GnPacketType::Tsb: {
      if (is_duplicate(pkt.source.address, pkt.sequence_number)) {
        ++stats_.duplicates_dropped;
        return;
      }
      remember(pkt.source.address, pkt.sequence_number);
      deliver_up();
      if (pkt.remaining_hop_limit > 1) {
        GnPacket fwd = pkt;
        --fwd.remaining_hop_limit;
        fwd.forwarder = make_position_vector();
        ++stats_.forwarded;
        if (trace_) {
          trace_->record_event(sched_.now(), sim::Stage::GnForward,
                               static_cast<std::uint32_t>(address_.value), fwd.sequence_number);
        }
        broadcast(fwd, dot11p::AccessCategory::Video);
      }
      return;
    }
    case GnPacketType::Gbc:
      handle_gbc(std::move(pkt), info);
      return;
    case GnPacketType::Guc:
      handle_guc(std::move(pkt), info);
      return;
    case GnPacketType::LsRequest:
      handle_ls_request(std::move(pkt));
      return;
    case GnPacketType::LsReply:
      // Routed like a unicast; the location-table update above already
      // captured the sought station's position vector.
      handle_guc(std::move(pkt), info);
      return;
  }
}

void GeoNetRouter::handle_gbc(GnPacket pkt, const dot11p::RxInfo& /*info*/) {
  if (!pkt.destination_area) return;
  const auto key = std::make_pair(pkt.source.address.value, pkt.sequence_number);

  // A duplicate heard while a CBF timer runs means a neighbour already
  // forwarded the packet: suppress our own retransmission (Annex F).
  if (auto it = cbf_timers_.find(key); it != cbf_timers_.end()) {
    sched_.cancel(it->second);
    cbf_timers_.erase(it);
    ++stats_.cbf_suppressed;
    return;
  }
  if (is_duplicate(pkt.source.address, pkt.sequence_number)) {
    ++stats_.duplicates_dropped;
    return;
  }
  remember(pkt.source.address, pkt.sequence_number);

  const geo::GeoArea area = area_from_wire(*pkt.destination_area);
  const geo::Vec2 my_pos = ego_().position;
  const bool inside = area.contains(my_pos);

  if (inside) {
    if (deliver_) {
      const geo::GeoPosition sp{geo::from_its_tenth_microdegree(pkt.source.latitude),
                                geo::from_its_tenth_microdegree(pkt.source.longitude)};
      GnDeliveryMeta meta;
      meta.source = pkt.source.address;
      meta.source_position = frame_.to_local(sp);
      meta.hops_traversed = static_cast<std::uint8_t>(config_.default_hop_limit - pkt.remaining_hop_limit);
      meta.delivered_at = sched_.now();
      meta.destination_area = area;
      ++stats_.delivered_up;
      deliver_(pkt.payload, meta);
    }
  }

  if (pkt.remaining_hop_limit <= 1) return;

  // Forwarding decision. Inside the area: contention-based flooding.
  // Outside: forward only with geometric progress towards the area centre
  // relative to the previous forwarder (greedy line forwarding).
  const geo::GeoPosition fp{geo::from_its_tenth_microdegree(pkt.forwarder.latitude),
                            geo::from_its_tenth_microdegree(pkt.forwarder.longitude)};
  const geo::Vec2 forwarder_pos = frame_.to_local(fp);
  double progress01 = 0.0;
  if (inside) {
    const double d = geo::distance(my_pos, forwarder_pos);
    progress01 = std::clamp(d / config_.cbf_max_range_m, 0.0, 1.0);
  } else {
    const double mine = geo::distance(my_pos, area.center);
    const double theirs = geo::distance(forwarder_pos, area.center);
    if (mine >= theirs) {
      ++stats_.out_of_area_dropped;
      return;  // no progress towards the destination area
    }
    progress01 = std::clamp((theirs - mine) / config_.cbf_max_range_m, 0.0, 1.0);
  }

  arm_cbf(key, std::move(pkt), progress01);
}

void GeoNetRouter::handle_guc(GnPacket pkt, const dot11p::RxInfo& /*info*/) {
  if (!pkt.destination) return;
  const auto key = std::make_pair(pkt.source.address.value, pkt.sequence_number);

  // A copy heard while our forwarding timer runs: someone closer acted.
  if (auto it = cbf_timers_.find(key); it != cbf_timers_.end()) {
    sched_.cancel(it->second);
    cbf_timers_.erase(it);
    ++stats_.cbf_suppressed;
    return;
  }
  if (is_duplicate(pkt.source.address, pkt.sequence_number)) {
    ++stats_.duplicates_dropped;
    return;
  }
  remember(pkt.source.address, pkt.sequence_number);

  if (pkt.destination->address == address_) {
    if (deliver_ && !pkt.payload.empty()) {
      const geo::GeoPosition sp{geo::from_its_tenth_microdegree(pkt.source.latitude),
                                geo::from_its_tenth_microdegree(pkt.source.longitude)};
      GnDeliveryMeta meta;
      meta.source = pkt.source.address;
      meta.source_position = frame_.to_local(sp);
      meta.hops_traversed =
          static_cast<std::uint8_t>(config_.default_hop_limit - pkt.remaining_hop_limit);
      meta.delivered_at = sched_.now();
      ++stats_.delivered_up;
      deliver_(pkt.payload, meta);
    }
    return;
  }
  if (pkt.remaining_hop_limit <= 1) return;

  // Greedy forwarding towards the destination's advertised position, with
  // a contention delay so the best-placed neighbour acts first.
  const geo::GeoPosition dp{geo::from_its_tenth_microdegree(pkt.destination->latitude),
                            geo::from_its_tenth_microdegree(pkt.destination->longitude)};
  const geo::Vec2 dest_pos = frame_.to_local(dp);
  const geo::GeoPosition fp{geo::from_its_tenth_microdegree(pkt.forwarder.latitude),
                            geo::from_its_tenth_microdegree(pkt.forwarder.longitude)};
  const geo::Vec2 forwarder_pos = frame_.to_local(fp);
  const geo::Vec2 my_pos = ego_().position;
  const double mine = geo::distance(my_pos, dest_pos);
  const double theirs = geo::distance(forwarder_pos, dest_pos);
  if (mine >= theirs) {
    ++stats_.out_of_area_dropped;
    return;
  }
  arm_cbf(key, std::move(pkt),
          std::clamp((theirs - mine) / config_.cbf_max_range_m, 0.0, 1.0));
}

void GeoNetRouter::arm_cbf(CbfKey key, GnPacket fwd, double progress01) {
  // Larger progress -> shorter timer (better-placed nodes fire first).
  const auto span = config_.cbf_max_delay - config_.cbf_min_delay;
  const auto delay = config_.cbf_min_delay +
                     sim::SimTime::nanoseconds(static_cast<std::int64_t>(
                         static_cast<double>(span.count_ns()) * (1.0 - progress01)));
  --fwd.remaining_hop_limit;
  cbf_timers_[key] = sched_.post_in(delay, [this, key, fwd = std::move(fwd)]() mutable {
    cbf_timers_.erase(key);
    fwd.forwarder = make_position_vector();
    ++stats_.forwarded;
    if (trace_) {
      trace_->record_event(sched_.now(), sim::Stage::GnForward,
                           static_cast<std::uint32_t>(address_.value), fwd.sequence_number);
    }
    broadcast(fwd, dot11p::AccessCategory::Video);
  });
}

void GeoNetRouter::schedule_beacon() {
  const auto jitter = rng_.uniform_time(sim::SimTime::zero(), config_.beacon_interval / 4);
  beacon_timer_.arm_in(config_.beacon_interval + jitter);
}

void GeoNetRouter::send_beacon() {
  GnPacket pkt;
  pkt.type = GnPacketType::Beacon;
  pkt.remaining_hop_limit = 1;
  pkt.source = make_position_vector();
  pkt.forwarder = pkt.source;
  broadcast(pkt, dot11p::AccessCategory::Background);
  schedule_beacon();
}

}  // namespace rst::its
