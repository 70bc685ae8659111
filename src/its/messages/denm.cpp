#include "rst/its/messages/denm.hpp"

#include <stdexcept>

namespace rst::its {

void ManagementContainer::encode(asn1::PerEncoder& e) const {
  // Presence bitmap for the optional fields, in field order.
  e.boolean(termination.has_value());
  e.boolean(relevance_distance.has_value());
  e.boolean(relevance_traffic_direction.has_value());
  e.boolean(transmission_interval_ms.has_value());

  action_id.encode(e);
  encode_timestamp_its(e, detection_time);
  encode_timestamp_its(e, reference_time);
  if (termination) e.enumerated(static_cast<std::uint32_t>(*termination), 2);
  event_position.encode(e);
  if (relevance_distance) e.enumerated(static_cast<std::uint32_t>(*relevance_distance), 8);
  if (relevance_traffic_direction) {
    e.enumerated(static_cast<std::uint32_t>(*relevance_traffic_direction), 4);
  }
  e.constrained(validity_duration_s, 0, 86400);
  if (transmission_interval_ms) e.constrained(*transmission_interval_ms, 1, 10000);
  e.constrained(static_cast<std::int64_t>(station_type), 0, 255);
}

ManagementContainer ManagementContainer::decode(asn1::PerDecoder& d) {
  ManagementContainer v;
  const bool has_term = d.boolean();
  const bool has_rd = d.boolean();
  const bool has_rtd = d.boolean();
  const bool has_ti = d.boolean();

  v.action_id = ActionId::decode(d);
  v.detection_time = decode_timestamp_its(d);
  v.reference_time = decode_timestamp_its(d);
  if (has_term) v.termination = static_cast<Termination>(d.enumerated(2));
  v.event_position = ReferencePosition::decode(d);
  if (has_rd) v.relevance_distance = static_cast<RelevanceDistance>(d.enumerated(8));
  if (has_rtd) v.relevance_traffic_direction = static_cast<RelevanceTrafficDirection>(d.enumerated(4));
  v.validity_duration_s = static_cast<std::uint32_t>(d.constrained(0, 86400));
  if (has_ti) v.transmission_interval_ms = static_cast<std::uint16_t>(d.constrained(1, 10000));
  v.station_type = static_cast<StationType>(d.constrained(0, 255));
  return v;
}

void SituationContainer::encode(asn1::PerEncoder& e) const {
  e.boolean(linked_cause.has_value());
  e.constrained(information_quality, 0, 7);
  event_type.encode(e);
  if (linked_cause) linked_cause->encode(e);
}

SituationContainer SituationContainer::decode(asn1::PerDecoder& d) {
  SituationContainer v;
  const bool has_lc = d.boolean();
  v.information_quality = static_cast<std::uint8_t>(d.constrained(0, 7));
  v.event_type = EventType::decode(d);
  if (has_lc) v.linked_cause = EventType::decode(d);
  return v;
}

void LocationContainer::encode(asn1::PerEncoder& e) const {
  if (traces.empty() || traces.size() > 7) {
    throw std::invalid_argument{"LocationContainer: traces must have 1..7 entries"};
  }
  e.boolean(event_speed.has_value());
  e.boolean(event_position_heading.has_value());
  if (event_speed) event_speed->encode(e);
  if (event_position_heading) event_position_heading->encode(e);
  e.constrained(static_cast<std::int64_t>(traces.size()), 1, 7);
  for (const auto& t : traces) t.encode(e);
}

LocationContainer LocationContainer::decode(asn1::PerDecoder& d) {
  LocationContainer v;
  const bool has_speed = d.boolean();
  const bool has_heading = d.boolean();
  if (has_speed) v.event_speed = Speed::decode(d);
  if (has_heading) v.event_position_heading = Heading::decode(d);
  const auto n = static_cast<std::size_t>(d.constrained(1, 7));
  v.traces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.traces.push_back(PathHistory::decode(d));
  return v;
}

void StationaryVehicleContainer::encode(asn1::PerEncoder& e) const {
  e.boolean(stationary_since.has_value());
  e.boolean(number_of_occupants.has_value());
  if (stationary_since) e.constrained(*stationary_since, 0, 3);
  if (number_of_occupants) e.constrained(*number_of_occupants, 0, 127);
}

StationaryVehicleContainer StationaryVehicleContainer::decode(asn1::PerDecoder& d) {
  StationaryVehicleContainer v;
  const bool has_ss = d.boolean();
  const bool has_no = d.boolean();
  if (has_ss) v.stationary_since = static_cast<std::uint8_t>(d.constrained(0, 3));
  if (has_no) v.number_of_occupants = static_cast<std::uint8_t>(d.constrained(0, 127));
  return v;
}

void AlacarteContainer::encode(asn1::PerEncoder& e) const {
  e.boolean(lane_position.has_value());
  e.boolean(external_temperature.has_value());
  e.boolean(stationary_vehicle.has_value());
  if (lane_position) e.constrained(*lane_position, -1, 14);
  if (external_temperature) e.constrained(*external_temperature, -60, 67);
  if (stationary_vehicle) stationary_vehicle->encode(e);
}

AlacarteContainer AlacarteContainer::decode(asn1::PerDecoder& d) {
  AlacarteContainer v;
  const bool has_lp = d.boolean();
  const bool has_et = d.boolean();
  const bool has_sv = d.boolean();
  if (has_lp) v.lane_position = static_cast<std::int8_t>(d.constrained(-1, 14));
  if (has_et) v.external_temperature = static_cast<std::int8_t>(d.constrained(-60, 67));
  if (has_sv) v.stationary_vehicle = StationaryVehicleContainer::decode(d);
  return v;
}

std::vector<std::uint8_t> Denm::encode() const {
  asn1::PerEncoder e{160};  // a DENM with traces encodes to ~80-130 B
  header.encode(e);
  e.boolean(situation.has_value());
  e.boolean(location.has_value());
  e.boolean(alacarte.has_value());
  management.encode(e);
  if (situation) situation->encode(e);
  if (location) location->encode(e);
  if (alacarte) alacarte->encode(e);
  return std::move(e).finish();
}

Denm Denm::decode(std::span<const std::uint8_t> buf) {
  asn1::PerDecoder d{buf.data(), buf.size()};
  Denm v;
  v.header = ItsPduHeader::decode(d);
  if (v.header.message_id != MessageId::Denm) throw asn1::DecodeError{"Denm::decode: not a DENM"};
  const bool has_sit = d.boolean();
  const bool has_loc = d.boolean();
  const bool has_alc = d.boolean();
  v.management = ManagementContainer::decode(d);
  if (has_sit) v.situation = SituationContainer::decode(d);
  if (has_loc) v.location = LocationContainer::decode(d);
  if (has_alc) v.alacarte = AlacarteContainer::decode(d);
  return v;
}

}  // namespace rst::its
