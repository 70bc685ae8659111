#include "rst/its/messages/cam.hpp"

namespace rst::its {

void ItsPduHeader::encode(asn1::PerEncoder& e) const {
  e.constrained(protocol_version, 0, 255);
  e.constrained(static_cast<std::int64_t>(message_id), 0, 255);
  e.constrained(static_cast<std::int64_t>(station_id), 0, 4294967295LL);
}

ItsPduHeader ItsPduHeader::decode(asn1::PerDecoder& d) {
  ItsPduHeader h;
  h.protocol_version = static_cast<std::uint8_t>(d.constrained(0, 255));
  h.message_id = static_cast<MessageId>(d.constrained(0, 255));
  h.station_id = static_cast<StationId>(d.constrained(0, 4294967295LL));
  return h;
}

void BasicContainer::encode(asn1::PerEncoder& e) const {
  e.constrained(static_cast<std::int64_t>(station_type), 0, 255);
  reference_position.encode(e);
}

BasicContainer BasicContainer::decode(asn1::PerDecoder& d) {
  BasicContainer v;
  v.station_type = static_cast<StationType>(d.constrained(0, 255));
  v.reference_position = ReferencePosition::decode(d);
  return v;
}

void HighFrequencyContainer::encode(asn1::PerEncoder& e) const {
  heading.encode(e);
  speed.encode(e);
  e.enumerated(static_cast<std::uint32_t>(drive_direction), 3);
  e.constrained(vehicle_length_dm, 1, 1023);
  e.constrained(vehicle_width_dm, 1, 62);
  e.constrained(longitudinal_accel_dms2, -160, 161);
  e.constrained(curvature, -1023, 1023);
  e.constrained(yaw_rate_001degps, -32766, 32767);
}

HighFrequencyContainer HighFrequencyContainer::decode(asn1::PerDecoder& d) {
  HighFrequencyContainer v;
  v.heading = Heading::decode(d);
  v.speed = Speed::decode(d);
  v.drive_direction = static_cast<DriveDirection>(d.enumerated(3));
  v.vehicle_length_dm = static_cast<std::uint16_t>(d.constrained(1, 1023));
  v.vehicle_width_dm = static_cast<std::uint8_t>(d.constrained(1, 62));
  v.longitudinal_accel_dms2 = static_cast<std::int16_t>(d.constrained(-160, 161));
  v.curvature = static_cast<std::int32_t>(d.constrained(-1023, 1023));
  v.yaw_rate_001degps = static_cast<std::int16_t>(d.constrained(-32766, 32767));
  return v;
}

void LowFrequencyContainer::encode(asn1::PerEncoder& e) const {
  e.bits(exterior_lights, 8);
  path_history.encode(e);
}

LowFrequencyContainer LowFrequencyContainer::decode(asn1::PerDecoder& d) {
  LowFrequencyContainer v;
  v.exterior_lights = static_cast<std::uint8_t>(d.bits(8));
  v.path_history = PathHistory::decode(d);
  return v;
}

std::vector<std::uint8_t> Cam::encode() const {
  asn1::PerEncoder e{128};  // a CAM with path history encodes to ~60-90 B
  header.encode(e);
  e.constrained(generation_delta_time, 0, 65535);
  // CamParameters: presence bitmap for the optional LowFrequencyContainer
  // (the optional SpecialVehicleContainer of the standard is not modelled).
  e.boolean(low_frequency.has_value());
  basic.encode(e);
  high_frequency.encode(e);
  if (low_frequency) low_frequency->encode(e);
  return std::move(e).finish();
}

Cam Cam::decode(std::span<const std::uint8_t> buf) {
  asn1::PerDecoder d{buf.data(), buf.size()};
  Cam v;
  v.header = ItsPduHeader::decode(d);
  if (v.header.message_id != MessageId::Cam) throw asn1::DecodeError{"Cam::decode: not a CAM"};
  v.generation_delta_time = static_cast<std::uint16_t>(d.constrained(0, 65535));
  const bool has_lf = d.boolean();
  v.basic = BasicContainer::decode(d);
  v.high_frequency = HighFrequencyContainer::decode(d);
  if (has_lf) v.low_frequency = LowFrequencyContainer::decode(d);
  return v;
}

}  // namespace rst::its
