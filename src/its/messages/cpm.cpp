#include "rst/its/messages/cpm.hpp"

#include <array>

namespace rst::its {

namespace {

// Wire class code <-> YOLO label. Index == wire code; code 0 doubles as
// the catch-all for labels outside the table.
constexpr std::array<std::string_view, 8> kClassLabels = {
    "unknown", "person", "bicycle", "motorbike", "car", "bus", "truck", "stop sign",
};

}  // namespace

std::uint8_t cpm_class_from_label(std::string_view label) {
  for (std::size_t i = 1; i < kClassLabels.size(); ++i) {
    if (kClassLabels[i] == label) return static_cast<std::uint8_t>(i);
  }
  return 0;
}

std::string_view cpm_label_from_class(std::uint8_t object_class) {
  if (object_class >= kClassLabels.size()) return kClassLabels[0];
  return kClassLabels[object_class];
}

void CpmManagementContainer::encode(asn1::PerEncoder& e) const {
  e.constrained(static_cast<std::int64_t>(station_type), 0, 255);
  reference_position.encode(e);
}

CpmManagementContainer CpmManagementContainer::decode(asn1::PerDecoder& d) {
  CpmManagementContainer v;
  v.station_type = static_cast<StationType>(d.constrained(0, 255));
  v.reference_position = ReferencePosition::decode(d);
  return v;
}

void CpmPerceivedObject::encode(asn1::PerEncoder& e) const {
  e.constrained(object_id, 0, 65535);
  e.constrained(age_ms, 0, 1500);
  e.constrained(x_offset_cm, -132768, 132767);
  e.constrained(y_offset_cm, -132768, 132767);
  e.constrained(x_speed_cms, -16383, 16383);
  e.constrained(y_speed_cms, -16383, 16383);
  e.constrained(object_class, 0, 255);
  e.constrained(confidence_pct, 0, 100);
}

CpmPerceivedObject CpmPerceivedObject::decode(asn1::PerDecoder& d) {
  CpmPerceivedObject v;
  v.object_id = static_cast<std::uint16_t>(d.constrained(0, 65535));
  v.age_ms = static_cast<std::uint16_t>(d.constrained(0, 1500));
  v.x_offset_cm = static_cast<std::int32_t>(d.constrained(-132768, 132767));
  v.y_offset_cm = static_cast<std::int32_t>(d.constrained(-132768, 132767));
  v.x_speed_cms = static_cast<std::int16_t>(d.constrained(-16383, 16383));
  v.y_speed_cms = static_cast<std::int16_t>(d.constrained(-16383, 16383));
  v.object_class = static_cast<std::uint8_t>(d.constrained(0, 255));
  v.confidence_pct = static_cast<std::uint8_t>(d.constrained(0, 100));
  return v;
}

std::vector<std::uint8_t> Cpm::encode() const {
  asn1::PerEncoder e{32 + 16 * objects.size()};
  header.encode(e);
  e.constrained(generation_delta_time, 0, 65535);
  management.encode(e);
  e.constrained(static_cast<std::int64_t>(objects.size()), 0,
                static_cast<std::int64_t>(kCpmMaxPerceivedObjects));
  for (const auto& o : objects) o.encode(e);
  return std::move(e).finish();
}

Cpm Cpm::decode(std::span<const std::uint8_t> buf) {
  asn1::PerDecoder d{buf.data(), buf.size()};
  Cpm v;
  v.header = ItsPduHeader::decode(d);
  if (v.header.message_id != MessageId::Cpm) throw asn1::DecodeError{"Cpm::decode: not a CPM"};
  v.generation_delta_time = static_cast<std::uint16_t>(d.constrained(0, 65535));
  v.management = CpmManagementContainer::decode(d);
  const auto count =
      d.constrained(0, static_cast<std::int64_t>(kCpmMaxPerceivedObjects));
  v.objects.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) v.objects.push_back(CpmPerceivedObject::decode(d));
  return v;
}

}  // namespace rst::its
