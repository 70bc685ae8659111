#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "rst/its/messages/data_elements.hpp"
#include "rst/its/messages/pdu_header.hpp"

namespace rst::its {

/// Upper bound on perceived-object containers per CPM (TS 103 324 allows
/// 128 before segmentation; segmentation is not modelled).
inline constexpr std::size_t kCpmMaxPerceivedObjects = 128;

/// ObjectClass codes carried on the wire (subset of the TS 103 324
/// ObjectClassDescription relevant to the testbed's YOLO label set).
/// Labels outside the mapping travel as Unknown (0).
[[nodiscard]] std::uint8_t cpm_class_from_label(std::string_view label);
[[nodiscard]] std::string_view cpm_label_from_class(std::uint8_t object_class);

/// CPM ManagementContainer: originating station kind and reference
/// position; all perceived-object offsets are relative to this position.
struct CpmManagementContainer {
  StationType station_type{StationType::Unknown};
  ReferencePosition reference_position{};

  void encode(asn1::PerEncoder& e) const;
  static CpmManagementContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const CpmManagementContainer&, const CpmManagementContainer&) = default;
};

/// One PerceivedObjectContainer entry: position/velocity relative to the
/// management container's reference position, plus age and confidence.
struct CpmPerceivedObject {
  std::uint16_t object_id{0};             ///< station-local object id
  std::uint16_t age_ms{0};                ///< measurement age, 0..1500 ms (clamped)
  std::int32_t x_offset_cm{0};            ///< east offset, -132768..132767 cm
  std::int32_t y_offset_cm{0};            ///< north offset, -132768..132767 cm
  std::int16_t x_speed_cms{0};            ///< east speed, -16383..16383 cm/s
  std::int16_t y_speed_cms{0};            ///< north speed, -16383..16383 cm/s
  std::uint8_t object_class{0};           ///< raw class code (see cpm_class_from_label)
  std::uint8_t confidence_pct{0};         ///< 0..100 percent

  void encode(asn1::PerEncoder& e) const;
  static CpmPerceivedObject decode(asn1::PerDecoder& d);
  friend bool operator==(const CpmPerceivedObject&, const CpmPerceivedObject&) = default;
};

/// Collective Perception Message (TS 103 324 style): management container
/// plus 0..128 perceived-object containers.
struct Cpm {
  ItsPduHeader header{.protocol_version = 2, .message_id = MessageId::Cpm, .station_id = 0};
  std::uint16_t generation_delta_time{0};  // TimestampIts mod 65536
  CpmManagementContainer management{};
  std::vector<CpmPerceivedObject> objects;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static Cpm decode(std::span<const std::uint8_t> buf);
  friend bool operator==(const Cpm&, const Cpm&) = default;
};

}  // namespace rst::its
