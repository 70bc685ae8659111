#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rst/its/messages/data_elements.hpp"
#include "rst/its/messages/pdu_header.hpp"

namespace rst::its {

/// CAM BasicContainer (EN 302 637-2 §B.1).
struct BasicContainer {
  StationType station_type{StationType::Unknown};
  ReferencePosition reference_position{};

  void encode(asn1::PerEncoder& e) const;
  static BasicContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const BasicContainer&, const BasicContainer&) = default;
};

/// DriveDirection DE.
enum class DriveDirection : std::uint8_t { Forward = 0, Backward = 1, Unavailable = 2 };

/// BasicVehicleContainerHighFrequency (EN 302 637-2 §B.2).
struct HighFrequencyContainer {
  Heading heading{};
  Speed speed{};
  DriveDirection drive_direction{DriveDirection::Unavailable};
  std::uint16_t vehicle_length_dm{1023};  // VehicleLengthValue, 1023 = unavailable
  std::uint8_t vehicle_width_dm{62};      // VehicleWidth, 62 = unavailable
  std::int16_t longitudinal_accel_dms2{161};  // 0.1 m/s^2, 161 = unavailable
  std::int32_t curvature{1023};               // CurvatureValue, 1023 = unavailable
  std::int16_t yaw_rate_001degps{32767};      // YawRateValue, 32767 = unavailable

  void encode(asn1::PerEncoder& e) const;
  static HighFrequencyContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const HighFrequencyContainer&, const HighFrequencyContainer&) = default;
};

/// BasicVehicleContainerLowFrequency (EN 302 637-2 §B.3).
struct LowFrequencyContainer {
  std::uint8_t exterior_lights{0};  // ExteriorLights bit string (8 bits)
  PathHistory path_history{};

  void encode(asn1::PerEncoder& e) const;
  static LowFrequencyContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const LowFrequencyContainer&, const LowFrequencyContainer&) = default;
};

/// Cooperative Awareness Message (EN 302 637-2).
struct Cam {
  ItsPduHeader header{.protocol_version = 2, .message_id = MessageId::Cam, .station_id = 0};
  std::uint16_t generation_delta_time{0};  // TimestampIts mod 65536
  BasicContainer basic{};
  HighFrequencyContainer high_frequency{};
  std::optional<LowFrequencyContainer> low_frequency{};

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static Cam decode(std::span<const std::uint8_t> buf);
  friend bool operator==(const Cam&, const Cam&) = default;
};

}  // namespace rst::its
