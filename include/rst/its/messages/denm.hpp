#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rst/its/messages/cause_code.hpp"
#include "rst/its/messages/data_elements.hpp"
#include "rst/its/messages/pdu_header.hpp"

namespace rst::its {

/// Termination DE of the DENM Management container.
enum class Termination : std::uint8_t { IsCancellation = 0, IsNegation = 1 };

/// RelevanceDistance DE.
enum class RelevanceDistance : std::uint8_t {
  LessThan50m = 0,
  LessThan100m = 1,
  LessThan200m = 2,
  LessThan500m = 3,
  LessThan1000m = 4,
  LessThan5km = 5,
  LessThan10km = 6,
  Over10km = 7,
};

/// RelevanceTrafficDirection DE.
enum class RelevanceTrafficDirection : std::uint8_t {
  AllTrafficDirections = 0,
  UpstreamTraffic = 1,
  DownstreamTraffic = 2,
  OppositeTraffic = 3,
};

/// DENM Management container (EN 302 637-3 §8.1.1; Fig. 2).
/// Mandatory in every DENM.
struct ManagementContainer {
  ActionId action_id{};
  TimestampIts detection_time{0};
  TimestampIts reference_time{0};
  std::optional<Termination> termination{};
  ReferencePosition event_position{};
  std::optional<RelevanceDistance> relevance_distance{};
  std::optional<RelevanceTrafficDirection> relevance_traffic_direction{};
  std::uint32_t validity_duration_s{600};  // ValidityDuration, DEFAULT 600
  std::optional<std::uint16_t> transmission_interval_ms{};  // 1..10000
  StationType station_type{StationType::Unknown};

  void encode(asn1::PerEncoder& e) const;
  static ManagementContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const ManagementContainer&, const ManagementContainer&) = default;
};

/// DENM Situation container (optional; §8.1.2). informationQuality and
/// eventType are mandatory within it (paper §II-C).
struct SituationContainer {
  std::uint8_t information_quality{0};  // 0..7, 0 = unavailable
  EventType event_type{};
  std::optional<EventType> linked_cause{};

  void encode(asn1::PerEncoder& e) const;
  static SituationContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const SituationContainer&, const SituationContainer&) = default;
};

/// DENM Location container (optional; §8.1.3). `traces` is mandatory within
/// it: itineraries leading to the event (paper §II-C).
struct LocationContainer {
  std::optional<Speed> event_speed{};
  std::optional<Heading> event_position_heading{};
  std::vector<PathHistory> traces;  // 1..7 entries

  void encode(asn1::PerEncoder& e) const;
  static LocationContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const LocationContainer&, const LocationContainer&) = default;
};

/// StationaryVehicleContainer subset used by the A-la-carte container.
struct StationaryVehicleContainer {
  std::optional<std::uint8_t> stationary_since{};  // StationarySince enum 0..3
  std::optional<std::uint8_t> number_of_occupants{};

  void encode(asn1::PerEncoder& e) const;
  static StationaryVehicleContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const StationaryVehicleContainer&, const StationaryVehicleContainer&) = default;
};

/// DENM A-la-carte container (optional; §8.1.4): lanePosition,
/// externalTemperature, stationaryVehicle (paper §II-C).
struct AlacarteContainer {
  std::optional<std::int8_t> lane_position{};        // -1..14
  std::optional<std::int8_t> external_temperature{}; // -60..67 degC
  std::optional<StationaryVehicleContainer> stationary_vehicle{};

  void encode(asn1::PerEncoder& e) const;
  static AlacarteContainer decode(asn1::PerDecoder& d);
  friend bool operator==(const AlacarteContainer&, const AlacarteContainer&) = default;
};

/// Decentralized Environmental Notification Message (EN 302 637-3, Fig. 2:
/// common header + Management + optional Situation/Location/A-la-carte).
struct Denm {
  ItsPduHeader header{.protocol_version = 2, .message_id = MessageId::Denm, .station_id = 0};
  ManagementContainer management{};
  std::optional<SituationContainer> situation{};
  std::optional<LocationContainer> location{};
  std::optional<AlacarteContainer> alacarte{};

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static Denm decode(std::span<const std::uint8_t> buf);
  friend bool operator==(const Denm&, const Denm&) = default;

  /// True when this DENM is a cancellation/negation of a previous event.
  [[nodiscard]] bool is_termination() const { return management.termination.has_value(); }
};

}  // namespace rst::its
