#include <gtest/gtest.h>

#include <span>

#include "rst/its/messages/cam.hpp"
#include "rst/its/messages/cause_code.hpp"
#include "rst/its/messages/denm.hpp"
#include "rst/its/network/btp.hpp"
#include "rst/its/network/btp_mux.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/sim/random.hpp"

namespace rst::its {
namespace {

using namespace rst::sim::literals;

Cam make_cam(StationId id) {
  Cam cam;
  cam.header.station_id = id;
  cam.generation_delta_time = 12345;
  cam.basic.station_type = StationType::PassengerCar;
  cam.basic.reference_position.latitude = 411780000;
  cam.basic.reference_position.longitude = -86080000;
  cam.high_frequency.heading = Heading{901, 5};
  cam.high_frequency.speed = Speed::from_mps(1.2);
  cam.high_frequency.drive_direction = DriveDirection::Forward;
  cam.high_frequency.vehicle_length_dm = 5;
  cam.high_frequency.vehicle_width_dm = 3;
  return cam;
}

Denm make_denm(StationId id, std::uint16_t seq) {
  Denm denm;
  denm.header.station_id = id;
  denm.management.action_id = {id, seq};
  denm.management.detection_time = kSimEpochItsMs + 1000;
  denm.management.reference_time = kSimEpochItsMs + 1001;
  denm.management.event_position.latitude = 411780500;
  denm.management.event_position.longitude = -86079000;
  denm.management.validity_duration_s = 10;
  denm.management.station_type = StationType::RoadSideUnit;
  denm.situation = SituationContainer{
      .information_quality = 5,
      .event_type = EventType::of(Cause::CollisionRisk,
                                  static_cast<std::uint8_t>(CollisionRiskSubCause::CrossingCollisionRisk)),
  };
  return denm;
}

TEST(Timestamps, ItsEpochMapping) {
  EXPECT_EQ(to_timestamp_its(sim::SimTime::zero()), kSimEpochItsMs);
  EXPECT_EQ(to_timestamp_its(1500_ms), kSimEpochItsMs + 1500);
  EXPECT_EQ(from_timestamp_its(kSimEpochItsMs + 250), 250_ms);
  EXPECT_EQ(generation_delta_time(65536 + 42), 42);
}

TEST(Speed, FromMpsClampsAndRounds) {
  EXPECT_EQ(Speed::from_mps(1.234).value_cms, 123);
  EXPECT_EQ(Speed::from_mps(1000.0).value_cms, 16382);  // clamp below 'unavailable'
  EXPECT_EQ(Speed::from_mps(0.0).value_cms, 0);
  EXPECT_DOUBLE_EQ(Speed::from_mps(2.0).to_mps(), 2.0);
}

TEST(Cam, EncodeDecodeRoundTrip) {
  const Cam cam = make_cam(42);
  const auto bytes = cam.encode();
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(Cam::decode(bytes), cam);
}

TEST(Cam, RoundTripWithLowFrequencyContainer) {
  Cam cam = make_cam(7);
  LowFrequencyContainer lf;
  lf.exterior_lights = 0b10100000;
  lf.path_history.points = {{100, -50, 10}, {90, -45, 10}, {80, -40, 0}};
  cam.low_frequency = lf;
  EXPECT_EQ(Cam::decode(cam.encode()), cam);
}

TEST(Cam, DecodeRejectsWrongMessageType) {
  const Denm denm = make_denm(1, 1);
  EXPECT_THROW((void)Cam::decode(denm.encode()), asn1::DecodeError);
}

TEST(Cam, RandomizedRoundTripProperty) {
  sim::RandomStream r{20, "cam"};
  for (int i = 0; i < 200; ++i) {
    Cam cam;
    cam.header.station_id = static_cast<StationId>(r.uniform_int(0, 4294967295LL));
    cam.generation_delta_time = static_cast<std::uint16_t>(r.uniform_int(0, 65535));
    cam.basic.station_type = static_cast<StationType>(r.uniform_int(0, 15));
    cam.basic.reference_position.latitude = static_cast<std::int32_t>(r.uniform_int(-900000000, 900000001));
    cam.basic.reference_position.longitude =
        static_cast<std::int32_t>(r.uniform_int(-1800000000, 1800000001));
    cam.basic.reference_position.altitude.value_cm =
        static_cast<std::int32_t>(r.uniform_int(-100000, 800001));
    cam.high_frequency.heading.value_01deg = static_cast<std::uint16_t>(r.uniform_int(0, 3601));
    cam.high_frequency.heading.confidence_01deg = static_cast<std::uint8_t>(r.uniform_int(1, 127));
    cam.high_frequency.speed.value_cms = static_cast<std::uint16_t>(r.uniform_int(0, 16383));
    cam.high_frequency.drive_direction = static_cast<DriveDirection>(r.uniform_int(0, 2));
    cam.high_frequency.vehicle_length_dm = static_cast<std::uint16_t>(r.uniform_int(1, 1023));
    cam.high_frequency.vehicle_width_dm = static_cast<std::uint8_t>(r.uniform_int(1, 62));
    cam.high_frequency.longitudinal_accel_dms2 = static_cast<std::int16_t>(r.uniform_int(-160, 161));
    cam.high_frequency.curvature = static_cast<std::int32_t>(r.uniform_int(-1023, 1023));
    cam.high_frequency.yaw_rate_001degps = static_cast<std::int16_t>(r.uniform_int(-32766, 32767));
    if (r.bernoulli(0.5)) {
      LowFrequencyContainer lf;
      lf.exterior_lights = static_cast<std::uint8_t>(r.uniform_int(0, 255));
      const auto n = static_cast<std::size_t>(r.uniform_int(0, 40));
      for (std::size_t k = 0; k < n; ++k) {
        lf.path_history.points.push_back(
            {static_cast<std::int32_t>(r.uniform_int(-131072, 131071)),
             static_cast<std::int32_t>(r.uniform_int(-131072, 131071)),
             static_cast<std::int32_t>(r.uniform_int(0, 65535))});
      }
      cam.low_frequency = lf;
    }
    EXPECT_EQ(Cam::decode(cam.encode()), cam);
  }
}

TEST(Denm, MandatoryOnlyRoundTrip) {
  // The paper's testbed "used solely DENMs with the mandatory structure
  // (Header and Management Container)".
  Denm denm;
  denm.header.station_id = 900;
  denm.management.action_id = {900, 1};
  denm.management.detection_time = kSimEpochItsMs;
  denm.management.reference_time = kSimEpochItsMs;
  denm.management.station_type = StationType::RoadSideUnit;
  const Denm decoded = Denm::decode(denm.encode());
  EXPECT_EQ(decoded, denm);
  EXPECT_FALSE(decoded.situation.has_value());
  EXPECT_FALSE(decoded.location.has_value());
  EXPECT_FALSE(decoded.alacarte.has_value());
}

TEST(Denm, FullContainersRoundTrip) {
  Denm denm = make_denm(900, 3);
  denm.management.relevance_distance = RelevanceDistance::LessThan200m;
  denm.management.relevance_traffic_direction = RelevanceTrafficDirection::UpstreamTraffic;
  denm.management.transmission_interval_ms = 100;
  LocationContainer loc;
  loc.event_speed = Speed::from_mps(0.8);
  loc.event_position_heading = Heading{1800, 10};
  loc.traces.push_back(PathHistory{{{10, 10, 5}, {20, 20, 5}}});
  denm.location = loc;
  AlacarteContainer alc;
  alc.lane_position = 1;
  alc.external_temperature = 21;
  alc.stationary_vehicle = StationaryVehicleContainer{.stationary_since = 1, .number_of_occupants = 2};
  denm.alacarte = alc;
  EXPECT_EQ(Denm::decode(denm.encode()), denm);
}

TEST(Denm, TerminationFlagRoundTrips) {
  Denm denm = make_denm(900, 9);
  denm.management.termination = Termination::IsCancellation;
  const Denm decoded = Denm::decode(denm.encode());
  EXPECT_TRUE(decoded.is_termination());
  EXPECT_EQ(decoded.management.termination, Termination::IsCancellation);
}

TEST(Denm, LocationContainerRequiresTraces) {
  Denm denm = make_denm(900, 4);
  denm.location = LocationContainer{};  // no traces
  EXPECT_THROW((void)denm.encode(), std::invalid_argument);
}

TEST(Denm, EncodedSizeIsCompact) {
  // UPER-style encoding should keep a full DENM well under the 802.11p
  // payload budget; the mandatory-only DENM should be tens of bytes.
  Denm denm = make_denm(900, 1);
  EXPECT_LT(denm.encode().size(), 120u);
  Denm minimal;
  minimal.management.detection_time = kSimEpochItsMs;
  minimal.management.reference_time = kSimEpochItsMs;
  EXPECT_LT(minimal.encode().size(), 60u);
}

TEST(CauseCodes, PaperTable1Entries) {
  EXPECT_EQ(describe_cause(9), "Hazardous location - Surface condition");
  EXPECT_EQ(describe_cause(10), "Hazardous location - Obstacle on the road");
  EXPECT_EQ(describe_cause(97), "Collision risk");
  EXPECT_EQ(describe_cause(99), "Dangerous situation");
  EXPECT_EQ(describe_sub_cause(97, 1), "Longitudinal collision risk");
  EXPECT_EQ(describe_sub_cause(97, 2), "Crossing collision risk");
  EXPECT_EQ(describe_sub_cause(97, 4), "Collision risk involving vulnerable road-user");
  EXPECT_EQ(describe_sub_cause(99, 5), "AEB (Automatic Emergency Braking) activated");
  EXPECT_EQ(describe_sub_cause(99, 7), "Collision risk warning activated");
  // Paper §II-C: stationary vehicle subcauses 1=human problem, 2=breakdown.
  EXPECT_EQ(describe_sub_cause(94, 1), "Human problem");
  EXPECT_EQ(describe_sub_cause(94, 2), "Vehicle breakdown");
  EXPECT_EQ(describe_cause(200), "unknown");
  EXPECT_EQ(describe_sub_cause(97, 99), "unknown");
}

TEST(CauseCodes, RegistryIsConsistent) {
  for (const auto& e : cause_code_registry()) {
    EXPECT_EQ(describe_cause(e.cause_code), e.cause_description);
    EXPECT_EQ(describe_sub_cause(e.cause_code, e.sub_cause_code), e.sub_cause_description);
  }
}

TEST(EventType, RoundTrip) {
  asn1::PerEncoder e;
  EventType::of(Cause::DangerousSituation, 5).encode(e);
  asn1::PerDecoder d{e.finish()};
  const EventType back = EventType::decode(d);
  EXPECT_EQ(back.cause(), Cause::DangerousSituation);
  EXPECT_EQ(back.sub_cause_code, 5);
}

TEST(Btp, HeaderRoundTripAndPorts) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  BtpHeader header{.destination_port = kBtpPortDenm, .destination_port_info = 7};
  const auto pdu = header.prepend_to(payload);
  EXPECT_EQ(pdu.size(), payload.size() + BtpHeader::kSize);
  const auto parsed = BtpHeader::parse(pdu);
  EXPECT_EQ(parsed.header.destination_port, kBtpPortDenm);
  EXPECT_EQ(parsed.header.destination_port_info, 7);
  EXPECT_EQ(parsed.payload, payload);
  EXPECT_EQ(kBtpPortCam, 2001);
  EXPECT_EQ(kBtpPortDenm, 2002);
}

TEST(Btp, ParseRejectsTruncated) {
  EXPECT_THROW((void)BtpHeader::parse({1, 2}), asn1::DecodeError);
}

TEST(BtpMux, DispatchesByPort) {
  BtpMux mux;
  int cam_hits = 0;
  int custom_hits = 0;
  mux.register_port(kBtpPortCam, [&](std::span<const std::uint8_t> p, const GnDeliveryMeta&) {
    EXPECT_EQ(std::vector<std::uint8_t>(p.begin(), p.end()), (std::vector<std::uint8_t>{1, 2}));
    ++cam_hits;
  });
  mux.register_port(3000,
                    [&](std::span<const std::uint8_t>, const GnDeliveryMeta&) { ++custom_hits; });
  EXPECT_TRUE(mux.has_port(3000));

  GnDeliveryMeta meta;
  mux.on_gn_payload(BtpHeader{kBtpPortCam, 0}.prepend_to({1, 2}), meta);
  mux.on_gn_payload(BtpHeader{3000, 0}.prepend_to({9}), meta);
  mux.on_gn_payload(BtpHeader{4000, 0}.prepend_to({9}), meta);  // unknown
  mux.on_gn_payload({0x01}, meta);                              // truncated
  EXPECT_EQ(cam_hits, 1);
  EXPECT_EQ(custom_hits, 1);
  EXPECT_EQ(mux.stats().dispatched, 2u);
  EXPECT_EQ(mux.stats().unknown_port, 1u);
  EXPECT_EQ(mux.stats().parse_errors, 1u);

  mux.unregister_port(3000);
  mux.on_gn_payload(BtpHeader{3000, 0}.prepend_to({9}), meta);
  EXPECT_EQ(custom_hits, 1);
  EXPECT_EQ(mux.stats().unknown_port, 2u);
}

TEST(GnPacket, ShbRoundTrip) {
  GnPacket pkt;
  pkt.type = GnPacketType::Shb;
  pkt.traffic_class = 2;
  pkt.remaining_hop_limit = 1;
  pkt.source.address = GnAddress::from_station(42);
  pkt.source.timestamp_ms = 123456;
  pkt.source.latitude = 411780000;
  pkt.source.longitude = -86080000;
  pkt.source.speed_cms = 120;
  pkt.source.heading_01deg = 900;
  pkt.forwarder = pkt.source;
  pkt.payload = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_EQ(GnPacket::decode(pkt.encode()), pkt);
}

TEST(GnPacket, GbcWithAreaRoundTrip) {
  GnPacket pkt;
  pkt.type = GnPacketType::Gbc;
  pkt.remaining_hop_limit = 10;
  pkt.sequence_number = 77;
  pkt.source.address = GnAddress::from_station(900);
  pkt.forwarder = pkt.source;
  pkt.destination_area = WireGeoArea{411780000, -86080000, 100, 50, 90, 2};
  pkt.payload = std::vector<std::uint8_t>(200, 0xab);
  const GnPacket back = GnPacket::decode(pkt.encode());
  EXPECT_EQ(back, pkt);
  ASSERT_TRUE(back.destination_area.has_value());
  EXPECT_EQ(back.destination_area->shape, 2);
}

}  // namespace
}  // namespace rst::its
