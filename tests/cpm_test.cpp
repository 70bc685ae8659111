#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "rst/its/facilities/cpm_service.hpp"
#include "rst/its/messages/cpm.hpp"

namespace rst::its {
namespace {

using namespace rst::sim::literals;

// --- Codec ------------------------------------------------------------------

Cpm sample_cpm() {
  Cpm cpm;
  cpm.header.station_id = 77;
  cpm.generation_delta_time = 4242;
  cpm.management.station_type = StationType::RoadSideUnit;
  cpm.management.reference_position.latitude = 411780000;
  cpm.management.reference_position.longitude = -86080000;
  cpm.management.reference_position.confidence.semi_major_cm = 50;
  cpm.management.reference_position.confidence.semi_minor_cm = 50;
  cpm.objects.push_back({.object_id = 9,
                         .age_ms = 120,
                         .x_offset_cm = -250,
                         .y_offset_cm = 430,
                         .x_speed_cms = -25,
                         .y_speed_cms = 0,
                         .object_class = cpm_class_from_label("person"),
                         .confidence_pct = 92});
  return cpm;
}

TEST(CpmCodec, RoundTripsSample) {
  const Cpm cpm = sample_cpm();
  const auto bytes = cpm.encode();
  const Cpm back = Cpm::decode(bytes);
  EXPECT_EQ(back, cpm);
  EXPECT_EQ(back.encode(), bytes);
}

TEST(CpmCodec, RoundTripsBoundaryValues) {
  Cpm cpm = sample_cpm();
  cpm.objects.clear();
  // All-minimum, all-maximum and a one-off-the-rails entry.
  cpm.objects.push_back({0, 0, -132768, -132768, -16383, -16383, 0, 0});
  cpm.objects.push_back({65535, 1500, 132767, 132767, 16383, 16383, 255, 100});
  cpm.objects.push_back({1, 1, 1, -1, 1, -1, 1, 1});
  const auto bytes = cpm.encode();
  const Cpm back = Cpm::decode(bytes);
  EXPECT_EQ(back, cpm);
  EXPECT_EQ(back.encode(), bytes);
}

TEST(CpmCodec, RoundTripsEmptyAndFull) {
  Cpm cpm = sample_cpm();
  cpm.objects.clear();
  EXPECT_EQ(Cpm::decode(cpm.encode()), cpm);
  for (std::size_t i = 0; i < kCpmMaxPerceivedObjects; ++i) {
    cpm.objects.push_back({static_cast<std::uint16_t>(i), 10, 100, -100, 5, -5,
                           static_cast<std::uint8_t>(i % 8), 80});
  }
  const auto bytes = cpm.encode();
  EXPECT_EQ(Cpm::decode(bytes).encode(), bytes);
}

TEST(CpmCodec, RandomRoundTripIsAFixedPoint) {
  std::mt19937_64 rng{20260808};
  for (int trial = 0; trial < 200; ++trial) {
    Cpm cpm;
    cpm.header.station_id = static_cast<StationId>(rng());
    cpm.generation_delta_time = static_cast<std::uint16_t>(rng());
    cpm.management.station_type = static_cast<StationType>(rng() % 16);
    cpm.management.reference_position.latitude =
        static_cast<std::int32_t>(rng() % 1800000001) - 900000000;
    cpm.management.reference_position.longitude =
        static_cast<std::int32_t>(static_cast<std::int64_t>(rng() % 3600000001ULL) - 1800000000);
    const std::size_t n = rng() % 12;
    for (std::size_t i = 0; i < n; ++i) {
      CpmPerceivedObject o;
      o.object_id = static_cast<std::uint16_t>(rng());
      o.age_ms = static_cast<std::uint16_t>(rng() % 1501);
      o.x_offset_cm = static_cast<std::int32_t>(rng() % 265536) - 132768;
      o.y_offset_cm = static_cast<std::int32_t>(rng() % 265536) - 132768;
      o.x_speed_cms = static_cast<std::int16_t>(rng() % 32767) - 16383;
      o.y_speed_cms = static_cast<std::int16_t>(rng() % 32767) - 16383;
      o.object_class = static_cast<std::uint8_t>(rng());
      o.confidence_pct = static_cast<std::uint8_t>(rng() % 101);
      cpm.objects.push_back(o);
    }
    const auto bytes = cpm.encode();
    const Cpm back = Cpm::decode(bytes);
    ASSERT_EQ(back, cpm);
    ASSERT_EQ(back.encode(), bytes);
  }
}

TEST(CpmCodec, RejectsForeignMessageId) {
  Cpm cpm = sample_cpm();
  auto bytes = cpm.encode();
  // The message id rides in the second header byte (version, id, ...).
  bytes[1] = static_cast<std::uint8_t>(MessageId::Denm);
  EXPECT_THROW(Cpm::decode(bytes), asn1::DecodeError);
}

TEST(CpmCodec, ClassLabelMappingRoundTrips) {
  for (std::uint8_t code = 0; code < 8; ++code) {
    EXPECT_EQ(cpm_class_from_label(cpm_label_from_class(code)), code);
  }
  EXPECT_EQ(cpm_class_from_label("bird"), 0);       // unmapped -> Unknown
  EXPECT_EQ(cpm_label_from_class(200), "unknown");  // out of table -> unknown
  EXPECT_EQ(cpm_label_from_class(cpm_class_from_label("stop sign")), "stop sign");
}

// --- Service ----------------------------------------------------------------

/// Two stations with GN/BTP plumbing, an LDM and a CPM service each.
struct Rig {
  sim::Scheduler sched;
  sim::RandomStream rng{55, "cpm_test"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  std::unique_ptr<dot11p::Medium> medium;

  struct Station {
    std::unique_ptr<dot11p::Radio> radio;
    std::unique_ptr<GeoNetRouter> router;
    std::unique_ptr<Ldm> ldm;
    std::unique_ptr<CpmService> cpm;
    geo::Vec2 position{};
  };
  std::vector<std::unique_ptr<Station>> stations;

  Rig() {
    dot11p::ChannelModel channel;
    channel.path_loss =
        std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.0));
    medium = std::make_unique<dot11p::Medium>(sched, rng.child("medium"), channel);
  }

  Station& add_station(StationId id, geo::Vec2 pos, CpmConfig config = {}) {
    auto st = std::make_unique<Station>();
    st->position = pos;
    Station* raw = st.get();
    st->radio = std::make_unique<dot11p::Radio>(
        *medium, dot11p::RadioConfig{}, [raw] { return raw->position; },
        rng.child("r" + std::to_string(id)), "r" + std::to_string(id));
    st->router = std::make_unique<GeoNetRouter>(
        sched, *st->radio, frame, GnAddress::from_station(id),
        [raw] { return EgoState{raw->position, 0.0, 0.0}; }, GeoNetConfig{},
        rng.child("g" + std::to_string(id)));
    st->ldm = std::make_unique<Ldm>(sched, frame);
    st->cpm = std::make_unique<CpmService>(sched, *st->router, id, config, st->ldm.get());
    st->router->set_delivery_handler(
        [raw](const std::vector<std::uint8_t>& pdu, const GnDeliveryMeta& meta) {
          const auto parsed = BtpHeader::parse(pdu);
          if (parsed.header.destination_port == kBtpPortCpm) {
            raw->cpm->on_btp_payload(parsed.payload, meta);
          }
        });
    stations.push_back(std::move(st));
    return *stations.back();
  }
};

PerceivedObject percept(std::uint32_t id, geo::Vec2 pos, geo::Vec2 vel = {},
                        double confidence = 0.9, const char* label = "person") {
  PerceivedObject obj;
  obj.object_id = id;
  obj.classification = label;
  obj.position = pos;
  obj.velocity = vel;
  obj.confidence = confidence;
  return obj;
}

TEST(CpmService, QuietWithNothingPerceived) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0}, {.interval = 100_ms});
  rig.add_station(2, {30, 0});
  a.cpm->start();
  rig.sched.run_until(1_s);
  EXPECT_EQ(a.cpm->stats().cpms_sent, 0u);
  EXPECT_EQ(a.cpm->send_now(), 0u);
}

TEST(CpmService, PublishesAtTheConfiguredCadence) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0}, {.interval = 100_ms});
  auto& b = rig.add_station(2, {30, 0});
  a.ldm->set_perceived_object_lifetime(10_s);
  a.ldm->update_perceived_object(percept(9, {5, 5}, {1, 0}));
  a.cpm->start();
  rig.sched.run_until(1050_ms);
  EXPECT_EQ(a.cpm->stats().cpms_sent, 10u);
  EXPECT_EQ(a.cpm->stats().objects_published, 10u);
  EXPECT_EQ(b.cpm->stats().cpms_received, 10u);
}

TEST(CpmService, FusedPerceptCarriesProvenanceAndSyntheticId) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  a.ldm->update_perceived_object(percept(9, {5, 5}, {1, 0}));
  EXPECT_EQ(a.cpm->send_now(), 1u);
  rig.sched.run_until(50_ms);

  ASSERT_EQ(b.cpm->stats().objects_fused, 1u);
  const auto objects = b.ldm->perceived_objects();
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].object_id, CpmService::remote_object_id(1, 9));
  EXPECT_EQ(objects[0].source_station, 1u);
  EXPECT_EQ(objects[0].classification, "person");
  EXPECT_NEAR(objects[0].position.x, 5.0, 0.02);
  EXPECT_NEAR(objects[0].position.y, 5.0, 0.02);
  EXPECT_NEAR(objects[0].velocity.x, 1.0, 0.02);
  EXPECT_NEAR(objects[0].confidence, 0.9, 0.011);
}

TEST(CpmService, RefreshUpdatesInsteadOfDuplicating) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  a.ldm->update_perceived_object(percept(9, {5, 5}, {1, 0}));
  a.cpm->send_now();
  rig.sched.run_until(200_ms);
  a.ldm->update_perceived_object(percept(9, {5.2, 5}, {1, 0}));
  a.cpm->send_now();
  rig.sched.run_until(400_ms);

  EXPECT_EQ(b.cpm->stats().objects_fused, 2u);
  const auto objects = b.ldm->perceived_objects();
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_NEAR(objects[0].position.x, 5.2, 0.02);
}

TEST(CpmService, MeasurementAgeSurvivesTheWire) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  rig.sched.run_until(100_ms);
  a.ldm->update_perceived_object(percept(9, {5, 5}));  // measured stamped at 100 ms
  rig.sched.run_until(400_ms);
  a.cpm->send_now();
  rig.sched.run_until(450_ms);

  const auto obj = b.ldm->perceived_object(CpmService::remote_object_id(1, 9));
  ASSERT_TRUE(obj.has_value());
  // Reconstructed measurement time = rx time - wire age; the only slack is
  // the sub-millisecond air/stack latency folded into the 1 ms age grid.
  EXPECT_GE(obj->measured, 95_ms);
  EXPECT_LE(obj->measured, 110_ms);
}

TEST(CpmService, LocalTrackWinsDedup) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  a.ldm->update_perceived_object(percept(9, {5, 5}, {1, 0}));
  b.ldm->update_perceived_object(percept(4, {5.3, 5}, {1, 0}));  // same physical object
  a.cpm->send_now();
  rig.sched.run_until(50_ms);

  EXPECT_EQ(b.cpm->stats().objects_deduped, 1u);
  EXPECT_EQ(b.cpm->stats().objects_fused, 0u);
  const auto objects = b.ldm->perceived_objects();
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].object_id, 4u);
  EXPECT_EQ(objects[0].source_station, 0u);
}

TEST(CpmService, OpposedHeadingsDefeatTheDedupGate) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  a.ldm->update_perceived_object(percept(9, {5, 5}, {1, 0}));
  b.ldm->update_perceived_object(percept(4, {5.3, 5}, {-1, 0}));  // counterflow neighbour
  a.cpm->send_now();
  rig.sched.run_until(50_ms);

  EXPECT_EQ(b.cpm->stats().objects_fused, 1u);
  EXPECT_EQ(b.ldm->perceived_objects().size(), 2u);
}

TEST(CpmService, ConfidenceGateDropsWeakRemotePercepts) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0}, {.fusion_min_confidence = 0.8});
  a.ldm->update_perceived_object(percept(9, {5, 5}, {1, 0}, 0.5));
  a.cpm->send_now();
  rig.sched.run_until(50_ms);

  EXPECT_EQ(b.cpm->stats().objects_gated, 1u);
  EXPECT_EQ(b.cpm->stats().objects_fused, 0u);
  EXPECT_TRUE(b.ldm->perceived_objects().empty());
}

TEST(CpmService, FusedPerceptsExpireWithTheLdmLifetime) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  b.ldm->set_perceived_object_lifetime(200_ms);
  a.ldm->update_perceived_object(percept(9, {5, 5}));
  a.cpm->send_now();
  rig.sched.run_until(50_ms);
  ASSERT_EQ(b.ldm->perceived_objects().size(), 1u);

  rig.sched.run_until(300_ms);
  EXPECT_TRUE(b.ldm->perceived_objects().empty());
  b.ldm->garbage_collect();
  EXPECT_GE(b.ldm->perceived_objects_expired(), 1u);
}

TEST(CpmService, RemotePerceptsAreNeverReannounced) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  a.ldm->update_perceived_object(percept(9, {5, 5}));
  a.cpm->send_now();
  rig.sched.run_until(50_ms);
  ASSERT_EQ(b.ldm->perceived_objects().size(), 1u);
  // B's only percept is the fused remote one: its own CPM must stay empty.
  EXPECT_TRUE(b.cpm->build_cpm().objects.empty());
  EXPECT_EQ(b.cpm->send_now(), 0u);
}

TEST(CpmService, RedundancyWindowSilencesEchoes) {
  Rig rig;
  CpmConfig config;
  config.redundancy_window = 500_ms;
  auto& a = rig.add_station(1, {0, 0}, config);
  auto& b = rig.add_station(2, {30, 0}, config);
  a.ldm->set_perceived_object_lifetime(10_s);
  b.ldm->set_perceived_object_lifetime(10_s);
  // Both stations independently see the same physical object.
  a.ldm->update_perceived_object(percept(9, {5, 5}, {1, 0}));
  b.ldm->update_perceived_object(percept(4, {5.3, 5}, {1, 0}));
  a.cpm->send_now();
  rig.sched.run_until(50_ms);

  // Within the window B treats the object as already announced.
  EXPECT_EQ(b.cpm->build_cpm().objects.size(), 0u);
  EXPECT_EQ(b.cpm->send_now(), 0u);
  EXPECT_EQ(b.cpm->stats().objects_redundancy_skipped, 1u);

  // Once the window lapses the object is B's to announce again.
  rig.sched.run_until(600_ms);
  EXPECT_EQ(b.cpm->build_cpm().objects.size(), 1u);
  EXPECT_EQ(b.cpm->send_now(), 1u);
}

TEST(CpmService, ObjectCountCapsAtConfiguredMaximum) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0}, {.max_objects = 3});
  rig.add_station(2, {30, 0});
  for (std::uint32_t i = 0; i < 10; ++i) {
    a.ldm->update_perceived_object(percept(i, {5.0 + 2.0 * i, 5}));
  }
  EXPECT_EQ(a.cpm->send_now(), 3u);
}

// A started service destroyed mid-run takes its cadence with it: nothing
// it scheduled runs afterwards (under ASan, a leftover event is a
// heap-use-after-free).
TEST(ServiceLifetime, DestroyedCpmServiceNeverFires) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0}, {.interval = 100_ms});
  auto& b = rig.add_station(2, {30, 0});
  a.ldm->set_perceived_object_lifetime(10_s);
  a.ldm->update_perceived_object(percept(9, {5, 5}));
  a.cpm->start();
  rig.sched.run_until(350_ms);
  const auto received = b.cpm->stats().cpms_received;
  EXPECT_GE(received, 3u);
  a.cpm.reset();
  const auto executed = rig.sched.executed_events();
  rig.sched.run_until(rig.sched.now() + 2_s);
  EXPECT_EQ(rig.sched.executed_events(), executed);
  EXPECT_EQ(b.cpm->stats().cpms_received, received);
}

}  // namespace
}  // namespace rst::its
