#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include "rst/its/facilities/ca_basic_service.hpp"
#include "rst/its/facilities/den_basic_service.hpp"
#include "rst/its/facilities/ldm.hpp"
#include "rst/roadside/hazard_service.hpp"

namespace rst::its {
namespace {

using namespace rst::sim::literals;

/// Two stations with full GN/BTP plumbing and facilities on top.
struct Rig {
  sim::Scheduler sched;
  sim::RandomStream rng{55, "fac_test"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  std::unique_ptr<dot11p::Medium> medium;

  struct Station {
    std::unique_ptr<dot11p::Radio> radio;
    std::unique_ptr<GeoNetRouter> router;
    std::unique_ptr<Ldm> ldm;
    std::unique_ptr<CaBasicService> ca;
    std::unique_ptr<DenBasicService> den;
    CaVehicleData data{};
  };
  std::vector<std::unique_ptr<Station>> stations;

  Rig() {
    dot11p::ChannelModel channel;
    channel.path_loss =
        std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.0));
    medium = std::make_unique<dot11p::Medium>(sched, rng.child("medium"), channel);
  }

  Station& add_station(StationId id, geo::Vec2 pos, CaConfig ca_config = {}) {
    auto st = std::make_unique<Station>();
    st->data.position = pos;
    Station* raw = st.get();
    st->radio = std::make_unique<dot11p::Radio>(
        *medium, dot11p::RadioConfig{}, [raw] { return raw->data.position; },
        rng.child("r" + std::to_string(id)), "r" + std::to_string(id));
    st->router = std::make_unique<GeoNetRouter>(
        sched, *st->radio, frame, GnAddress::from_station(id),
        [raw] {
          return EgoState{raw->data.position, raw->data.speed_mps, raw->data.heading_rad};
        },
        GeoNetConfig{}, rng.child("g" + std::to_string(id)));
    st->ldm = std::make_unique<Ldm>(sched, frame);
    st->ca = std::make_unique<CaBasicService>(
        sched, *st->router, id, [raw] { return raw->data; }, ca_config, st->ldm.get());
    st->den = std::make_unique<DenBasicService>(sched, *st->router, id, nullptr, st->ldm.get());
    st->router->set_delivery_handler(
        [raw](const std::vector<std::uint8_t>& pdu, const GnDeliveryMeta& meta) {
          const auto parsed = BtpHeader::parse(pdu);
          if (parsed.header.destination_port == kBtpPortCam) {
            raw->ca->on_btp_payload(parsed.payload, meta);
          } else if (parsed.header.destination_port == kBtpPortDenm) {
            raw->den->on_btp_payload(parsed.payload, meta);
          }
        });
    stations.push_back(std::move(st));
    return *stations.back();
  }
};

DenmRequest basic_request(geo::Vec2 pos) {
  DenmRequest r;
  r.event_type = EventType::of(Cause::CollisionRisk, 2);
  r.event_position = pos;
  r.validity = 10_s;
  r.destination_area = geo::GeoArea::circle(pos, 200.0);
  return r;
}

TEST(CaService, StationaryStationSendsAtTGenCamMax) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  a.ca->start();
  rig.sched.run_until(10_s);
  // Stationary: one CAM per T_GenCam_max (1 s), i.e. ~10 in 10 s.
  EXPECT_GE(a.ca->stats().cams_sent, 9u);
  EXPECT_LE(a.ca->stats().cams_sent, 11u);
  EXPECT_EQ(b.ca->stats().cams_received, a.ca->stats().cams_sent);
  EXPECT_EQ(a.ca->stats().dynamics_triggers, 0u);
}

TEST(CaService, MovingStationTriggersOnPositionDelta) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  rig.add_station(2, {30, 0});
  a.data.speed_mps = 10.0;  // 10 m/s -> 4 m position delta every 400 ms
  a.ca->start();
  // Move the station continuously.
  std::function<void()> move = [&] {
    a.data.position.y += 1.0;  // 10 m/s sampled at 100 ms
    rig.sched.post_in(100_ms, move);
  };
  rig.sched.post_in(100_ms, move);
  rig.sched.run_until(5_s);
  // Far more CAMs than 1 Hz, and dynamics triggers occurred.
  EXPECT_GT(a.ca->stats().cams_sent, 8u);
  EXPECT_GT(a.ca->stats().dynamics_triggers, 3u);
  EXPECT_LT(a.ca->current_t_gen_cam(), 1000_ms);
}

TEST(CaService, SpeedDeltaTriggersGeneration) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  rig.add_station(2, {30, 0});
  a.ca->start();
  rig.sched.run_until(1500_ms);
  const auto before = a.ca->stats().cams_sent;
  a.data.speed_mps = 2.0;  // > 0.5 m/s delta
  rig.sched.run_until(1700_ms);
  EXPECT_GT(a.ca->stats().cams_sent, before);
  EXPECT_GE(a.ca->stats().dynamics_triggers, 1u);
}

TEST(CaService, ReceivedCamsPopulateLdm) {
  Rig rig;
  auto& a = rig.add_station(1, {5, 7});
  auto& b = rig.add_station(2, {30, 0});
  a.data.speed_mps = 1.5;
  a.ca->start();
  rig.sched.run_until(2_s);
  const auto entry = b.ldm->vehicle(1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_NEAR(entry->position.x, 5.0, 0.2);
  EXPECT_NEAR(entry->position.y, 7.0, 0.2);
  EXPECT_NEAR(entry->speed_mps, 1.5, 0.05);
}

TEST(CaService, CamCallbackFires) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  int received = 0;
  b.ca->set_cam_callback([&](const Cam& cam, const GnDeliveryMeta&) {
    EXPECT_EQ(cam.header.station_id, 1u);
    ++received;
  });
  a.ca->start();
  rig.sched.run_until(2500_ms);
  EXPECT_GE(received, 2);
}

TEST(CaService, LowFrequencyContainerAttachedAtMostEvery500ms) {
  Rig rig;
  CaConfig fast;
  fast.position_delta_m = 1.0;  // 10 m/s -> dynamics trigger every check
  auto& a = rig.add_station(1, {0, 0}, fast);
  auto& b = rig.add_station(2, {30, 0});
  std::vector<std::pair<sim::SimTime, bool>> cams;  // (time, has LF)
  b.ca->set_cam_callback([&](const Cam& cam, const GnDeliveryMeta& meta) {
    cams.emplace_back(meta.delivered_at, cam.low_frequency.has_value());
  });
  a.data.speed_mps = 10.0;
  a.ca->start();
  std::function<void()> move = [&] {
    a.data.position.y += 1.0;
    rig.sched.post_in(100_ms, move);
  };
  rig.sched.post_in(100_ms, move);
  rig.sched.run_until(5_s);

  ASSERT_GE(cams.size(), 9u);  // dynamics-triggered, well above 1 Hz
  int with_lf = 0;
  sim::SimTime last_lf = -sim::SimTime::seconds(1);
  for (const auto& [when, has_lf] : cams) {
    if (has_lf) {
      ++with_lf;
      EXPECT_GE(when - last_lf, 450_ms);  // at most ~every 500 ms
      last_lf = when;
    }
  }
  EXPECT_GE(with_lf, 5);                                // roughly 2 Hz over 5 s
  EXPECT_LT(with_lf, static_cast<int>(cams.size()));    // not on every CAM
}

TEST(CaService, PathHistoryTracksTheTrajectory) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  std::optional<Cam> last_lf_cam;
  b.ca->set_cam_callback([&](const Cam& cam, const GnDeliveryMeta&) {
    if (cam.low_frequency) last_lf_cam = cam;
  });
  a.data.speed_mps = 10.0;
  a.ca->start();
  std::function<void()> move = [&] {
    a.data.position.y += 1.0;  // northbound, 10 m/s
    rig.sched.post_in(100_ms, move);
  };
  rig.sched.post_in(100_ms, move);
  rig.sched.run_until(6_s);

  ASSERT_TRUE(last_lf_cam.has_value());
  const auto& points = last_lf_cam->low_frequency->path_history.points;
  ASSERT_GE(points.size(), 3u);
  // Northbound travel: every recorded delta points south (negative
  // latitude step, negligible longitude step).
  for (std::size_t i = 1; i < points.size(); ++i) {  // skip the fresh anchor point
    EXPECT_LT(points[i].delta_latitude, 0);
    EXPECT_NEAR(points[i].delta_longitude, 0, 3);
  }
}

// A started service destroyed mid-run takes its timer with it: nothing it
// scheduled runs afterwards (under ASan, a leftover event is a
// heap-use-after-free).
TEST(ServiceLifetime, DestroyedCaServiceNeverFires) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  auto& b = rig.add_station(2, {30, 0});
  a.ca->start();
  rig.sched.run_until(1_s);
  const auto received = b.ca->stats().cams_received;
  EXPECT_GE(received, 1u);
  a.ca.reset();
  const auto executed = rig.sched.executed_events();
  rig.sched.run_until(rig.sched.now() + 2_s);
  EXPECT_EQ(rig.sched.executed_events(), executed);
  EXPECT_EQ(b.ca->stats().cams_received, received);
}

TEST(ServiceLifetime, DestroyedHazardServiceNeverScans) {
  Rig rig;
  auto& a = rig.add_station(1, {0, 0});
  roadside::EdgeBus bus{rig.sched, rig.rng.child("bus")};
  middleware::HttpLan lan{rig.sched, rig.rng.child("lan")};
  roadside::HazardServiceConfig config;
  config.monitor_cam_pairs = true;
  auto hazard = std::make_unique<roadside::HazardAdvertisementService>(
      rig.sched, bus, lan, rig.frame, geo::Vec2{0, 8}, M_PI / 2, rig.rng.child("hazard"), config,
      a.ldm.get());
  hazard->start();
  rig.sched.run_until(1_s);
  hazard.reset();
  const auto executed = rig.sched.executed_events();
  rig.sched.run_until(rig.sched.now() + 2_s);
  EXPECT_EQ(rig.sched.executed_events(), executed);
}

TEST(DenService, TriggerDeliversToReceiverInArea) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  auto& b = rig.add_station(42, {20, 0});
  int received = 0;
  bool was_update = true;
  b.den->set_denm_callback([&](const Denm& denm, const GnDeliveryMeta&, bool update) {
    ++received;
    was_update = update;
    EXPECT_EQ(denm.management.action_id.originating_station, 900u);
    EXPECT_EQ(denm.situation->event_type.cause(), Cause::CollisionRisk);
  });
  const ActionId id = a.den->trigger(basic_request({10, 0}));
  rig.sched.run_until(1_s);
  EXPECT_EQ(received, 1);
  EXPECT_FALSE(was_update);
  EXPECT_TRUE(a.den->owns(id));
  EXPECT_TRUE(b.den->received_state(id).has_value());
  // The DENM also landed in the receiver's LDM.
  EXPECT_EQ(b.ldm->events().size(), 1u);
}

TEST(DenService, RepetitionIsNotRedeliveredToApplication) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  auto& b = rig.add_station(42, {20, 0});
  int received = 0;
  b.den->set_denm_callback([&](const Denm&, const GnDeliveryMeta&, bool) { ++received; });
  DenmRequest r = basic_request({10, 0});
  r.repetition_interval = 100_ms;
  r.repetition_duration = 1_s;
  a.den->trigger(r);
  rig.sched.run_until(3_s);
  // ~10 transmissions on air, but the application sees the event once.
  EXPECT_GE(a.den->stats().repetitions, 8u);
  EXPECT_EQ(received, 1);
  EXPECT_GE(b.den->stats().duplicates_discarded, 8u);
}

TEST(DenService, UpdateReachesApplicationAsUpdate) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  auto& b = rig.add_station(42, {20, 0});
  std::vector<bool> updates;
  b.den->set_denm_callback(
      [&](const Denm&, const GnDeliveryMeta&, bool update) { updates.push_back(update); });
  const ActionId id = a.den->trigger(basic_request({10, 0}));
  rig.sched.run_until(500_ms);
  DenmRequest changed = basic_request({10, 0});
  changed.event_type = EventType::of(Cause::DangerousSituation, 5);
  a.den->update(id, changed);
  rig.sched.run_until(1_s);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_FALSE(updates[0]);
  EXPECT_TRUE(updates[1]);
}

TEST(DenService, TerminationCancelsEventAndClearsLdm) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  auto& b = rig.add_station(42, {20, 0});
  int terminations = 0;
  b.den->set_denm_callback([&](const Denm& denm, const GnDeliveryMeta&, bool) {
    if (denm.is_termination()) ++terminations;
  });
  const ActionId id = a.den->trigger(basic_request({10, 0}));
  rig.sched.run_until(500_ms);
  EXPECT_EQ(b.ldm->events().size(), 1u);
  a.den->terminate(id);
  rig.sched.run_until(1_s);
  EXPECT_EQ(terminations, 1);
  EXPECT_TRUE(b.ldm->events().empty());
  EXPECT_FALSE(a.den->owns(id));
  const auto state = b.den->received_state(id);
  ASSERT_TRUE(state.has_value());
  EXPECT_TRUE(state->terminated);
}

TEST(DenService, NegationByAnotherStationClearsTheEvent) {
  Rig rig;
  auto& originator = rig.add_station(900, {0, 0});
  auto& infra = rig.add_station(42, {20, 0});
  auto& bystander = rig.add_station(7, {40, 0});
  int bystander_terminations = 0;
  bystander.den->set_denm_callback([&](const Denm& denm, const GnDeliveryMeta&, bool) {
    if (denm.is_termination()) {
      ++bystander_terminations;
      EXPECT_EQ(denm.management.termination, Termination::IsNegation);
      // The negation carries the original ActionID but the negating
      // station's identity in the header.
      EXPECT_EQ(denm.management.action_id.originating_station, 900u);
      EXPECT_EQ(denm.header.station_id, 42u);
    }
  });
  DenmRequest r = basic_request({10, 0});
  const ActionId id = originator.den->trigger(r);
  rig.sched.run_until(500_ms);
  EXPECT_EQ(bystander.ldm->events().size(), 1u);

  EXPECT_TRUE(infra.den->negate(id));
  rig.sched.run_until(1_s);
  EXPECT_EQ(bystander_terminations, 1);
  EXPECT_TRUE(bystander.ldm->events().empty());
  // Unknown ActionID cannot be negated; double negation is refused.
  EXPECT_FALSE(infra.den->negate(ActionId{900, 999}));
  EXPECT_FALSE(infra.den->negate(id));
}

TEST(Ldm, SubscribersSeeEveryKindOfUpdate) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  std::vector<LdmUpdateKind> kinds;
  const auto sub = ldm.subscribe([&](const LdmUpdate& u) { kinds.push_back(u.kind); });

  Cam cam;
  cam.header.station_id = 42;
  ldm.update_from_cam(cam);
  Denm denm;
  denm.management.action_id = {900, 1};
  denm.management.validity_duration_s = 60;
  ldm.update_from_denm(denm);
  ldm.update_perceived_object({.object_id = 1, .classification = "stop sign"});
  Denm termination = denm;
  termination.management.termination = Termination::IsCancellation;
  ldm.update_from_denm(termination);

  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], LdmUpdateKind::Vehicle);
  EXPECT_EQ(kinds[1], LdmUpdateKind::Event);
  EXPECT_EQ(kinds[2], LdmUpdateKind::PerceivedObject);
  EXPECT_EQ(kinds[3], LdmUpdateKind::EventRemoved);

  ldm.unsubscribe(sub);
  ldm.update_from_cam(cam);
  EXPECT_EQ(kinds.size(), 4u);
}

TEST(DenService, UpdateOfUnknownActionThrows) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  EXPECT_THROW(a.den->update(ActionId{900, 999}, basic_request({0, 0})), std::invalid_argument);
  EXPECT_THROW(a.den->terminate(ActionId{900, 999}), std::invalid_argument);
}

TEST(DenService, SequentialTriggersGetDistinctActionIds) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  const ActionId id1 = a.den->trigger(basic_request({0, 0}));
  const ActionId id2 = a.den->trigger(basic_request({5, 0}));
  EXPECT_NE(id1.sequence_number, id2.sequence_number);
  EXPECT_EQ(id1.originating_station, id2.originating_station);
}

TEST(DenService, KeepAliveForwardingKeepsEventOnAir) {
  Rig rig;
  auto& originator = rig.add_station(900, {0, 0});
  // b has KAF enabled; rebuild its DEN service with the config.
  auto& b = rig.add_station(42, {20, 0});
  DenConfig kaf_config;
  kaf_config.enable_kaf = true;
  kaf_config.kaf_default_interval = 300_ms;
  b.den = std::make_unique<DenBasicService>(rig.sched, *b.router, 42, nullptr, b.ldm.get(),
                                            kaf_config);
  // c joins late: it only hears the event thanks to b's keep-alive copies.
  auto& c = rig.add_station(7, {40, 0});
  int c_received = 0;
  c.den->set_denm_callback([&](const Denm&, const GnDeliveryMeta&, bool) { ++c_received; });

  // One single original transmission, no repetition by the originator, and
  // long validity.
  DenmRequest r = basic_request({10, 0});
  r.validity = 30_s;
  originator.den->trigger(r);
  rig.sched.run_until(3_s);

  EXPECT_GE(b.den->stats().kaf_retransmissions, 3u);
  EXPECT_GE(c_received, 1);
}

/// True when a copy of `State` carries the keep-alive event, so that a
/// caller could cancel it through the copy or through the scheduler.
template <typename State, typename Sched = sim::Scheduler>
constexpr bool kCopyCanCancelKaf =
    requires(State s) { s.kaf_timer.cancel(); } ||
    requires(State s, Sched& sched) { sched.cancel(s.kaf_timer); };

TEST(DenService, ReceivedStateCopyCannotCancelTheKeepAlive) {
  // received_state() hands out a copy; the keep-alive forwarding event
  // stays private to the service.
  EXPECT_FALSE(kCopyCanCancelKaf<ReceivedDenmState>);

  Rig rig;
  auto& originator = rig.add_station(900, {0, 0});
  auto& b = rig.add_station(42, {20, 0});
  DenConfig kaf_config;
  kaf_config.enable_kaf = true;
  kaf_config.kaf_default_interval = 300_ms;
  b.den = std::make_unique<DenBasicService>(rig.sched, *b.router, 42, nullptr, b.ldm.get(),
                                            kaf_config);
  DenmRequest r = basic_request({10, 0});
  r.validity = 30_s;
  const ActionId id = originator.den->trigger(r);
  rig.sched.run_until(500_ms);
  const auto copy = b.den->received_state(id);
  ASSERT_TRUE(copy.has_value());
  EXPECT_TRUE(copy->area.has_value());
  EXPECT_EQ(copy->last_denm.management.action_id, id);
  rig.sched.run_until(3_s);
  EXPECT_GE(b.den->stats().kaf_retransmissions, 3u);
}

TEST(DenService, KafStopsAfterTermination) {
  Rig rig;
  auto& originator = rig.add_station(900, {0, 0});
  auto& b = rig.add_station(42, {20, 0});
  DenConfig kaf_config;
  kaf_config.enable_kaf = true;
  kaf_config.kaf_default_interval = 200_ms;
  b.den = std::make_unique<DenBasicService>(rig.sched, *b.router, 42, nullptr, b.ldm.get(),
                                            kaf_config);
  DenmRequest r = basic_request({10, 0});
  r.validity = 30_s;
  const ActionId id = originator.den->trigger(r);
  rig.sched.run_until(1_s);
  const auto before = b.den->stats().kaf_retransmissions;
  EXPECT_GE(before, 1u);
  originator.den->terminate(id);
  rig.sched.run_until(1500_ms);
  const auto at_termination = b.den->stats().kaf_retransmissions;
  rig.sched.run_until(4_s);
  EXPECT_EQ(b.den->stats().kaf_retransmissions, at_termination);
}

TEST(DenService, KafSilentOnceOutsideRelevanceArea) {
  Rig rig;
  auto& originator = rig.add_station(900, {0, 0});
  auto& roamer = rig.add_station(42, {20, 0});
  DenConfig kaf_config;
  kaf_config.enable_kaf = true;
  kaf_config.kaf_default_interval = 200_ms;
  roamer.den = std::make_unique<DenBasicService>(rig.sched, *roamer.router, 42, nullptr,
                                                 roamer.ldm.get(), kaf_config);
  DenmRequest r = basic_request({10, 0});
  r.destination_area = geo::GeoArea::circle({10, 0}, 60.0);
  r.validity = 30_s;
  originator.den->trigger(r);
  rig.sched.run_until(1_s);
  EXPECT_GE(roamer.den->stats().kaf_retransmissions, 1u);

  // The roamer leaves the relevance area: KAF must fall silent (the
  // position gate of EN 302 637-3 §8.2.2).
  roamer.data.position = {500, 0};
  rig.sched.run_until(1300_ms);  // let one more timer fire with the new position
  const auto after_leaving = roamer.den->stats().kaf_retransmissions;
  rig.sched.run_until(4_s);
  EXPECT_EQ(roamer.den->stats().kaf_retransmissions, after_leaving);
}

TEST(Ldm, EntriesExpireOverTime) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  ldm.set_vehicle_entry_lifetime(500_ms);

  Cam cam;
  cam.header.station_id = 7;
  cam.basic.reference_position.latitude = geo::to_its_tenth_microdegree(41.1780);
  cam.basic.reference_position.longitude = geo::to_its_tenth_microdegree(-8.6080);
  ldm.update_from_cam(cam);
  EXPECT_TRUE(ldm.vehicle(7).has_value());
  sched.run_until(1_s);
  EXPECT_FALSE(ldm.vehicle(7).has_value());
  EXPECT_TRUE(ldm.vehicles().empty());
}

TEST(Ldm, PerceivedObjectsStoredAndQueried) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  PerceivedObject obj;
  obj.object_id = 3;
  obj.classification = "stop sign";
  obj.position = {1, 2};
  obj.confidence = 0.9;
  ldm.update_perceived_object(obj);
  const auto got = ldm.perceived_object(3);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->classification, "stop sign");
  EXPECT_EQ(ldm.perceived_objects().size(), 1u);
  EXPECT_FALSE(ldm.perceived_object(4).has_value());
}

TEST(Ldm, PerceivedObjectExpiryWindowIsHalfOpen) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  ldm.set_perceived_object_lifetime(500_ms);
  ldm.update_perceived_object({.object_id = 3, .classification = "person"});
  sched.run_until(499_ms);
  EXPECT_TRUE(ldm.perceived_object(3).has_value());
  EXPECT_EQ(ldm.perceived_objects().size(), 1u);
  // Exactly at the lifetime boundary the object is already stale: the
  // window is [observed, observed + lifetime), matching expiry.
  sched.run_until(500_ms);
  EXPECT_FALSE(ldm.perceived_object(3).has_value());
  EXPECT_TRUE(ldm.perceived_objects().empty());
}

TEST(Ldm, PerceivedObjectRefreshExtendsExpiry) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  ldm.set_perceived_object_lifetime(500_ms);
  ldm.update_perceived_object({.object_id = 3, .classification = "person"});
  sched.run_until(400_ms);
  // Re-observing the object must restart its expiry clock, not let the
  // original insertion time keep ticking underneath.
  ldm.update_perceived_object({.object_id = 3, .classification = "person"});
  sched.run_until(800_ms);
  EXPECT_TRUE(ldm.perceived_object(3).has_value());
  sched.run_until(900_ms);
  EXPECT_FALSE(ldm.perceived_object(3).has_value());
  ldm.garbage_collect();
  EXPECT_EQ(ldm.perceived_objects_expired(), 1u);
}

TEST(Ldm, PerceivedObjectMeasuredDefaultsToUpdateTime) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  sched.run_until(200_ms);
  ldm.update_perceived_object({.object_id = 1, .classification = "person"});
  EXPECT_EQ(ldm.perceived_object(1)->measured, 200_ms);
  // An explicit (older) measurement timestamp survives the update.
  PerceivedObject remote;
  remote.object_id = 2;
  remote.classification = "bicycle";
  remote.measured = 50_ms;
  remote.source_station = 900;
  ldm.update_perceived_object(remote);
  EXPECT_EQ(ldm.perceived_object(2)->measured, 50_ms);
  EXPECT_EQ(ldm.perceived_object(2)->source_station, 900u);
  EXPECT_EQ(ldm.perceived_object(1)->source_station, 0u);  // local sensing
}

TEST(Ldm, AreaQueriesFilterGeometrically) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  for (StationId id = 1; id <= 3; ++id) {
    Cam cam;
    cam.header.station_id = id;
    const geo::GeoPosition gp = frame.to_geo({static_cast<double>(id) * 50.0, 0.0});
    cam.basic.reference_position.latitude = geo::to_its_tenth_microdegree(gp.latitude_deg);
    cam.basic.reference_position.longitude = geo::to_its_tenth_microdegree(gp.longitude_deg);
    ldm.update_from_cam(cam);
  }
  const auto near = ldm.vehicles_in(geo::GeoArea::circle({50, 0}, 60.0));
  ASSERT_EQ(near.size(), 2u);  // stations at 50 m and 100 m
  EXPECT_EQ(ldm.vehicles().size(), 3u);
}

TEST(Ldm, DumpRendersAllEntryKinds) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  Cam cam;
  cam.header.station_id = 42;
  cam.basic.reference_position.latitude = geo::to_its_tenth_microdegree(41.1780);
  cam.basic.reference_position.longitude = geo::to_its_tenth_microdegree(-8.6080);
  ldm.update_from_cam(cam);
  Denm denm;
  denm.header.station_id = 900;
  denm.management.action_id = {900, 1};
  denm.management.validity_duration_s = 60;
  denm.situation = SituationContainer{.information_quality = 5,
                                      .event_type = EventType::of(Cause::CollisionRisk, 2),
                                      .linked_cause = {}};
  ldm.update_from_denm(denm);
  ldm.update_perceived_object({.object_id = 1, .classification = "stop sign"});
  const std::string dump = ldm.dump();
  EXPECT_NE(dump.find("station 42"), std::string::npos);
  EXPECT_NE(dump.find("Collision risk"), std::string::npos);
  EXPECT_NE(dump.find("stop sign"), std::string::npos);
}

TEST(DenService, UpdateExtendsReceivedExpiryAndKafSurvives) {
  Rig rig;
  auto& originator = rig.add_station(900, {0, 0});
  auto& b = rig.add_station(42, {20, 0});
  DenConfig kaf_config;
  kaf_config.enable_kaf = true;
  kaf_config.kaf_default_interval = 300_ms;
  b.den = std::make_unique<DenBasicService>(rig.sched, *b.router, 42, nullptr, b.ldm.get(),
                                            kaf_config);

  DenmRequest r = basic_request({10, 0});
  r.validity = 2_s;
  const ActionId id = originator.den->trigger(r);
  rig.sched.run_until(1_s);

  // Update with double the validity: the receiver's expiry must move out to
  // the update's window, not stay pinned at the original 2 s deadline.
  DenmRequest update = basic_request({10, 0});
  update.validity = 4_s;
  originator.den->update(id, update);
  rig.sched.run_until(1100_ms);

  const auto st = b.den->received_state(id);
  ASSERT_TRUE(st.has_value());
  EXPECT_GT(st->expires, 4_s);

  // The keep-alive chain must survive past the ORIGINAL deadline and keep
  // forwarding until the extended one.
  rig.sched.run_until(2500_ms);
  const auto past_original = b.den->stats().kaf_retransmissions;
  EXPECT_GE(past_original, 1u);
  rig.sched.run_until(4_s);
  EXPECT_GT(b.den->stats().kaf_retransmissions, past_original);
}

TEST(DenService, OriginatedEventExpiresAndStopsRepetition) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  rig.add_station(42, {20, 0});
  DenmRequest r = basic_request({10, 0});
  r.validity = 1_s;
  r.repetition_interval = 100_ms;
  r.repetition_duration = 10_s;  // repetition window deliberately > validity
  const ActionId id = a.den->trigger(r);
  rig.sched.run_until(5_s);
  // The 1 s validity caps the repetition chain, not the 10 s window: ~9-10
  // repetitions, never the ~49 a validity-blind repeater would emit.
  EXPECT_GE(a.den->stats().repetitions, 8u);
  EXPECT_LE(a.den->stats().repetitions, 10u);
  // And the originated state itself is gone once the validity elapsed.
  EXPECT_FALSE(a.den->owns(id));
}

TEST(DenService, BuildDenmClampsValidityAndRoundsHeading) {
  Rig rig;
  auto& a = rig.add_station(900, {0, 0});
  std::vector<Denm> sent;
  a.den->set_transmit_hook([&](const Denm& d) { sent.push_back(d); });

  // validityDuration is 0..86400 s in EN 302 637-3: oversized requests clamp
  // instead of wrapping through the PER constraint.
  DenmRequest r = basic_request({10, 0});
  r.validity = sim::SimTime::seconds(100'000);
  r.event_heading_rad = 0.05 * M_PI / 180.0;  // 0.05 deg
  a.den->trigger(r);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].management.validity_duration_s, 86400u);
  // 0.05 deg rounds UP to 1 deci-degree; truncation used to floor it to 0.
  ASSERT_TRUE(sent[0].location.has_value());
  ASSERT_TRUE(sent[0].location->event_position_heading.has_value());
  EXPECT_EQ(sent[0].location->event_position_heading->value_01deg, 1);

  // Just below 360 deg rounds up to 3600, which must wrap to 0.
  DenmRequest r2 = basic_request({10, 0});
  r2.event_heading_rad = 359.96 * M_PI / 180.0;
  a.den->trigger(r2);
  ASSERT_EQ(sent.size(), 2u);
  ASSERT_TRUE(sent[1].location->event_position_heading.has_value());
  EXPECT_EQ(sent[1].location->event_position_heading->value_01deg, 0);

  // Sub-second validity still announces at least 1 s.
  DenmRequest r3 = basic_request({10, 0});
  r3.validity = sim::SimTime::milliseconds(200);
  a.den->trigger(r3);
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent[2].management.validity_duration_s, 1u);
}

/// The LDM's expiry rules with a full sweep on every mutation and every
/// explicit garbage_collect(): the reference for an LDM that skips sweeps.
class SweepingLdmModel {
 public:
  explicit SweepingLdmModel(const sim::Scheduler& sched) : sched_{sched} {}

  using Update = std::tuple<LdmUpdateKind, StationId, ActionId, std::uint32_t>;
  struct Vehicle {
    sim::SimTime last_update;
    std::uint64_t cam_count{0};
  };

  void cam(StationId id) {
    sweep();
    Vehicle& v = vehicles[id];
    v.last_update = sched_.now();
    ++v.cam_count;
    log.emplace_back(LdmUpdateKind::Vehicle, id, ActionId{}, 0);
  }
  void denm(ActionId action, std::uint32_t validity_s, bool termination) {
    sweep();
    const auto key = std::make_pair(action.originating_station, action.sequence_number);
    if (termination) {
      if (events.erase(key) > 0) log.emplace_back(LdmUpdateKind::EventRemoved, 0, action, 0);
      return;
    }
    events[key] = sched_.now() + sim::SimTime::seconds(validity_s);
    log.emplace_back(LdmUpdateKind::Event, 0, action, 0);
  }
  void object(std::uint32_t id) {
    sweep();
    objects[id] = sched_.now();
    log.emplace_back(LdmUpdateKind::PerceivedObject, 0, ActionId{}, id);
  }
  void sweep() {
    const sim::SimTime now = sched_.now();
    std::erase_if(vehicles, [&](const auto& kv) { return now - kv.second.last_update > vehicle_lifetime; });
    std::erase_if(events, [&](const auto& kv) { return now > kv.second; });
    expired += std::erase_if(objects, [&](const auto& kv) { return now - kv.second >= object_lifetime; });
  }

  sim::SimTime vehicle_lifetime{sim::SimTime::milliseconds(1100)};
  sim::SimTime object_lifetime{sim::SimTime::milliseconds(1500)};
  std::map<StationId, Vehicle> vehicles;
  std::map<std::pair<StationId, std::uint16_t>, sim::SimTime> events;  // expiry
  std::map<std::uint32_t, sim::SimTime> objects;                        // observed
  std::uint64_t expired{0};
  std::vector<Update> log;

 private:
  const sim::Scheduler& sched_;
};

TEST(Ldm, SkippedSweepsMatchAModelThatAlwaysSweeps) {
  sim::Scheduler sched;
  geo::LocalFrame frame{{41.1780, -8.6080}};
  Ldm ldm{sched, frame};
  SweepingLdmModel model{sched};
  std::vector<SweepingLdmModel::Update> log;
  ldm.subscribe([&log](const LdmUpdate& u) { log.emplace_back(u.kind, u.station, u.action, u.object); });

  const sim::SimTime lifetimes[] = {sim::SimTime::zero(), sim::SimTime::nanoseconds(1),
                                    sim::SimTime::milliseconds(300), sim::SimTime::milliseconds(1100),
                                    -sim::SimTime::milliseconds(1), sim::SimTime::max()};
  std::mt19937_64 rng{424242};
  const auto pick = [&rng](int n) { return static_cast<int>(rng() % static_cast<std::uint64_t>(n)); };

  // Instants at which some entry sits exactly at, or one tick past, its
  // expiry boundary.
  const auto boundaries = [&] {
    std::vector<sim::SimTime> out;
    const auto add = [&out](sim::SimTime since, sim::SimTime life) {
      if (life > sim::SimTime::seconds(100'000)) return;  // unreachable
      for (const std::int64_t d : {-1, 0, 1}) out.push_back(since + life + sim::SimTime::nanoseconds(d));
    };
    for (const auto& [id, v] : model.vehicles) add(v.last_update, model.vehicle_lifetime);
    for (const auto& [key, expires] : model.events) add(expires, sim::SimTime::zero());
    for (const auto& [id, observed] : model.objects) add(observed, model.object_lifetime);
    return out;
  };

  for (int step = 0; step < 20000; ++step) {
    // Advance time: not at all, by a tick, by a stretch, or to a boundary.
    sim::SimTime next = sched.now();
    switch (pick(5)) {
      case 0: break;
      case 1: next = next + sim::SimTime::nanoseconds(1); break;
      case 2: next = next + sim::SimTime::milliseconds(1 + pick(400)); break;
      default: {
        const auto b = boundaries();
        if (!b.empty()) next = std::max(next, b[static_cast<std::size_t>(pick(static_cast<int>(b.size())))]);
      }
    }
    sched.run_until(next);

    switch (pick(9)) {
      case 0:
      case 1: {
        Cam cam;
        cam.header.station_id = static_cast<StationId>(1 + pick(4));
        ldm.update_from_cam(cam);
        model.cam(cam.header.station_id);
        break;
      }
      case 2:
      case 3: {
        Denm denm;
        denm.management.action_id = {900, static_cast<std::uint16_t>(1 + pick(4))};
        denm.management.validity_duration_s = static_cast<std::uint32_t>(pick(3));
        if (pick(3) == 0) denm.management.termination = Termination::IsCancellation;
        ldm.update_from_denm(denm);
        model.denm(denm.management.action_id, denm.management.validity_duration_s,
                   denm.is_termination());
        break;
      }
      case 4:
      case 5: {
        PerceivedObject object;
        object.object_id = static_cast<std::uint32_t>(1 + pick(4));
        ldm.update_perceived_object(object);
        model.object(object.object_id);
        break;
      }
      case 6:
        ldm.garbage_collect();
        model.sweep();
        break;
      case 7: {
        const sim::SimTime t = lifetimes[pick(6)];
        ldm.set_vehicle_entry_lifetime(t);
        model.vehicle_lifetime = t;
        break;
      }
      default: {
        const sim::SimTime t = lifetimes[pick(6)];
        ldm.set_perceived_object_lifetime(t);
        model.object_lifetime = t;
        break;
      }
    }

    // What the readers see must match the model's live entries.
    const sim::SimTime now = sched.now();
    std::vector<std::tuple<StationId, std::uint64_t, sim::SimTime>> want_vehicles;
    for (const auto& [id, v] : model.vehicles) {
      if (now - v.last_update <= model.vehicle_lifetime) want_vehicles.emplace_back(id, v.cam_count, v.last_update);
    }
    std::vector<std::tuple<StationId, std::uint64_t, sim::SimTime>> got_vehicles;
    for (const auto& v : ldm.vehicles()) got_vehicles.emplace_back(v.station_id, v.cam_count, v.last_update);
    ASSERT_EQ(got_vehicles, want_vehicles) << "step " << step;

    std::vector<std::pair<ActionId, sim::SimTime>> want_events;
    for (const auto& [key, expires] : model.events) {
      if (now <= expires) want_events.emplace_back(ActionId{key.first, key.second}, expires);
    }
    std::vector<std::pair<ActionId, sim::SimTime>> got_events;
    for (const auto& e : ldm.events()) got_events.emplace_back(e.action_id, e.expires);
    ASSERT_EQ(got_events, want_events) << "step " << step;

    std::vector<std::pair<std::uint32_t, sim::SimTime>> want_objects;
    for (const auto& [id, observed] : model.objects) {
      if (now - observed < model.object_lifetime) want_objects.emplace_back(id, observed);
    }
    std::vector<std::pair<std::uint32_t, sim::SimTime>> got_objects;
    for (const auto& o : ldm.perceived_objects()) got_objects.emplace_back(o.object_id, o.observed);
    ASSERT_EQ(got_objects, want_objects) << "step " << step;

    ASSERT_EQ(ldm.perceived_objects_expired(), model.expired) << "step " << step;
    ASSERT_EQ(log, model.log) << "step " << step;
  }
  // The walk must have reached the cases that matter.
  EXPECT_GT(model.expired, 100u);
}

}  // namespace
}  // namespace rst::its
