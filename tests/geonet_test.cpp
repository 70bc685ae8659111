#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"

namespace rst::its {
namespace {

using namespace rst::sim::literals;

/// `prefix` followed by the decimal digits of `n`. Appending to the prefix,
/// rather than `"r" + std::to_string(n)`, keeps GCC 12's -Wrestrict false
/// positive in libstdc++'s string insert out of Release builds.
std::string numbered(const char* prefix, long long n) {
  std::string out{prefix};
  out += std::to_string(n);
  return out;
}

struct Node {
  std::unique_ptr<dot11p::Radio> radio;
  std::unique_ptr<GeoNetRouter> router;
  std::vector<std::pair<std::vector<std::uint8_t>, GnDeliveryMeta>> delivered;
};

struct Rig {
  sim::Scheduler sched;
  sim::RandomStream rng{77, "gn_test"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  std::unique_ptr<dot11p::Medium> medium;
  std::vector<std::unique_ptr<Node>> nodes;

  explicit Rig(double exponent = 2.0, GeoNetConfig gn_config = {}) : gn_config_{gn_config} {
    dot11p::ChannelModel channel;
    channel.path_loss =
        std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(exponent));
    medium = std::make_unique<dot11p::Medium>(sched, rng.child("medium"), channel);
  }

  Node& add_node(std::uint32_t id, geo::Vec2 pos, dot11p::RadioConfig radio_config = {}) {
    auto node = std::make_unique<Node>();
    node->radio = std::make_unique<dot11p::Radio>(
        *medium, radio_config, [pos] { return pos; }, rng.child(numbered("r", id)),
        numbered("r", id));
    node->router = std::make_unique<GeoNetRouter>(
        sched, *node->radio, frame, GnAddress::from_station(id),
        [pos] { return EgoState{pos, 0.0, 0.0}; }, gn_config_, rng.child(numbered("g", id)));
    Node* raw = node.get();
    node->router->set_delivery_handler(
        [raw](const std::vector<std::uint8_t>& pdu, const GnDeliveryMeta& meta) {
          raw->delivered.emplace_back(pdu, meta);
        });
    nodes.push_back(std::move(node));
    return *nodes.back();
  }

  GeoNetConfig gn_config_{};
};

std::vector<std::uint8_t> payload_bytes() { return {0x01, 0x02, 0x03, 0x04}; }

TEST(GeoNet, ShbDeliversToNeighbours) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].first, payload_bytes());
  EXPECT_EQ(b.delivered[0].second.source, GnAddress::from_station(1));
  EXPECT_NEAR(b.delivered[0].second.source_position.x, 0.0, 0.5);
  EXPECT_EQ(a.router->stats().originated, 1u);
  EXPECT_EQ(b.router->stats().delivered_up, 1u);
}

TEST(GeoNet, ShbIsSingleHop) {
  // Three nodes in a line, radio range covers only adjacent pairs.
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  auto& b = rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run_until(2_s);
  EXPECT_EQ(b.delivered.size(), 1u);
  EXPECT_TRUE(c.delivered.empty());  // never forwarded
  EXPECT_EQ(b.router->stats().forwarded, 0u);
}

TEST(GeoNet, LocationTableLearnsFromAllPackets) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run();
  const auto entry = b.router->location_entry(GnAddress::from_station(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->packets_received, 1u);
  // Own address never appears in the local table.
  EXPECT_FALSE(a.router->location_entry(GnAddress::from_station(1)).has_value());
}

TEST(GeoNet, GbcDeliversInsideAreaOnly) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& inside = rig.add_node(2, {30, 0});
  auto& outside = rig.add_node(3, {0, 200});
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({30, 0}, 50.0),
                     dot11p::AccessCategory::Voice);
  rig.sched.run_until(2_s);
  EXPECT_EQ(inside.delivered.size(), 1u);
  EXPECT_TRUE(outside.delivered.empty());
}

TEST(GeoNet, GbcMultiHopForwardingReachesAcrossRangeLimit) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  auto& b = rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  // Destination area covers everyone; c is unreachable directly from a.
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({160, 0}, 400.0),
                     dot11p::AccessCategory::Voice);
  rig.sched.run_until(3_s);
  EXPECT_EQ(b.delivered.size(), 1u);
  ASSERT_EQ(c.delivered.size(), 1u);
  EXPECT_EQ(b.router->stats().forwarded, 1u);
  EXPECT_GE(c.delivered[0].second.hops_traversed, 1u);
}

TEST(GeoNet, DuplicateDetectionSuppressesRebroadcastStorm) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  auto& c = rig.add_node(3, {40, 0});
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({20, 0}, 100.0),
                     dot11p::AccessCategory::Voice);
  rig.sched.run_until(3_s);
  // Each node delivers the payload exactly once despite forwarding.
  EXPECT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(c.delivered.size(), 1u);
  // CBF: at most a bounded number of forwards happen for one packet.
  const auto total_forwards = b.router->stats().forwarded + c.router->stats().forwarded;
  EXPECT_LE(total_forwards, 2u);
  const auto suppressed = b.router->stats().cbf_suppressed + c.router->stats().cbf_suppressed +
                          b.router->stats().duplicates_dropped + c.router->stats().duplicates_dropped;
  EXPECT_GE(suppressed, 1u);
}

TEST(GeoNet, TsbFloodsUpToHopLimit) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  a.router->send_tsb(payload_bytes(), 1, dot11p::AccessCategory::Video);
  rig.sched.run_until(1_s);
  EXPECT_TRUE(c.delivered.empty());  // hop limit 1: no forwarding

  a.router->send_tsb(payload_bytes(), 3, dot11p::AccessCategory::Video);
  rig.sched.run_until(3_s);
  EXPECT_EQ(c.delivered.size(), 1u);
}

TEST(GeoNet, OutOfAreaNodeForwardsOnlyWithProgress) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  // d is behind a relative to the area: no geometric progress, must drop.
  auto& behind = rig.add_node(2, {-50, 0});
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({500, 0}, 50.0),
                     dot11p::AccessCategory::Voice, 5);
  rig.sched.run_until(2_s);
  EXPECT_TRUE(behind.delivered.empty());
  EXPECT_EQ(behind.router->stats().forwarded, 0u);
  EXPECT_EQ(behind.router->stats().out_of_area_dropped, 1u);
}

TEST(GeoNet, GucDeliversOnlyToTheDestination) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  auto& c = rig.add_node(3, {40, 0});
  // a knows b's position from a prior broadcast.
  b.router->send_shb({0x42}, dot11p::AccessCategory::Video);
  rig.sched.run_until(100_ms);
  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(2),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(1_s);
  // b got the unicast; c overheard the frame but did not deliver it up.
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].first, payload_bytes());
  for (const auto& [pdu, meta] : c.delivered) {
    EXPECT_NE(pdu, payload_bytes());
  }
}

TEST(GeoNet, LocationServiceResolvesUnknownDestination) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  // a has never heard from b: the GUC is buffered, an LS request floods,
  // b answers, and the buffered PDU goes out.
  EXPECT_FALSE(a.router->location_entry(GnAddress::from_station(2)).has_value());
  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(2),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(2_s);
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_EQ(b.delivered[0].first, payload_bytes());
  EXPECT_EQ(a.router->stats().ls_requests_sent, 1u);
  EXPECT_EQ(b.router->stats().ls_replies_sent, 1u);
  // The resolved position is now cached for future unicasts.
  EXPECT_TRUE(a.router->location_entry(GnAddress::from_station(2)).has_value());
}

TEST(GeoNet, LocationServiceRequestFloodsAcrossHops) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  // c is out of a's direct range; the LS request must be relayed by b and
  // the reply routed back, then the GUC forwarded greedily.
  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(3),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(5_s);
  bool c_got_payload = false;
  for (const auto& [pdu, meta] : c.delivered) c_got_payload |= pdu == payload_bytes();
  EXPECT_TRUE(c_got_payload);
  EXPECT_EQ(c.router->stats().ls_replies_sent, 1u);
}

TEST(GeoNet, LsBufferCapacityBounded) {
  GeoNetConfig gn;
  gn.ls_buffer_capacity = 2;
  Rig rig{2.0, gn};
  auto& a = rig.add_node(1, {0, 0});
  // No such station exists: the buffer fills and then rejects.
  EXPECT_TRUE(a.router->send_guc({1}, GnAddress::from_station(99), dot11p::AccessCategory::Video));
  EXPECT_TRUE(a.router->send_guc({2}, GnAddress::from_station(99), dot11p::AccessCategory::Video));
  EXPECT_FALSE(a.router->send_guc({3}, GnAddress::from_station(99), dot11p::AccessCategory::Video));
  EXPECT_EQ(a.router->stats().ls_buffer_dropped, 1u);
}

TEST(GeoNet, GucForwardsGreedilyAcrossRangeLimit) {
  Rig rig{2.5};
  dot11p::RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.rx_sensitivity_dbm = -80.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_node(1, {0, 0}, weak);
  auto& b = rig.add_node(2, {150, 0}, weak);
  auto& c = rig.add_node(3, {300, 0}, weak);
  // Teach a where c is (c cannot reach a directly: inject via b's relay of
  // a beacon-equivalent — simplest: seed the location tables through TSB).
  c.router->send_tsb({0x01}, 3, dot11p::AccessCategory::Video);
  rig.sched.run_until(2_s);
  ASSERT_TRUE(a.router->location_entry(GnAddress::from_station(3)).has_value());

  EXPECT_TRUE(a.router->send_guc(payload_bytes(), GnAddress::from_station(3),
                                 dot11p::AccessCategory::Video));
  rig.sched.run_until(4_s);
  // Delivered across the range limit via b's greedy forwarding.
  bool c_got_payload = false;
  for (const auto& [pdu, meta] : c.delivered) c_got_payload |= pdu == payload_bytes();
  EXPECT_TRUE(c_got_payload);
  EXPECT_GE(b.router->stats().forwarded, 1u);
}

TEST(GeoNet, GucPacketRoundTripsOnTheWire) {
  GnPacket pkt;
  pkt.type = GnPacketType::Guc;
  pkt.sequence_number = 9;
  pkt.source.address = GnAddress::from_station(1);
  pkt.forwarder = pkt.source;
  LongPositionVector dest;
  dest.address = GnAddress::from_station(2);
  dest.latitude = 411780000;
  dest.longitude = -86080000;
  pkt.destination = dest;
  pkt.payload = {9, 8, 7};
  EXPECT_EQ(GnPacket::decode(pkt.encode()), pkt);
}

TEST(GeoNet, BeaconingPopulatesLocationTables) {
  GeoNetConfig gn;
  gn.enable_beaconing = true;
  gn.beacon_interval = 500_ms;
  Rig rig{2.0, gn};
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {30, 0});
  (void)a;
  rig.sched.run_until(3_s);
  EXPECT_TRUE(b.router->location_entry(GnAddress::from_station(1)).has_value());
  EXPECT_TRUE(a.router->location_entry(GnAddress::from_station(2)).has_value());
  // Beacons carry no payload: nothing is delivered up.
  EXPECT_TRUE(a.delivered.empty());
  EXPECT_TRUE(b.delivered.empty());
}

TEST(GeoNet, LocationTableEntriesExpire) {
  GeoNetConfig gn;
  gn.location_entry_lifetime = 1_s;
  Rig rig{2.0, gn};
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {30, 0});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run_until(100_ms);
  EXPECT_TRUE(b.router->location_entry(GnAddress::from_station(1)).has_value());
  rig.sched.run_until(3_s);
  // Trigger table maintenance via another reception.
  b.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run_until(4_s);
  EXPECT_FALSE(b.router->location_entry(GnAddress::from_station(1)).has_value());
}

TEST(GeoNet, ExpiredPacketsAreDroppedNotProcessed) {
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  // Hand-craft a packet whose source timestamp lies beyond its lifetime.
  rig.sched.run_until(10_s);
  GnPacket stale;
  stale.type = GnPacketType::Shb;
  stale.remaining_hop_limit = 1;
  stale.lifetime_50ms = 20;  // 1 s lifetime
  stale.source.address = GnAddress::from_station(1);
  stale.source.timestamp_ms = 1000;  // 9 s old
  stale.forwarder = stale.source;
  stale.payload = payload_bytes();
  dot11p::Frame f;
  f.payload = stale.encode();
  // Bypass the router's origination: send the raw frame.
  struct RawSender {
    dot11p::Radio& radio;
  } sender{*a.radio};
  sender.radio.send(std::move(f));
  rig.sched.run_until(11_s);
  EXPECT_TRUE(b.delivered.empty());
  EXPECT_EQ(b.router->stats().lifetime_expired_dropped, 1u);

  // A fresh timestamp passes.
  stale.source.timestamp_ms = 11000;
  dot11p::Frame fresh;
  fresh.payload = stale.encode();
  sender.radio.send(std::move(fresh));
  rig.sched.run_until(12_s);
  EXPECT_EQ(b.delivered.size(), 1u);
}

TEST(GeoNet, PositionVectorReflectsEgoState) {
  Rig rig;
  auto& a = rig.add_node(1, {12, 34});
  auto& b = rig.add_node(2, {20, 34});
  a.router->send_shb(payload_bytes(), dot11p::AccessCategory::Video);
  rig.sched.run();
  ASSERT_EQ(b.delivered.size(), 1u);
  EXPECT_NEAR(b.delivered[0].second.source_position.x, 12.0, 0.2);
  EXPECT_NEAR(b.delivered[0].second.source_position.y, 34.0, 0.2);
}

// --- One decode per frame -------------------------------------------------

/// An SHB frame built outside any router, so a test sees every buffer the
/// receive path makes.
dot11p::Frame raw_shb(std::uint32_t source_id, sim::SimTime now, Bytes payload) {
  GnPacket pkt;
  pkt.type = GnPacketType::Shb;
  pkt.source.address = GnAddress::from_station(source_id);
  pkt.source.timestamp_ms = static_cast<std::uint32_t>(now.count_ns() / 1'000'000);
  pkt.forwarder = pkt.source;
  pkt.payload = std::move(payload);
  dot11p::Frame f;
  f.payload = pkt.encode();
  return f;
}

TEST(GeoNetDecodeMemo, ShbHeardByNRoutersDecodesOnePayload) {
  constexpr std::size_t kReceivers = 8;
  Rig rig;
  auto& sender = rig.add_node(1, {0, 0});
  std::vector<Bytes> delivered;
  for (std::size_t i = 0; i < kReceivers; ++i) {
    auto& node = rig.add_node(static_cast<std::uint32_t>(10 + i), {10.0 + 4.0 * i, 5.0});
    node.router->set_delivery_handler(
        [&delivered](const Bytes& pdu, const GnDeliveryMeta&) { delivered.push_back(pdu); });
  }
  const Bytes btp = payload_bytes();
  const auto buffers_before = Bytes::buffer_count();
  sender.radio->send(raw_shb(1, rig.sched.now(), btp));
  rig.sched.run_until(1_s);

  // The frame, and one payload shared by every receiver: not one per router.
  EXPECT_EQ(Bytes::buffer_count() - buffers_before, 2u);
  ASSERT_EQ(delivered.size(), kReceivers);
  for (const Bytes& pdu : delivered) {
    EXPECT_EQ(pdu, btp);
    EXPECT_EQ(pdu.storage_id(), delivered.front().storage_id());
  }
}

TEST(GeoNetDecodeMemo, GarbageThenValidFramesReachTheSameRouters) {
  Rig rig;
  auto& sender = rig.add_node(1, {0, 0});
  std::vector<Node*> receivers;
  for (std::uint32_t i = 0; i < 4; ++i) receivers.push_back(&rig.add_node(10 + i, {15.0 + 5.0 * i, 0}));

  // Two garbage frames and two valid SHBs of equal size but other bytes:
  // each frame is judged by its own bytes, never by the one before it.
  const std::vector<std::uint8_t> first{0x11, 0x22, 0x33};
  const std::vector<std::uint8_t> second{0x44, 0x55, 0x66};
  dot11p::Frame garbage;
  garbage.payload = std::vector<std::uint8_t>{0xFF, 0x00, 0x01};
  sender.radio->send(garbage);
  rig.sched.run_until(100_ms);
  sender.radio->send(raw_shb(1, rig.sched.now(), first));
  rig.sched.run_until(200_ms);
  dot11p::Frame more_garbage;
  more_garbage.payload = std::vector<std::uint8_t>{0xFF, 0x00, 0x01};
  sender.radio->send(more_garbage);
  rig.sched.run_until(300_ms);
  sender.radio->send(raw_shb(1, rig.sched.now(), second));
  rig.sched.run_until(400_ms);

  for (const Node* node : receivers) {
    ASSERT_EQ(node->delivered.size(), 2u);
    EXPECT_EQ(node->delivered[0].first, first);
    EXPECT_EQ(node->delivered[1].first, second);
    EXPECT_EQ(node->router->stats().delivered_up, 2u);
  }
}

TEST(GeoNetDecodeMemo, ForwardersStampTheirOwnPositionVector) {
  // B and C both hear A's TSB (hop limit 2) and both forward it. They
  // share one decoded packet, so each must stamp its own copy.
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  auto& b = rig.add_node(2, {20, 0});
  auto& c = rig.add_node(3, {0, 25});
  std::vector<GnPacket> on_air;
  dot11p::Radio sniffer{*rig.medium, {}, [] { return geo::Vec2{5, 5}; }, rig.rng.child("sniffer"),
                        "sniffer"};
  sniffer.set_receive_callback([&on_air](const dot11p::Frame& f, const dot11p::RxInfo&) {
    on_air.push_back(GnPacket::decode(f.payload));
  });
  a.router->send_tsb(payload_bytes(), 2, dot11p::AccessCategory::Video);
  rig.sched.run_until(1_s);

  EXPECT_EQ(b.router->stats().forwarded, 1u);
  EXPECT_EQ(c.router->stats().forwarded, 1u);
  std::set<std::uint64_t> forwarders;
  for (const GnPacket& pkt : on_air) {
    EXPECT_EQ(pkt.source.address, GnAddress::from_station(1));
    if (pkt.forwarder.address == pkt.source.address) continue;  // A's own frame
    EXPECT_EQ(pkt.remaining_hop_limit, 1);
    forwarders.insert(pkt.forwarder.address.value);
    const Node& fwd = pkt.forwarder.address == GnAddress::from_station(2) ? b : c;
    const geo::GeoPosition gp = rig.frame.to_geo(fwd.router->ego().position);
    EXPECT_EQ(pkt.forwarder.latitude, geo::to_its_tenth_microdegree(gp.latitude_deg));
    EXPECT_EQ(pkt.forwarder.longitude, geo::to_its_tenth_microdegree(gp.longitude_deg));
  }
  EXPECT_EQ(forwarders, (std::set<std::uint64_t>{GnAddress::from_station(2).value,
                                                 GnAddress::from_station(3).value}));
}

TEST(GeoNetDecodeMemo, GbcHeardByManyRoutersReachesEachWhole) {
  // Every router inside the area gets the whole packet, however the
  // routers before it in the delivery order handled the shared decode.
  Rig rig;
  auto& a = rig.add_node(1, {0, 0});
  std::vector<Node*> inside;
  for (std::uint32_t i = 0; i < 4; ++i) inside.push_back(&rig.add_node(10 + i, {20.0 + 5.0 * i, 3.0}));
  a.router->send_gbc(payload_bytes(), geo::GeoArea::circle({30, 0}, 50.0),
                     dot11p::AccessCategory::Voice);
  rig.sched.run_until(2_s);
  for (const Node* node : inside) {
    ASSERT_EQ(node->delivered.size(), 1u);
    EXPECT_EQ(node->delivered[0].first, payload_bytes());
    ASSERT_TRUE(node->delivered[0].second.destination_area.has_value());
    EXPECT_EQ(node->delivered[0].second.source, GnAddress::from_station(1));
  }
}

TEST(GeoNetDecodeMemo, EveryThreadDecodesItsOwnFrames) {
  // Two scenarios on two threads at once: each thread's receptions come
  // from its own frames, whatever the other thread decodes meanwhile.
  const auto run = [](std::uint8_t tag, std::vector<std::vector<std::uint8_t>>& out) {
    Rig rig;
    auto& sender = rig.add_node(1, {0, 0});
    auto& receiver = rig.add_node(2, {20, 0});
    rig.add_node(3, {0, 20});
    for (int i = 0; i < 300; ++i) {
      sender.radio->send(raw_shb(1, rig.sched.now(),
                                 std::vector<std::uint8_t>{tag, static_cast<std::uint8_t>(i)}));
      rig.sched.run_until(rig.sched.now() + 5_ms);
    }
    for (const auto& d : receiver.delivered) out.push_back(d.first);
  };
  std::vector<std::vector<std::uint8_t>> got_a;
  std::vector<std::vector<std::uint8_t>> got_b;
  std::thread t1{[&] { run(0xA0, got_a); }};
  std::thread t2{[&] { run(0xB0, got_b); }};
  t1.join();
  t2.join();
  ASSERT_EQ(got_a.size(), 300u);
  ASSERT_EQ(got_b.size(), 300u);
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(got_a[i], (std::vector<std::uint8_t>{0xA0, static_cast<std::uint8_t>(i)}));
    EXPECT_EQ(got_b[i], (std::vector<std::uint8_t>{0xB0, static_cast<std::uint8_t>(i)}));
  }
}

}  // namespace
}  // namespace rst::its
