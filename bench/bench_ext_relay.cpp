// Extension A13: GeoNetworking relay around the blind corner. When the
// building shadows the direct RSU->vehicle radio path (the same wall that
// blocks the optical LOS), a parked ETSI-capable vehicle with line of
// sight to both sides forwards the geo-broadcast DENM — multi-hop
// GeoNetworking recovering connectivity that single-hop 802.11p loses.

#include <cstdio>
#include <map>
#include <memory>

#include "rst/core/its_station.hpp"
#include "rst/geo/geodesy.hpp"
#include "rst/sim/stats.hpp"

namespace {

using namespace rst;
using namespace rst::sim::literals;

struct RelayResult {
  double delivery{0};
  sim::RunningStats latency_ms{};
  std::uint64_t relay_forwards{0};
};

RelayResult run(bool with_relay, std::uint64_t seed) {
  sim::Scheduler sched;
  sim::RandomStream rng{seed, "relay_bench"};
  geo::LocalFrame frame{{41.1780, -8.6080}};

  // Geometry: RSU at the intersection corner, the protagonist's OBU down
  // the shadowed street, a thick building wall between them. The relay is
  // parked at the intersection mouth with LOS to both.
  // The building occupies the quadrant x > 5, y < 30; the streets are the
  // L-shaped region around it. The relay parks at the corner mouth with
  // line of sight into both streets.
  const geo::Vec2 rsu_pos{40, 40};
  const geo::Vec2 obu_pos{0, -60};
  const geo::Vec2 relay_pos{0, 36};
  std::vector<dot11p::Wall> walls{{.a = {5, 30}, .b = {80, 30}, .obstruction_loss_db = 60.0},
                                  {.a = {5, 30}, .b = {5, -80}, .obstruction_loss_db = 60.0}};

  dot11p::ChannelModel channel;
  channel.path_loss = std::make_shared<dot11p::ObstacleShadowingModel>(
      std::make_unique<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.5)),
      std::move(walls));
  channel.shadowing_sigma_db = 2.0;
  dot11p::Medium medium{sched, rng.child("medium"), channel};
  middleware::HttpLan lan{sched, rng.child("lan")};

  core::ItsStationConfig rsu_config;
  rsu_config.station_id = 900;
  rsu_config.station_type = its::StationType::RoadSideUnit;
  rsu_config.name = "rsu";
  core::ItsStation rsu{sched,        medium, lan, frame, rsu_config,
                       [rsu_pos] { return its::EgoState{rsu_pos, 0, 0}; },
                       [rsu_pos] { return rsu_pos; },
                       rng.child("rsu"), nullptr};
  core::ItsStationConfig obu_config;
  obu_config.station_id = 42;
  obu_config.name = "obu";
  core::ItsStation obu{sched,        medium, lan, frame, obu_config,
                       [obu_pos] { return its::EgoState{obu_pos, 0, 0}; },
                       [obu_pos] { return obu_pos; },
                       rng.child("obu"), nullptr};
  std::unique_ptr<core::ItsStation> relay;
  if (with_relay) {
    core::ItsStationConfig relay_config;
    relay_config.station_id = 77;
    relay_config.name = "relay";
    relay = std::make_unique<core::ItsStation>(
        sched, medium, lan, frame, relay_config,
        [relay_pos] { return its::EgoState{relay_pos, 0, 0}; }, [relay_pos] { return relay_pos; },
        rng.child("relay"), nullptr);
  }

  constexpr int kMessages = 100;
  std::map<std::uint16_t, sim::SimTime> sent_at;
  RelayResult result;
  int received = 0;
  obu.den().set_denm_callback([&](const its::Denm& denm, const its::GnDeliveryMeta& meta, bool) {
    const auto it = sent_at.find(denm.management.action_id.sequence_number);
    if (it == sent_at.end()) return;
    ++received;
    result.latency_ms.add((meta.delivered_at - it->second).to_milliseconds());
  });
  for (int i = 0; i < kMessages; ++i) {
    sched.post_at(50_ms * i, [&, i] {
      its::DenmRequest request;
      request.event_type = its::EventType::of(its::Cause::CollisionRisk, 2);
      request.event_position = {0, -40};
      request.destination_area = geo::GeoArea::circle({0, -40}, 120.0);
      sent_at[static_cast<std::uint16_t>(i + 1)] = sched.now();
      (void)rsu.den().trigger(request);
    });
  }
  sched.run_until(50_ms * kMessages + 2_s);
  result.delivery = static_cast<double>(received) / kMessages;
  if (relay) result.relay_forwards = relay->router().stats().forwarded;
  return result;
}

}  // namespace

int main() {
  std::printf("DENM delivery around the blind corner (60 dB wall, 100 DENMs)\n\n");
  const RelayResult direct = run(false, 31);
  const RelayResult relayed = run(true, 32);
  std::printf("  without relay: delivery %5.1f%%\n", 100.0 * direct.delivery);
  std::printf("  with relay:    delivery %5.1f%%, latency %.2f ms mean / %.2f max, %llu forwards\n",
              100.0 * relayed.delivery,
              relayed.latency_ms.count() ? relayed.latency_ms.mean() : 0.0,
              relayed.latency_ms.count() ? relayed.latency_ms.max() : 0.0,
              static_cast<unsigned long long>(relayed.relay_forwards));

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  std::printf("\n=== Shape checks ===\n");
  check("the wall kills the direct path", direct.delivery < 0.1);
  check("the relay restores delivery", relayed.delivery > 0.95);
  // The extra latency is the contention-based-forwarding timer: with a
  // single candidate forwarder nobody beats the relay to it, so the full
  // CBF delay (~ max_delay * (1 - progress)) elapses before the rebroadcast
  // — still far inside the 100 ms budget.
  check("the relayed warning still fits the 100 ms budget",
        relayed.latency_ms.count() && relayed.latency_ms.mean() < 100.0);
  check("the relay actually forwarded the packets",
        relayed.relay_forwards >= static_cast<std::uint64_t>(90));
  return ok ? 0 : 1;
}
