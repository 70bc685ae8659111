// Property: enabling the spatial index must not change any observable
// outcome. The grid may only skip links whose
// deterministic budget is already below the power floor — links the
// full fan-out drops anyway — so delivery logs (including the exact RSSI
// and SINR bits) and medium statistics must match between the two modes
// on any topology, static or moving.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::dot11p {
namespace {

using namespace rst::sim::literals;

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

struct RxRecord {
  std::uint64_t rx_time_ns;
  std::uint64_t src_mac;
  std::uint64_t rssi_bits;
  std::uint64_t sinr_bits;
  std::size_t payload_size;

  friend bool operator==(const RxRecord&, const RxRecord&) = default;
};

struct Topology {
  struct Node {
    geo::Vec2 start;
    geo::Vec2 velocity;  // zero for static nodes
  };
  std::vector<Node> nodes;
  struct Send {
    std::size_t node;
    sim::SimTime at;
    std::size_t payload;
  };
  std::vector<Send> sends;
  double power_floor_dbm;
  double path_loss_exponent;
  double shadowing_sigma_db;
};

/// Topology draws happen outside the scenario so both runs consume
/// identical randomness. Roughly half the area spans well beyond the cull
/// radius implied by the floor, so the grid genuinely skips links.
Topology make_topology(std::uint64_t seed) {
  sim::RandomStream rng{seed, "equiv_topo"};
  Topology topo;
  topo.power_floor_dbm = rng.bernoulli(0.5) ? -80.0 : -95.0;
  topo.path_loss_exponent = rng.uniform(2.0, 3.2);
  topo.shadowing_sigma_db = rng.uniform(0.0, 4.0);
  const double extent = rng.bernoulli(0.5) ? 150.0 : 2500.0;
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, 12));
  for (std::size_t i = 0; i < n; ++i) {
    Topology::Node node;
    node.start = {rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    if (rng.bernoulli(0.4)) {
      node.velocity = {rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)};
    }
    topo.nodes.push_back(node);
    const auto frames = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t f = 0; f < frames; ++f) {
      topo.sends.push_back({i, sim::SimTime::microseconds(rng.uniform_int(0, 80000)),
                            static_cast<std::size_t>(rng.uniform_int(40, 400))});
    }
  }
  return topo;
}

struct RunResult {
  std::vector<std::vector<RxRecord>> logs;
  Medium::Stats stats;
};

RunResult run_scenario(const Topology& topo, std::uint64_t seed, bool spatial) {
  sim::Scheduler sched;
  sim::RandomStream rng{seed, "equiv_run"};

  ChannelModel channel;
  channel.path_loss =
      std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(topo.path_loss_exponent));
  channel.shadowing_sigma_db = topo.shadowing_sigma_db;
  channel.spatial_index = spatial;
  channel.power_floor_dbm = topo.power_floor_dbm;
  Medium medium{sched, rng.child("medium"), channel};

  // Moving nodes follow a fixed 10 ms kinematic tick for 100 ms; the
  // positions vector is shared with the radios' position providers.
  auto positions = std::make_shared<std::vector<geo::Vec2>>();
  for (const auto& node : topo.nodes) positions->push_back(node.start);
  for (int tick = 1; tick <= 10; ++tick) {
    sched.post_at(sim::SimTime::milliseconds(10) * tick, [&topo, positions] {
      for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
        (*positions)[i] += topo.nodes[i].velocity * 0.010;
      }
    });
  }

  RunResult result;
  result.logs.resize(topo.nodes.size());
  std::vector<std::unique_ptr<Radio>> radios;
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
    radios.push_back(std::make_unique<Radio>(
        medium, RadioConfig{}, [positions, i] { return (*positions)[i]; },
        rng.child("radio" + std::to_string(i)), "radio" + std::to_string(i)));
    radios.back()->set_receive_callback([&result, i](const Frame& f, const RxInfo& info) {
      result.logs[i].push_back(RxRecord{static_cast<std::uint64_t>(info.rx_time.count_ns()),
                                        info.src_mac, bits(info.rssi_dbm), bits(info.sinr_db),
                                        f.payload.size()});
    });
  }

  for (const auto& send : topo.sends) {
    sched.post_at(send.at, [&radios, &send] {
      Frame f;
      f.payload.assign(send.payload, 0xC5);
      f.ac = AccessCategory::Video;
      radios[send.node]->send(f);
    });
  }

  sched.run();
  result.stats = medium.stats();
  return result;
}

TEST(MediumEquivalence, SpatialIndexNeverChangesOutcomes) {
  int topologies_with_culling = 0;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    const Topology topo = make_topology(seed);
    const RunResult off = run_scenario(topo, seed, /*spatial=*/false);
    const RunResult on = run_scenario(topo, seed, /*spatial=*/true);

    ASSERT_EQ(off.logs, on.logs) << "delivery logs diverged at seed " << seed;
    EXPECT_EQ(off.stats.frames_transmitted, on.stats.frames_transmitted) << seed;
    EXPECT_EQ(off.stats.deliveries, on.stats.deliveries) << seed;
    EXPECT_EQ(off.stats.dropped_half_duplex, on.stats.dropped_half_duplex) << seed;
    EXPECT_EQ(off.stats.dropped_below_sensitivity, on.stats.dropped_below_sensitivity) << seed;
    EXPECT_EQ(off.stats.dropped_error, on.stats.dropped_error) << seed;
    // Floor culling is a property of the link budget, not of the index:
    // both modes must agree on how many links never cleared the floor.
    EXPECT_EQ(off.stats.culled_below_floor, on.stats.culled_below_floor) << seed;
    // Cache counters are deliberately excluded: the grid evaluates fewer
    // budgets, so hit/miss totals legitimately differ between modes.
    if (on.stats.culled_below_floor > 0) ++topologies_with_culling;
  }
  // The property is vacuous if no topology ever culled a link.
  EXPECT_GT(topologies_with_culling, 50);
}

class MediumDetach : public ::testing::TestWithParam<bool> {};

TEST_P(MediumDetach, MidFlightDetachSettlesCarrierSenseAndKeepsDelivering) {
  // A transmits; while the frame is in the air, B detaches. B's
  // carrier-sense busy count must settle to idle (no leaked +1), the
  // finish event must not touch B, and C must still receive.
  sim::Scheduler sched;
  sim::RandomStream rng{42, "detach_test"};
  ChannelModel channel;
  channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.0));
  channel.shadowing_sigma_db = 0.0;
  channel.spatial_index = GetParam();
  Medium medium{sched, rng.child("medium"), channel};

  auto make = [&](const char* name, geo::Vec2 pos) {
    return std::make_unique<Radio>(
        medium, RadioConfig{}, [pos] { return pos; }, rng.child(name), name);
  };
  auto a = make("a", {0, 0});
  auto b = make("b", {10, 0});
  auto c = make("c", {0, 10});
  int c_rx = 0;
  c->set_receive_callback([&](const Frame&, const RxInfo&) { ++c_rx; });

  sched.post_at(1_ms, [&] {
    Frame f;
    f.payload.assign(200, 0x11);
    f.ac = AccessCategory::Video;
    a->send(f);
  });
  // Mid-airtime (a 200-byte QPSK frame flies for ~300 us): destroy B.
  sched.post_at(1_ms + 50_us, [&] {
    EXPECT_GT(b->cumulative_busy_time(), sim::SimTime::zero());
    b.reset();
  });
  sched.run();

  EXPECT_EQ(c_rx, 1);
  EXPECT_EQ(medium.stats().frames_transmitted, 1u);
  EXPECT_EQ(medium.stats().deliveries, 1u);  // only C: B vanished mid-flight
}

TEST_P(MediumDetach, TransmitterDetachMidFlightStillPropagates) {
  // The sender's radio is destroyed while its own frame is in the air: the
  // frame still arrives (the energy left the antenna) and the finish event
  // must not call back into the dead transmitter.
  sim::Scheduler sched;
  sim::RandomStream rng{43, "detach_tx_test"};
  ChannelModel channel;
  channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.0));
  channel.shadowing_sigma_db = 0.0;
  channel.spatial_index = GetParam();
  Medium medium{sched, rng.child("medium"), channel};

  auto make = [&](const char* name, geo::Vec2 pos) {
    return std::make_unique<Radio>(
        medium, RadioConfig{}, [pos] { return pos; }, rng.child(name), name);
  };
  auto a = make("a", {0, 0});
  auto b = make("b", {10, 0});
  int b_rx = 0;
  b->set_receive_callback([&](const Frame&, const RxInfo&) { ++b_rx; });

  sched.post_at(1_ms, [&] {
    Frame f;
    f.payload.assign(200, 0x22);
    f.ac = AccessCategory::Video;
    a->send(f);
  });
  sched.post_at(1_ms + 50_us, [&] { a.reset(); });
  sched.run();

  EXPECT_EQ(b_rx, 1);
  EXPECT_EQ(medium.stats().deliveries, 1u);
}

// The parameter toggles the spatial grid: full fan-out (false) and culled.
INSTANTIATE_TEST_SUITE_P(FanOutAndGrid, MediumDetach, ::testing::Bool());

}  // namespace
}  // namespace rst::dot11p
