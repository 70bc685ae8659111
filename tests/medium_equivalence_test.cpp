// Property: culling receivers by recorded distance must not change any
// observable outcome. The medium may only skip links whose deterministic
// budget is already below the power floor — links the full fan-out drops
// anyway — so delivery logs (including the exact RSSI and SINR bits) and
// medium statistics must match the same model without a range bound, on
// any topology, static or moving, also while recorded positions lag the
// radios between position sweeps. The same holds for a path-loss model
// that gives up on links past the floor (loss_db_capped) against the same
// model evaluated in full.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "rst/dot11p/channel.hpp"
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
  int motion_ticks;  // 10 ms kinematic ticks the movers take
  double power_floor_dbm;
  double path_loss_exponent;
  double shadowing_sigma_db;
};

/// How long a topology runs. `Short` sends every frame within the first
/// reindex period. `Long` spreads the frames and the motion over ten, with
/// movers just under the medium's speed bound, so recorded positions go
/// stale between sweeps and radios drift across cull radii.
enum class Horizon { Short, Long };

/// Topology draws happen outside the scenario so both runs consume
/// identical randomness. Roughly half the area spans well beyond the cull
/// radius implied by the floor, so the medium genuinely skips links.
Topology make_topology(std::uint64_t seed, Horizon horizon = Horizon::Short) {
  const bool long_run = horizon == Horizon::Long;
  // Per axis, so a diagonal mover stays within the bound.
  const double axis_speed =
      long_run ? 0.99 * ChannelModel{}.max_station_speed_mps / std::sqrt(2.0) : 30.0;
  const std::int64_t last_send_us = long_run ? 980000 : 80000;
  sim::RandomStream rng{seed, "equiv_topo"};
  Topology topo;
  topo.motion_ticks = long_run ? 100 : 10;
  topo.power_floor_dbm = rng.bernoulli(0.5) ? -80.0 : -95.0;
  topo.path_loss_exponent = rng.uniform(2.0, 3.2);
  topo.shadowing_sigma_db = rng.uniform(0.0, 4.0);
  const double extent = rng.bernoulli(0.5) ? 150.0 : 2500.0;
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, 12));
  for (std::size_t i = 0; i < n; ++i) {
    Topology::Node node;
    node.start = {rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    if (rng.bernoulli(0.4)) {
      node.velocity = {rng.uniform(-axis_speed, axis_speed), rng.uniform(-axis_speed, axis_speed)};
    }
    topo.nodes.push_back(node);
    const auto frames = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t f = 0; f < frames; ++f) {
      topo.sends.push_back({i, sim::SimTime::microseconds(rng.uniform_int(0, last_send_us)),
                            static_cast<std::size_t>(rng.uniform_int(40, 400))});
    }
  }
  return topo;
}

struct RunResult {
  std::vector<std::vector<RxRecord>> logs;
  Medium::Stats stats;
};

std::shared_ptr<const PathLossModel> log_distance(const Topology& topo) {
  return std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(topo.path_loss_exponent));
}

/// Forwards `loss_db` and `loss_db_capped` but claims no range bound: its
/// `min_loss_db` never reaches a budget, so the medium's cull radius is
/// infinite and every attached radio is evaluated. The unculled fan-out
/// reference for the same model.
class Unbounded final : public PathLossModel {
 public:
  explicit Unbounded(std::shared_ptr<const PathLossModel> inner) : inner_{std::move(inner)} {}
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override {
    return inner_->loss_db(tx, rx);
  }
  [[nodiscard]] double loss_db_capped(geo::Vec2 tx, geo::Vec2 rx, double cap_db,
                                      CullHint* hint) const override {
    return inner_->loss_db_capped(tx, rx, cap_db, hint);
  }
  [[nodiscard]] double min_loss_db(double) const override {
    return -std::numeric_limits<double>::infinity();
  }

 private:
  std::shared_ptr<const PathLossModel> inner_;
};

/// `model` as is when `bounded` (culled by recorded distance), else behind
/// `Unbounded` (full fan-out).
std::shared_ptr<const PathLossModel> lane(std::shared_ptr<const PathLossModel> model,
                                          bool bounded) {
  if (bounded) return model;
  return std::make_shared<Unbounded>(std::move(model));
}

RunResult run_scenario(const Topology& topo, std::uint64_t seed,
                       std::shared_ptr<const PathLossModel> path_loss) {
  sim::Scheduler sched;
  sim::RandomStream rng{seed, "equiv_run"};

  ChannelModel channel;
  channel.path_loss = std::move(path_loss);
  channel.shadowing_sigma_db = topo.shadowing_sigma_db;
  channel.power_floor_dbm = topo.power_floor_dbm;
  Medium medium{sched, rng.child("medium"), channel};

  // Moving nodes follow a fixed 10 ms kinematic tick; the positions
  // vector is shared with the radios' position providers.
  auto positions = std::make_shared<std::vector<geo::Vec2>>();
  for (const auto& node : topo.nodes) positions->push_back(node.start);
  for (int tick = 1; tick <= topo.motion_ticks; ++tick) {
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

/// Every outcome field of two runs' medium statistics, and their delivery
/// logs, are equal; the budget-cache counters are left to the caller.
void expect_same_outcomes(const RunResult& a, const RunResult& b, std::uint64_t seed) {
  ASSERT_EQ(a.logs, b.logs) << "delivery logs diverged at seed " << seed;
  EXPECT_EQ(a.stats.frames_transmitted, b.stats.frames_transmitted) << seed;
  EXPECT_EQ(a.stats.deliveries, b.stats.deliveries) << seed;
  EXPECT_EQ(a.stats.dropped_half_duplex, b.stats.dropped_half_duplex) << seed;
  EXPECT_EQ(a.stats.dropped_below_sensitivity, b.stats.dropped_below_sensitivity) << seed;
  EXPECT_EQ(a.stats.dropped_error, b.stats.dropped_error) << seed;
  // Floor culling is a property of the link budget, not of how the medium
  // found the link: both lanes must agree on how many never cleared it.
  EXPECT_EQ(a.stats.culled_below_floor, b.stats.culled_below_floor) << seed;
}

/// Whether some link's deterministic budget clears the power floor at one
/// of its sender's frames and misses it at another: a receiver that
/// drifted across the sender's cull radius during the run.
bool link_crosses_floor(const Topology& topo) {
  const LogDistanceModel model = LogDistanceModel::its_g5(topo.path_loss_exponent);
  const RadioConfig cfg;
  const double budget_db = cfg.tx_power_dbm + 2 * cfg.antenna_gain_dbi - topo.power_floor_dbm;
  const auto pos = [&topo](std::size_t node, sim::SimTime at) {
    const std::int64_t ticks = std::min<std::int64_t>(
        at.count_ns() / sim::SimTime::milliseconds(10).count_ns(), topo.motion_ticks);
    const Topology::Node& n = topo.nodes[node];
    return n.start + n.velocity * (0.010 * static_cast<double>(ticks));
  };
  for (std::size_t rx = 0; rx < topo.nodes.size(); ++rx) {
    for (std::size_t tx = 0; tx < topo.nodes.size(); ++tx) {
      if (tx == rx) continue;
      bool heard = false;
      bool missed = false;
      for (const auto& send : topo.sends) {
        if (send.node != tx) continue;
        const bool clears = model.loss_db(pos(tx, send.at), pos(rx, send.at)) < budget_db;
        (clears ? heard : missed) = true;
      }
      if (heard && missed) return true;
    }
  }
  return false;
}

TEST(MediumEquivalence, SpatialIndexNeverChangesOutcomes) {
  // The medium's spatial index is each radio's recorded position, re-read
  // once per 100 ms sweep. Over ten sweeps, with movers just under the
  // speed bound, a receiver's recorded position trails it by up to the
  // staleness pad, and links come into and fall out of range. Culling on
  // those recorded positions must still agree with the unculled fan-out.
  int topologies_with_culling = 0;
  int topologies_crossing = 0;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    const Topology topo = make_topology(seed, Horizon::Long);
    const RunResult fan_out = run_scenario(topo, seed, lane(log_distance(topo), /*bounded=*/false));
    const RunResult culled = run_scenario(topo, seed, lane(log_distance(topo), /*bounded=*/true));

    ASSERT_NO_FATAL_FAILURE(expect_same_outcomes(fan_out, culled, seed));
    if (culled.stats.culled_below_floor > 0) ++topologies_with_culling;
    if (link_crosses_floor(topo)) ++topologies_crossing;
  }
  // The property is vacuous if no topology ever culled a link, or if no
  // receiver ever moved across a sender's range.
  EXPECT_GT(topologies_with_culling, 50);
  EXPECT_GT(topologies_crossing, 10);
}

TEST(MediumEquivalence, DistanceDropMatchesTheFanOut) {
  // The reference lane runs the same model behind `Unbounded`, so it
  // evaluates every radio; the culled lane drops each radio recorded
  // beyond the padded cull radius without looking up its budget.
  int topologies_with_culling = 0;
  int topologies_dropping = 0;
  const auto lookups = [](const Medium::Stats& st) {
    return st.budget_cache_hits + st.budget_cache_misses;
  };
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    const Topology topo = make_topology(seed);
    const RunResult fan_out = run_scenario(topo, seed, lane(log_distance(topo), /*bounded=*/false));
    const RunResult culled = run_scenario(topo, seed, lane(log_distance(topo), /*bounded=*/true));

    ASSERT_NO_FATAL_FAILURE(expect_same_outcomes(fan_out, culled, seed));
    ASSERT_LE(lookups(culled.stats), lookups(fan_out.stats)) << seed;
    if (culled.stats.culled_below_floor > 0) ++topologies_with_culling;
    if (lookups(culled.stats) < lookups(fan_out.stats)) ++topologies_dropping;
  }
  // The property is vacuous if no topology ever culled a link, or if the
  // distance test never spared a budget lookup.
  EXPECT_GT(topologies_with_culling, 50);
  EXPECT_GT(topologies_dropping, 50);
}

/// Forwards `loss_db` and `min_loss_db` and keeps the default
/// `loss_db_capped`, so every link is evaluated in full.
class Uncapped final : public PathLossModel {
 public:
  explicit Uncapped(std::shared_ptr<const PathLossModel> inner) : inner_{std::move(inner)} {}
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override {
    return inner_->loss_db(tx, rx);
  }
  [[nodiscard]] double min_loss_db(double distance_m) const override {
    return inner_->min_loss_db(distance_m);
  }

 private:
  std::shared_ptr<const PathLossModel> inner_;
};

/// Walls scattered over the topology's area, drawn from their own stream.
std::shared_ptr<const ObstacleShadowingModel> make_walls(const Topology& topo, std::uint64_t seed) {
  sim::RandomStream rng{seed, "equiv_walls"};
  double extent = 0.0;
  for (const auto& node : topo.nodes) {
    extent = std::max({extent, std::abs(node.start.x), std::abs(node.start.y)});
  }
  std::vector<Wall> walls;
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 24));
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 a{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    const geo::Vec2 b{a.x + rng.uniform(-extent, extent) / 2, a.y + rng.uniform(-extent, extent) / 2};
    walls.push_back({a, b, rng.uniform(0.0, 30.0)});
  }
  return std::make_shared<ObstacleShadowingModel>(
      std::make_unique<LogDistanceModel>(LogDistanceModel::its_g5(topo.path_loss_exponent)),
      std::move(walls));
}

TEST(MediumEquivalence, CappedWallLossNeverChangesOutcomes) {
  int topologies_capped = 0;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    const Topology topo = make_topology(seed);
    // Half the seeds run both lanes without a range bound, so the medium
    // evaluates every radio and the cap alone skips wall walks.
    const bool bounded = seed % 2 == 0;
    const auto capped = make_walls(topo, seed);
    const auto full = make_walls(topo, seed);
    const RunResult a = run_scenario(topo, seed, lane(capped, bounded));
    const RunResult b = run_scenario(topo, seed, lane(std::make_shared<Uncapped>(full), bounded));

    ASSERT_NO_FATAL_FAILURE(expect_same_outcomes(a, b, seed));
    EXPECT_EQ(a.stats.budget_cache_hits, b.stats.budget_cache_hits) << seed;
    EXPECT_EQ(a.stats.budget_cache_misses, b.stats.budget_cache_misses) << seed;
    // Fewer ray walks means the cap really skipped links.
    ASSERT_LE(capped->index_queries(), full->index_queries()) << seed;
    if (capped->index_queries() < full->index_queries()) ++topologies_capped;
  }
  EXPECT_GT(topologies_capped, 50);
}

class MediumDetach : public ::testing::TestWithParam<bool> {};

TEST_P(MediumDetach, MidFlightDetachSettlesCarrierSenseAndKeepsDelivering) {
  // A transmits; while the frame is in the air, B detaches. B's
  // carrier-sense busy count must settle to idle (no leaked +1), the
  // finish event must not touch B, and C must still receive.
  sim::Scheduler sched;
  sim::RandomStream rng{42, "detach_test"};
  ChannelModel channel;
  channel.path_loss =
      lane(std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.0)), GetParam());
  channel.shadowing_sigma_db = 0.0;
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
  channel.path_loss =
      lane(std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.0)), GetParam());
  channel.shadowing_sigma_db = 0.0;
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

// The parameter is `bounded`: the full fan-out (false) and the lane culled
// by recorded distance (true). The suite keeps the name it had when a
// spatial grid did the culling, so the test ids stay stable.
INSTANTIATE_TEST_SUITE_P(FanOutAndGrid, MediumDetach, ::testing::Bool());

}  // namespace
}  // namespace rst::dot11p
