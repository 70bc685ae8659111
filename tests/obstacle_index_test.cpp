// PR 8 acceptance suite: the geo::ObstacleGrid ray index is a pure
// accelerator. Three layers of proof:
//
//  1. The exact segments_intersect contract is pinned (collinear overlap,
//     shared endpoints, T-touches, zero-length degenerate segments) before
//     anything relies on it.
//  2. Property equivalence: indexed and brute-force ObstacleShadowingModel
//     answers — is_nlos, walls_crossed and bitwise loss_db — match on ~200
//     random wall soups and a battery of adversarial rays (collinear with a
//     wall, endpoint-touching, axis-aligned along a cell boundary,
//     zero-length), across cell sizes including the derived default.
//  3. End-to-end: the four PR 6 city experiment fingerprints and a full
//     city run are bit-identical with the index on and off,
//     and the index engagement counter proves the fast path actually ran.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"
#include "rst/dot11p/channel.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/geo/obstacle_grid.hpp"
#include "rst/scenario/city.hpp"

namespace rst {
namespace {

using dot11p::ObstacleShadowingModel;
using dot11p::Wall;
using geo::Vec2;

// --- 1. segments_intersect contract ----------------------------------------

TEST(ObstacleIndex, SegmentsIntersectProperCrossing) {
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 10}, {0, 10}, {10, 0}));
  EXPECT_FALSE(geo::segments_intersect({0, 0}, {10, 10}, {20, 0}, {30, 10}));
}

TEST(ObstacleIndex, SegmentsIntersectSharedEndpointCounts) {
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {10, 0}, {20, 5}));
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {0, 0}, {-5, -5}));
}

TEST(ObstacleIndex, SegmentsIntersectTTouchCounts) {
  // Endpoint of cd lies in the interior of ab.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {5, 0}, {5, 7}));
  // Endpoint of ab lies in the interior of cd.
  EXPECT_TRUE(geo::segments_intersect({5, 0}, {5, 7}, {0, 7}, {10, 7}));
}

TEST(ObstacleIndex, SegmentsIntersectCollinearOverlapCounts) {
  // Proper overlap.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {5, 0}, {15, 0}));
  // Containment.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {2, 0}, {8, 0}));
  // Single shared point, collinear.
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {10, 0}, {20, 0}));
  // Collinear but disjoint.
  EXPECT_FALSE(geo::segments_intersect({0, 0}, {10, 0}, {11, 0}, {20, 0}));
  // Parallel, not collinear.
  EXPECT_FALSE(geo::segments_intersect({0, 0}, {10, 0}, {0, 1}, {10, 1}));
}

TEST(ObstacleIndex, SegmentsIntersectZeroLengthDegeneratesToPoint) {
  // Point on the segment interior / endpoint.
  EXPECT_TRUE(geo::segments_intersect({5, 0}, {5, 0}, {0, 0}, {10, 0}));
  EXPECT_TRUE(geo::segments_intersect({0, 0}, {10, 0}, {10, 0}, {10, 0}));
  // Point off the segment.
  EXPECT_FALSE(geo::segments_intersect({5, 1}, {5, 1}, {0, 0}, {10, 0}));
  // Two coincident points / two distinct points.
  EXPECT_TRUE(geo::segments_intersect({3, 3}, {3, 3}, {3, 3}, {3, 3}));
  EXPECT_FALSE(geo::segments_intersect({3, 3}, {3, 3}, {4, 4}, {4, 4}));
}

// --- 2. indexed vs brute-force property equivalence ------------------------

std::unique_ptr<ObstacleShadowingModel> make_model(const std::vector<Wall>& walls, bool use_index,
                                                   double cell_m = 0.0) {
  auto base = std::make_unique<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.5));
  return std::make_unique<ObstacleShadowingModel>(std::move(base), walls, use_index, cell_m);
}

/// One wall soup: `n` random segments in a [-extent, extent] square, with a
/// sprinkle of axis-aligned and cell-boundary-aligned walls.
std::vector<Wall> random_soup(std::mt19937_64& rng, int n, double extent, double cell_m) {
  std::uniform_real_distribution<double> pos{-extent, extent};
  std::uniform_real_distribution<double> len{0.0, extent / 2};
  std::uniform_real_distribution<double> loss{1.0, 40.0};
  std::vector<Wall> walls;
  walls.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Wall w;
    w.a = {pos(rng), pos(rng)};
    switch (i % 4) {
      case 0:  // free segment
        w.b = {pos(rng), pos(rng)};
        break;
      case 1:  // horizontal
        w.b = {w.a.x + len(rng), w.a.y};
        break;
      case 2:  // vertical
        w.b = {w.a.x, w.a.y + len(rng)};
        break;
      default:  // sitting exactly on a grid-cell boundary line
        w.a.y = std::floor(w.a.y / cell_m) * cell_m;
        w.b = {w.a.x + len(rng), w.a.y};
        break;
    }
    w.obstruction_loss_db = loss(rng);
    walls.push_back(w);
  }
  return walls;
}

/// Rays that historically break grid walkers: collinear with walls,
/// touching endpoints, axis-aligned on cell boundaries, zero-length.
std::vector<std::pair<Vec2, Vec2>> adversarial_rays(const std::vector<Wall>& walls,
                                                    std::mt19937_64& rng, double extent,
                                                    double cell_m) {
  std::uniform_real_distribution<double> pos{-extent, extent};
  std::uniform_int_distribution<std::size_t> pick{0, walls.size() - 1};
  std::vector<std::pair<Vec2, Vec2>> rays;
  for (int i = 0; i < 8; ++i) rays.emplace_back(Vec2{pos(rng), pos(rng)}, Vec2{pos(rng), pos(rng)});
  const Wall& w = walls[pick(rng)];
  // Collinear with a wall (extends beyond both ends).
  const Vec2 d{w.b.x - w.a.x, w.b.y - w.a.y};
  rays.emplace_back(Vec2{w.a.x - d.x, w.a.y - d.y}, Vec2{w.b.x + d.x, w.b.y + d.y});
  // Exactly the wall.
  rays.emplace_back(w.a, w.b);
  // Endpoint-touching: ray ends exactly on a wall endpoint.
  rays.emplace_back(Vec2{pos(rng), pos(rng)}, w.a);
  rays.emplace_back(w.b, Vec2{pos(rng), pos(rng)});
  // Axis-aligned along a cell boundary.
  const double boundary = std::floor(pos(rng) / cell_m) * cell_m;
  rays.emplace_back(Vec2{-extent, boundary}, Vec2{extent, boundary});
  rays.emplace_back(Vec2{boundary, -extent}, Vec2{boundary, extent});
  // Zero-length rays, one of them on a wall endpoint.
  rays.emplace_back(Vec2{pos(rng), pos(rng)}, rays.back().first);
  const Vec2 p{pos(rng), pos(rng)};
  rays.emplace_back(p, p);
  rays.emplace_back(w.a, w.a);
  return rays;
}

TEST(ObstacleIndex, IndexedMatchesBruteForceOnRandomSoups) {
  std::mt19937_64 rng{0xc0ffee};
  const double cell_sizes[] = {0.0, 7.0, 25.0, 250.0};  // 0 = derived
  int soups = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const int n = 1 + static_cast<int>(rng() % 64);
    const double extent = 50.0 + static_cast<double>(rng() % 400);
    const double cell_m = cell_sizes[rep % 4];
    const double boundary_cell = cell_m > 0.0 ? cell_m : 64.0;
    const std::vector<Wall> walls = random_soup(rng, n, extent, boundary_cell);
    const auto brute = make_model(walls, false);
    const auto indexed = make_model(walls, true, cell_m);
    ASSERT_FALSE(brute->index_enabled());
    ASSERT_TRUE(indexed->index_enabled());
    ++soups;
    for (const auto& [a, b] : adversarial_rays(walls, rng, extent, boundary_cell)) {
      const std::size_t brute_crossed = brute->walls_crossed(a, b);
      const std::size_t index_crossed = indexed->walls_crossed(a, b);
      ASSERT_EQ(brute_crossed, index_crossed)
          << "soup " << rep << " cell " << cell_m << " ray (" << a.x << "," << a.y << ")->("
          << b.x << "," << b.y << ")";
      ASSERT_EQ(brute->is_nlos(a, b), indexed->is_nlos(a, b));
      const double brute_loss = brute->loss_db(a, b);
      const double index_loss = indexed->loss_db(a, b);
      // Bitwise: the indexed walk must reproduce the exact accumulation.
      ASSERT_EQ(brute_loss, index_loss)
          << "soup " << rep << " cell " << cell_m << " crossed " << brute_crossed;
    }
  }
  ASSERT_EQ(soups, 200);
}

TEST(ObstacleIndex, GridCandidatesSupersetCrossings) {
  // The grid may over-report candidates but never miss a crossing, and
  // candidates arrive deduplicated in ascending id order.
  std::mt19937_64 rng{42};
  const std::vector<Wall> walls = random_soup(rng, 48, 200.0, 16.0);
  std::vector<geo::Segment> segments;
  for (const Wall& w : walls) segments.push_back({w.a, w.b});
  const geo::ObstacleGrid grid{segments, 16.0};
  std::uniform_real_distribution<double> pos{-220.0, 220.0};
  for (int rep = 0; rep < 500; ++rep) {
    const Vec2 a{pos(rng), pos(rng)};
    const Vec2 b{pos(rng), pos(rng)};
    std::vector<std::uint32_t> candidates;
    grid.for_each_candidate(a, b, [&](std::uint32_t id) { candidates.push_back(id); });
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      ASSERT_LT(candidates[i - 1], candidates[i]) << "not ascending/deduplicated";
    }
    std::size_t brute_crossings = 0;
    for (std::uint32_t id = 0; id < segments.size(); ++id) {
      if (!geo::segments_intersect(a, b, segments[id].a, segments[id].b)) continue;
      ++brute_crossings;
      ASSERT_TRUE(std::find(candidates.begin(), candidates.end(), id) != candidates.end())
          << "crossing wall " << id << " missing from candidate set";
    }
    ASSERT_EQ(grid.crossings(a, b), brute_crossings);
  }
}

TEST(ObstacleIndex, DerivedCellSizeAndCounters) {
  std::vector<Wall> walls;
  walls.push_back({{0, 0}, {30, 0}, 20.0});
  walls.push_back({{0, 10}, {0, 40}, 20.0});
  const auto indexed = make_model(walls, true);
  ASSERT_TRUE(indexed->index_enabled());
  ASSERT_NE(indexed->index(), nullptr);
  EXPECT_DOUBLE_EQ(indexed->index()->cell_size_m(), 30.0);  // mean dominant extent
  EXPECT_EQ(indexed->index()->segment_count(), 2u);
  EXPECT_EQ(indexed->index_queries(), 0u);
  (void)indexed->walls_crossed({-5, 5}, {50, 5});
  (void)indexed->loss_db({-5, 5}, {50, 5});
  EXPECT_EQ(indexed->index_queries(), 2u);

  const auto brute = make_model(walls, false);
  (void)brute->walls_crossed({-5, 5}, {50, 5});
  EXPECT_EQ(brute->index_queries(), 0u);
  EXPECT_EQ(brute->index(), nullptr);

  // No walls: nothing to index, brute scan of nothing.
  const auto empty = make_model({}, true);
  EXPECT_FALSE(empty->index_enabled());
  EXPECT_EQ(empty->walls_crossed({0, 0}, {1, 1}), 0u);
}

// --- 3. end-to-end bit-identity --------------------------------------------

scenario::CitySpec small_city(bool obstacle_index) {
  scenario::CitySpec spec;
  spec.seed = 11;
  spec.blocks_x = 3;
  spec.blocks_y = 3;
  spec.block_m = 100.0;
  spec.vehicles = 8;
  spec.rsu_every = 3;
  spec.obstacle_index = obstacle_index;
  return spec;
}

TEST(ObstacleIndex, CoverageFingerprintIdenticalIndexOnOff) {
  scenario::CityScenario on{small_city(true)};
  scenario::CityScenario off{small_city(false)};
  ASSERT_NE(on.obstacles(), nullptr);
  ASSERT_TRUE(on.obstacles()->index_enabled());
  ASSERT_FALSE(off.obstacles()->index_enabled());
  const auto map_on = scenario::measure_coverage(on, 0, 15.0);
  const auto map_off = scenario::measure_coverage(off, 0, 15.0);
  EXPECT_EQ(map_on.fingerprint(), map_off.fingerprint());
  EXPECT_GT(on.obstacles()->index_queries(), 0u);
  EXPECT_EQ(off.obstacles()->index_queries(), 0u);
}

TEST(ObstacleIndex, HandoverFingerprintIdenticalIndexOnOff) {
  const auto on = scenario::run_handover_experiment(small_city(true), sim::SimTime::seconds(5));
  const auto off = scenario::run_handover_experiment(small_city(false), sim::SimTime::seconds(5));
  EXPECT_EQ(on.fingerprint(), off.fingerprint());
}

TEST(ObstacleIndex, CbrSweepFingerprintIdenticalIndexOnOff) {
  const std::vector<int> densities{4, 8};
  const auto on = scenario::run_cbr_sweep(small_city(true), densities, sim::SimTime::seconds(2));
  const auto off = scenario::run_cbr_sweep(small_city(false), densities, sim::SimTime::seconds(2));
  EXPECT_EQ(scenario::cbr_sweep_fingerprint(on), scenario::cbr_sweep_fingerprint(off));
}

TEST(ObstacleIndex, DeliveryFingerprintIdenticalIndexOnOff) {
  const auto on = scenario::run_delivery_experiment(small_city(true), sim::SimTime::seconds(5));
  const auto off = scenario::run_delivery_experiment(small_city(false), sim::SimTime::seconds(5));
  EXPECT_EQ(on.fingerprint(), off.fingerprint());
}

TEST(ObstacleIndex, EmergencyBrakeTablesIdenticalIndexOnOff) {
  core::TestbedConfig cfg;
  // A wall between the camera and the OBU so the obstacle model is load-
  // bearing for the tables, not just constructed.
  cfg.walls.push_back({{20.0, -5.0}, {20.0, 5.0}, 8.0});
  cfg.obstacle_index = true;
  const auto on = core::run_emergency_brake_experiment(cfg, 3, 1);
  cfg.obstacle_index = false;
  const auto off = core::run_emergency_brake_experiment(cfg, 3, 1);
  EXPECT_EQ(core::format_table2(on), core::format_table2(off));
  EXPECT_EQ(core::format_table3(on), core::format_table3(off));
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Medium counters + scheduler state folded into one hash.
std::uint64_t run_city_fingerprint(const scenario::CitySpec& spec, std::uint64_t* index_queries) {
  scenario::CityScenario city{spec};
  city.start();
  city.scheduler().run_until(sim::SimTime::seconds(3));
  const auto& st = city.medium().stats();
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, st.frames_transmitted);
  h = fnv1a(h, st.deliveries);
  h = fnv1a(h, st.dropped_half_duplex);
  h = fnv1a(h, st.dropped_below_sensitivity);
  h = fnv1a(h, st.dropped_error);
  h = fnv1a(h, st.culled_below_floor);
  h = fnv1a(h, city.scheduler().executed_events());
  if (index_queries != nullptr && city.obstacles() != nullptr) {
    *index_queries = city.obstacles()->index_queries();
  }
  return h;
}

TEST(ObstacleIndex, CityRunIdenticalToBruteForceAndEngaged) {
  // A full city run through the ray index must stay bit-identical to the
  // brute-force wall scan, and must really have queried the index.
  scenario::CitySpec spec = small_city(true);
  spec.vehicles = 12;
  std::uint64_t queries = 0;
  const std::uint64_t indexed = run_city_fingerprint(spec, &queries);
  EXPECT_GT(queries, 0u);
  spec.obstacle_index = false;
  const std::uint64_t brute = run_city_fingerprint(spec, nullptr);
  EXPECT_EQ(indexed, brute);
}

TEST(ObstacleIndex, BudgetCacheServesStaticPairsAndInvalidatesOnMotion) {
  sim::Scheduler sched;
  sim::RandomStream rng{7, "budget_cache"};
  dot11p::ChannelModel channel;  // sigma 0: a delivered RSSI is the bare budget
  std::vector<Wall> walls{{{50.0, -20.0}, {50.0, 20.0}, 15.0}};
  channel.path_loss = std::make_shared<ObstacleShadowingModel>(
      std::make_unique<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.2)), walls);
  dot11p::Medium medium{sched, rng.child("medium"), channel};

  geo::Vec2 mover{100.0, 50.0};
  std::vector<std::unique_ptr<dot11p::Radio>> radios;
  radios.push_back(std::make_unique<dot11p::Radio>(
      medium, dot11p::RadioConfig{}, [] { return geo::Vec2{0.0, 0.0}; }, rng.child("r0"), "r0"));
  radios.push_back(std::make_unique<dot11p::Radio>(
      medium, dot11p::RadioConfig{}, [] { return geo::Vec2{200.0, 0.0}; }, rng.child("r1"), "r1"));
  radios.push_back(std::make_unique<dot11p::Radio>(
      medium, dot11p::RadioConfig{}, [&mover] { return mover; }, rng.child("r2"), "r2"));
  // Last RSSI r0 heard from each sender MAC.
  std::map<std::uint64_t, double> r0_rssi;
  radios[0]->set_receive_callback([&r0_rssi](const dot11p::Frame&, const dot11p::RxInfo& info) {
    r0_rssi[info.src_mac] = info.rssi_dbm;
  });

  const auto beacon_round = [&] {
    for (std::size_t i = 0; i < radios.size(); ++i) {
      sched.post_in(sim::SimTime::microseconds(static_cast<std::int64_t>(1 + i * 700)),
                    [&medium, &radios, i] {
                      dot11p::Frame f;
                      f.ac = dot11p::AccessCategory::BestEffort;
                      f.src_mac = radios[i]->mac_address();
                      medium.begin_transmission(radios[i].get(), std::move(f), 300);
                    });
    }
    sched.run();
  };

  beacon_round();  // 3 tx x 2 rx: six distinct pairs, all cold
  EXPECT_EQ(medium.stats().budget_cache_misses, 6u);
  EXPECT_EQ(medium.stats().budget_cache_hits, 0u);

  beacon_round();  // nobody moved: every budget (wall walk included) is cached
  EXPECT_EQ(medium.stats().budget_cache_misses, 6u);
  EXPECT_EQ(medium.stats().budget_cache_hits, 6u);

  const double before_move = r0_rssi.at(radios[2]->mac_address());
  mover = {120.0, 50.0};  // motion bumps the slot epoch on next refresh
  beacon_round();  // the four mover pairs recompute, the static pair hits
  EXPECT_EQ(medium.stats().budget_cache_misses, 10u);
  EXPECT_EQ(medium.stats().budget_cache_hits, 8u);

  // The recomputed budgets are the new geometry's, not a stale entry.
  const double after_move = r0_rssi.at(radios[2]->mac_address());
  EXPECT_NE(after_move, before_move);
  EXPECT_EQ(after_move, medium.mean_rx_power_dbm(*radios[2], *radios[0]));
  EXPECT_EQ(r0_rssi.at(radios[1]->mac_address()),
            medium.mean_rx_power_dbm(*radios[1], *radios[0]));
}

TEST(ObstacleIndex, CitySpecRoundTripsObstacleIndexKnob) {
  scenario::CitySpec spec = small_city(false);
  const std::string text = scenario::format_city_spec(spec);
  EXPECT_NE(text.find("obstacle_index = false"), std::string::npos);
  const scenario::CitySpec parsed = scenario::parse_city_spec(text);
  EXPECT_FALSE(parsed.obstacle_index);
  EXPECT_TRUE(scenario::parse_city_spec("obstacle_index = true\n").obstacle_index);
}

}  // namespace
}  // namespace rst
