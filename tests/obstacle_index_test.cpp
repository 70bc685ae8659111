// PR 8 acceptance suite: the geo::ObstacleGrid ray index is a pure
// accelerator. Three layers of proof:
//
//  1. The exact segments_intersect contract is pinned (collinear overlap,
//     shared endpoints, T-touches, zero-length degenerate segments) before
//     anything relies on it.
//  2. Property equivalence: indexed and brute-force ObstacleShadowingModel
//     answers — walls_crossed and bitwise loss_db — match on ~200
//     random wall soups and a battery of adversarial rays (collinear with a
//     wall, endpoint-touching, axis-aligned along a cell boundary,
//     zero-length), across cell sizes including the derived default; and
//     loss_db_capped returns either loss_db's bits or +inf, the latter only
//     for a loss past the cap plus kCapMarginDb.
//  3. End-to-end: the four PR 6 city experiment fingerprints and a full
//     city run are bit-identical with the index on and off,
//     and the index engagement counter proves the fast path actually ran.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
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

/// Caps around `loss`: far below, just below, at the margin, exactly at,
/// just above and far above it, and no cap at all; then one just above the
/// base loss and one every 20 dB up to `loss`, which stop a walk part way.
std::vector<double> caps_around(double loss, double base) {
  const double m = dot11p::PathLossModel::kCapMarginDb;
  std::vector<double> caps{loss - 60.0, loss - 15.0,  loss - 1.0, loss - 2.0 * m,
                           loss - m,    loss - m / 2, loss,       std::nextafter(loss, 1e300),
                           loss + m,    loss + 40.0,  std::numeric_limits<double>::infinity()};
  caps.push_back(base + 0.5);
  for (double c = base + 20.0; c < loss; c += 20.0) caps.push_back(c);
  return caps;
}

TEST(ObstacleIndex, IndexedMatchesBruteForceOnRandomSoups) {
  std::mt19937_64 rng{0xc0ffee};
  const double cell_sizes[] = {0.0, 7.0, 25.0, 250.0};  // 0 = derived
  const dot11p::LogDistanceModel base_model = dot11p::LogDistanceModel::its_g5(2.5);
  std::size_t given_up = 0;
  std::size_t exact = 0;
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
      const double brute_loss = brute->loss_db(a, b);
      const double index_loss = indexed->loss_db(a, b);
      // Bitwise: the indexed walk must reproduce the exact accumulation.
      ASSERT_EQ(brute_loss, index_loss)
          << "soup " << rep << " cell " << cell_m << " crossed " << brute_crossed;
      // Capped, both ways: the exact bits, or +inf for a loss past the cap
      // plus the margin.
      for (const double cap : caps_around(brute_loss, base_model.loss_db(a, b))) {
        for (const auto* model : {brute.get(), indexed.get()}) {
          const double capped = model->loss_db_capped(a, b, cap);
          if (std::isinf(capped)) {
            ASSERT_GT(capped, 0.0);
            ASSERT_GT(brute_loss, cap + dot11p::PathLossModel::kCapMarginDb)
                << "gave up within the margin: soup " << rep << " cap " << cap;
            ++given_up;
          } else {
            ASSERT_EQ(capped, brute_loss)
                << "soup " << rep << " cap " << cap << " index " << model->index_enabled();
            ++exact;
          }
        }
      }
    }
  }
  ASSERT_EQ(soups, 200);
  // Both answers must occur, or the capped property says nothing.
  EXPECT_GT(given_up, 1000u);
  EXPECT_GT(exact, 1000u);
}

/// `base` plus the attenuation of the walls among `hint`'s ids that cross
/// a-b, in ascending id order: the lower bound a hint offers.
double hinted_sum(const std::vector<Wall>& walls, Vec2 a, Vec2 b, double base,
                  const dot11p::CullHint& hint) {
  std::vector<std::uint32_t> ids;
  for (const std::uint32_t id : hint.ids) {
    if (id < walls.size() && std::find(ids.begin(), ids.end(), id) == ids.end()) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint32_t id : ids) {
    if (geo::segments_intersect(a, b, walls[id].a, walls[id].b)) base += walls[id].obstruction_loss_db;
  }
  return base;
}

TEST(ObstacleIndex, CullHintsNeverChangeAnAnswer) {
  // Every kind of hint a medium can hold for a link: none, the one a cull
  // of this very ray left, one a cull of another ray left (its walls need
  // not cross this ray), ids beyond the wall set, and one id twice. Each
  // query must return loss_db's bits, or +inf only past the cap plus the
  // margin, and a cull's own hint must cull the same ray again.
  std::mt19937_64 rng{0x51de};
  const double cell_sizes[] = {0.0, 7.0, 25.0, 250.0};  // 0 = derived
  const dot11p::LogDistanceModel base_model = dot11p::LogDistanceModel::its_g5(2.5);
  constexpr std::uint32_t kNone = dot11p::CullHint::kNone;
  std::size_t given_up = 0;
  std::size_t exact = 0;
  std::size_t hinted_culls = 0;
  std::size_t settled_by_hint = 0;  // culls whose own hint is past the cap by itself
  for (int rep = 0; rep < 120; ++rep) {
    const int n = 1 + static_cast<int>(rng() % 64);
    const double extent = 50.0 + static_cast<double>(rng() % 400);
    const double cell_m = cell_sizes[rep % 4];
    const double boundary_cell = cell_m > 0.0 ? cell_m : 64.0;
    const std::vector<Wall> walls = random_soup(rng, n, extent, boundary_cell);
    const auto brute = make_model(walls, false);
    const auto indexed = make_model(walls, true, cell_m);
    const auto rays = adversarial_rays(walls, rng, extent, boundary_cell);
    const auto wall_count = static_cast<std::uint32_t>(walls.size());
    for (std::size_t r = 0; r < rays.size(); ++r) {
      const auto [a, b] = rays[r];
      const auto [other_a, other_b] = rays[(r + 1) % rays.size()];
      const double exact_loss = brute->loss_db(a, b);
      const double base = base_model.loss_db(a, b);
      for (const double cap : caps_around(exact_loss, base)) {
        for (const auto* model : {brute.get(), indexed.get()}) {
          const auto check = [&](double capped, const char* kind) {
            if (std::isinf(capped)) {
              ASSERT_GT(capped, 0.0) << kind;
              ASSERT_GT(exact_loss, cap + dot11p::PathLossModel::kCapMarginDb)
                  << "gave up within the margin with " << kind << " hint: soup " << rep;
              ++given_up;
            } else {
              ASSERT_EQ(capped, exact_loss) << kind << " hint: soup " << rep << " cap " << cap;
              ++exact;
            }
          };
          dot11p::CullHint own;
          check(model->loss_db_capped(a, b, cap, &own), "an empty");
          // A cull leaves walls that cross the ray; a finished walk leaves none.
          for (const std::uint32_t id : own.ids) {
            if (id == kNone) continue;
            ASSERT_LT(id, wall_count);
            ASSERT_TRUE(geo::segments_intersect(a, b, walls[id].a, walls[id].b));
          }
          dot11p::CullHint other;
          (void)model->loss_db_capped(other_a, other_b, cap, &other);
          const dot11p::CullHint kinds[] = {own, other, {{wall_count, wall_count + 7}}, {{0, 0}}};
          const char* names[] = {"its own", "another ray's", "an outside", "a doubled"};
          for (int k = 0; k < 4; ++k) {
            dot11p::CullHint hint = kinds[k];
            check(model->loss_db_capped(a, b, cap, &hint), names[k]);
          }
          if (own.ids[0] != kNone) {
            ++hinted_culls;
            dot11p::CullHint again = own;
            ASSERT_TRUE(std::isinf(model->loss_db_capped(a, b, cap, &again))) << "soup " << rep;
            if (hinted_sum(walls, a, b, base, own) > cap + dot11p::PathLossModel::kCapMarginDb) {
              ++settled_by_hint;
            }
          }
        }
      }
    }
  }
  // Every path must occur, or the property says nothing.
  EXPECT_GT(given_up, 1000u);
  EXPECT_GT(exact, 1000u);
  EXPECT_GT(hinted_culls, 500u);
  EXPECT_GT(settled_by_hint, 250u);
}

TEST(ObstacleIndex, RayCrossingManyWallsMatchesBruteForce) {
  // More crossings than CrossingIds keeps inline, each wall binned in two
  // cells along the ray: the spilled set must still dedup and sum in order.
  std::mt19937_64 rng{99};
  std::uniform_real_distribution<double> loss{0.0, 3.0};
  std::vector<Wall> walls;
  for (int i = 0; i < 300; ++i) {
    const double x = 1.0 + i;
    walls.push_back({{x, -5.0}, {x, 5.0}, loss(rng)});
  }
  const auto brute = make_model(walls, false);
  const auto indexed = make_model(walls, true);
  const Vec2 a{0.0, 0.0};
  const Vec2 b{301.0, 0.0};
  EXPECT_EQ(brute->walls_crossed(a, b), 300u);
  EXPECT_EQ(indexed->walls_crossed(a, b), 300u);
  EXPECT_EQ(indexed->index()->crossings(a, b), 300u);
  const double full = brute->loss_db(a, b);
  EXPECT_EQ(indexed->loss_db(a, b), full);
  EXPECT_EQ(indexed->loss_db_capped(a, b, full), full);
  EXPECT_TRUE(std::isinf(indexed->loss_db_capped(a, b, full - 1.0)));
}

TEST(ObstacleIndex, WallLossMustBeFiniteAndNonNegative) {
  for (const double bad : {-0.5, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<Wall> walls{{{0, 0}, {10, 0}, 20.0}, {{0, 5}, {10, 5}, bad}};
    for (const bool use_index : {true, false}) {
      EXPECT_THROW((void)make_model(walls, use_index), std::invalid_argument) << bad;
    }
  }
  EXPECT_NO_THROW((void)make_model({{{0, 0}, {10, 0}, 0.0}}, true));
}

TEST(ObstacleIndex, GridCandidatesSupersetCrossings) {
  // The grid may over-report candidates but never miss a crossing. A
  // segment binned in several cells on the ray may repeat; crossings()
  // counts it once.
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
    ASSERT_TRUE(grid.for_each_candidate(a, b, [&](std::uint32_t id) {
      candidates.push_back(id);
      return true;
    }));
    if (!candidates.empty()) {
      // A visitor that stops ends the walk at once.
      std::size_t visited = 0;
      ASSERT_FALSE(grid.for_each_candidate(a, b, [&](std::uint32_t) {
        ++visited;
        return false;
      }));
      ASSERT_EQ(visited, 1u);
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
  EXPECT_DOUBLE_EQ(indexed->index()->cell_m(), 30.0);  // mean dominant extent
  EXPECT_EQ(indexed->index()->segment_count(), 2u);
  EXPECT_EQ(indexed->index_queries(), 0u);
  (void)indexed->walls_crossed({-5, 5}, {50, 5});
  (void)indexed->loss_db({-5, 5}, {50, 5});
  EXPECT_EQ(indexed->index_queries(), 2u);

  // A capped link whose base loss is already past the cap walks nothing;
  // one that crosses a wall past the cap walks and gives up.
  const Vec2 tx{15, -5};
  const Vec2 rx{15, 5};  // crosses the first wall
  const double base = dot11p::LogDistanceModel::its_g5(2.5).loss_db(tx, rx);
  EXPECT_TRUE(std::isinf(indexed->loss_db_capped(tx, rx, base - 1.0)));
  EXPECT_EQ(indexed->index_queries(), 2u);
  EXPECT_TRUE(std::isinf(indexed->loss_db_capped(tx, rx, base + 1.0)));
  EXPECT_EQ(indexed->index_queries(), 3u);
  EXPECT_EQ(indexed->loss_db_capped(tx, rx, base + 20.0), base + 20.0);
  EXPECT_EQ(indexed->index_queries(), 4u);

  const auto brute = make_model(walls, false);
  (void)brute->walls_crossed({-5, 5}, {50, 5});
  (void)brute->loss_db_capped(tx, rx, base + 1.0);
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

TEST(ObstacleIndex, BudgetCacheHitsOnceTheMoverStops) {
  // A lookup right after a move skips the cache map. Hits and misses must
  // still count as if every lookup had stored its budget in the map: a
  // pair asked again before either end moves hits, also when its last
  // lookup skipped the map.
  sim::Scheduler sched;
  sim::RandomStream rng{7, "budget_cache_stop"};
  dot11p::ChannelModel channel;
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
  std::map<std::uint64_t, double> r0_rssi;
  radios[0]->set_receive_callback([&r0_rssi](const dot11p::Frame&, const dot11p::RxInfo& info) {
    r0_rssi[info.src_mac] = info.rssi_dbm;
  });
  const auto beacon = [&](std::size_t i) {
    sched.post_in(sim::SimTime::microseconds(1), [&medium, &radios, i] {
      dot11p::Frame f;
      f.ac = dot11p::AccessCategory::BestEffort;
      f.src_mac = radios[i]->mac_address();
      medium.begin_transmission(radios[i].get(), std::move(f), 300);
    });
    sched.run();
  };
  const auto beacon_round = [&] {
    for (std::size_t i = 0; i < radios.size(); ++i) beacon(i);
  };
  const auto counts = [&medium] {
    return std::make_pair(medium.stats().budget_cache_hits, medium.stats().budget_cache_misses);
  };
  using Counts = std::pair<std::uint64_t, std::uint64_t>;  // hits, misses

  beacon_round();  // six cold pairs
  EXPECT_EQ(counts(), (Counts{0, 6}));
  mover = {120.0, 50.0};
  beacon(0);  // r0->r1 hits; r0->r2 recomputes for the moved end
  EXPECT_EQ(counts(), (Counts{1, 7}));
  beacon(0);  // again before anyone moves: both pairs hit
  EXPECT_EQ(counts(), (Counts{3, 7}));
  beacon_round();  // r1->r2, r2->r0 and r2->r1 recompute, the rest hit
  EXPECT_EQ(counts(), (Counts{6, 10}));
  beacon_round();  // parked: all six pairs hit, at the parked geometry
  EXPECT_EQ(counts(), (Counts{12, 10}));
  EXPECT_EQ(r0_rssi.at(radios[2]->mac_address()),
            medium.mean_rx_power_dbm(*radios[2], *radios[0]));
}

/// Runs a moving 24-radio fleet on a medium over `model` and folds every
/// delivery (receiver, sender, RSSI bits) and the medium's outcome
/// counters into one hash. Each medium keeps the cull hints of its own
/// links.
std::uint64_t run_fleet_digest(const std::shared_ptr<const ObstacleShadowingModel>& model,
                               std::uint64_t seed) {
  sim::Scheduler sched;
  sim::RandomStream rng{seed, "shared_model"};
  dot11p::ChannelModel channel;
  channel.path_loss = model;
  dot11p::Medium medium{sched, rng.child("medium"), channel};
  std::mt19937_64 layout{seed};
  std::uniform_real_distribution<double> pos{-300.0, 300.0};
  std::uniform_real_distribution<double> speed{-15.0, 15.0};
  auto positions = std::make_shared<std::vector<Vec2>>();
  std::vector<Vec2> velocities;
  for (int i = 0; i < 24; ++i) {
    positions->push_back({pos(layout), pos(layout)});
    velocities.push_back({speed(layout), speed(layout)});
  }
  for (int tick = 1; tick <= 100; ++tick) {
    sched.post_at(sim::SimTime::milliseconds(10) * tick, [positions, &velocities] {
      for (std::size_t i = 0; i < positions->size(); ++i) (*positions)[i] += velocities[i] * 0.010;
    });
  }
  std::uint64_t h = 1469598103934665603ull;
  std::vector<std::unique_ptr<dot11p::Radio>> radios;
  for (std::size_t i = 0; i < positions->size(); ++i) {
    std::string name{"r"};  // appended, not "r" + ...: GCC 12 -O3 warns -Wrestrict on that
    name += std::to_string(i);
    radios.push_back(std::make_unique<dot11p::Radio>(
        medium, dot11p::RadioConfig{}, [positions, i] { return (*positions)[i]; },
        rng.child(name), name));
    radios.back()->set_receive_callback([&h, i](const dot11p::Frame&, const dot11p::RxInfo& info) {
      std::uint64_t rssi;
      std::memcpy(&rssi, &info.rssi_dbm, sizeof rssi);
      h = fnv1a(fnv1a(fnv1a(h, i), info.src_mac), rssi);
    });
  }
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < radios.size(); ++i) {
      sched.post_at(sim::SimTime::milliseconds(20) * round +
                        sim::SimTime::microseconds(static_cast<std::int64_t>(1 + 600 * i)),
                    [&radios, i] {
                      dot11p::Frame f;
                      f.payload.assign(200, 0x5a);
                      f.ac = dot11p::AccessCategory::BestEffort;
                      radios[i]->send(f);
                    });
    }
  }
  sched.run();
  const auto& st = medium.stats();
  for (const std::uint64_t v : {st.frames_transmitted, st.deliveries, st.dropped_half_duplex,
                                st.dropped_below_sensitivity, st.dropped_error,
                                st.culled_below_floor}) {
    h = fnv1a(h, v);
  }
  return h;
}

TEST(ObstacleIndex, SharedModelServesTwoThreadsWithTheirOwnHints) {
  // One immutable model, two media on two threads, each medium holding the
  // cull hints of its own links: each run must match its serial run on a
  // model of its own.
  std::mt19937_64 rng{77};
  const std::vector<Wall> walls = random_soup(rng, 160, 320.0, 32.0);
  const std::shared_ptr<const ObstacleShadowingModel> shared = make_model(walls, true);
  const std::uint64_t serial_a = run_fleet_digest(make_model(walls, true), 1);
  const std::uint64_t serial_b = run_fleet_digest(make_model(walls, true), 2);
  ASSERT_NE(serial_a, serial_b);
  std::uint64_t threaded_a = 0;
  std::uint64_t threaded_b = 0;
  std::thread first{[&] { threaded_a = run_fleet_digest(shared, 1); }};
  std::thread second{[&] { threaded_b = run_fleet_digest(shared, 2); }};
  first.join();
  second.join();
  EXPECT_EQ(threaded_a, serial_a);
  EXPECT_EQ(threaded_b, serial_b);
  EXPECT_GT(shared->index_queries(), 0u);
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
