#include "rst/geo/spatial_grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "rst/sim/random.hpp"

namespace rst::geo {
namespace {

std::vector<std::uint32_t> query_sorted(const SpatialGrid& grid, Vec2 center, double radius) {
  std::vector<std::uint32_t> out;
  grid.for_each_in_disc(center, radius, [&](std::uint32_t id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialGrid, InsertRemoveAndSize) {
  SpatialGrid grid{10.0};
  EXPECT_EQ(grid.size(), 0u);
  grid.insert(1, {0.0, 0.0});
  grid.insert(2, {5.0, 5.0});
  grid.insert(3, {100.0, -100.0});
  EXPECT_EQ(grid.size(), 3u);
  grid.remove(2, {5.0, 5.0});
  EXPECT_EQ(grid.size(), 2u);
  const auto hits = query_sorted(grid, {0.0, 0.0}, 15.0);
  EXPECT_EQ(hits, (std::vector<std::uint32_t>{1}));
}

TEST(SpatialGrid, CellBoundaryCrossing) {
  SpatialGrid grid{10.0};
  grid.insert(7, {9.9, 0.0});
  // Move within the same cell: no bin change.
  EXPECT_FALSE(grid.move(7, {9.9, 0.0}, {9.95, 0.0}));
  // Cross the x = 10 boundary: bin changes, membership follows.
  EXPECT_TRUE(grid.move(7, {9.95, 0.0}, {10.05, 0.0}));
  EXPECT_EQ(query_sorted(grid, {10.05, 0.0}, 1.0), (std::vector<std::uint32_t>{7}));
  // Negative coordinates use floor division, not truncation: -0.1 is in
  // cell -1, not cell 0.
  EXPECT_TRUE(grid.move(7, {10.05, 0.0}, {-0.1, -0.1}));
  EXPECT_EQ(query_sorted(grid, {-0.1, -0.1}, 0.5), (std::vector<std::uint32_t>{7}));
}

TEST(SpatialGrid, DiscQueryIsSupersetAndCellTight) {
  SpatialGrid grid{25.0};
  sim::RandomStream rng{99, "grid_test"};
  struct Node {
    std::uint32_t id;
    Vec2 p;
  };
  std::vector<Node> nodes;
  for (std::uint32_t i = 0; i < 400; ++i) {
    Node n{i, {rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)}};
    grid.insert(n.id, n.p);
    nodes.push_back(n);
  }

  for (int q = 0; q < 50; ++q) {
    const Vec2 c{rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    const double r = rng.uniform(1.0, 300.0);
    const auto hits = query_sorted(grid, c, r);
    const std::set<std::uint32_t> hit_set(hits.begin(), hits.end());
    for (const Node& n : nodes) {
      const double d = distance(c, n.p);
      // Everything inside the disc must be visited (superset semantics)...
      if (d <= r) {
        EXPECT_TRUE(hit_set.count(n.id)) << "missed id " << n.id;
      }
      // ...and the query stays cell-tight: it covers the bounding box of
      // the disc rounded out to whole cells, whose farthest corner is at
      // sqrt(2) * (r + cell) from the center.
      const double bound = std::sqrt(2.0) * (r + 25.0);
      if (d > bound) {
        EXPECT_FALSE(hit_set.count(n.id)) << "over-visited id " << n.id;
      }
    }
  }
}

TEST(SpatialGrid, MovingNodesStayFindable) {
  SpatialGrid grid{5.0};
  sim::RandomStream rng{7, "grid_move"};
  std::vector<Vec2> pos(64);
  for (std::uint32_t i = 0; i < pos.size(); ++i) {
    pos[i] = {rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)};
    grid.insert(i, pos[i]);
  }
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<std::uint32_t>(rng.uniform_int(0, 63));
    const Vec2 next{pos[i].x + rng.uniform(-7.0, 7.0), pos[i].y + rng.uniform(-7.0, 7.0)};
    grid.move(i, pos[i], next);
    pos[i] = next;
    const auto hits = query_sorted(grid, next, 0.5);
    EXPECT_TRUE(std::find(hits.begin(), hits.end(), i) != hits.end());
  }
  EXPECT_EQ(grid.size(), 64u);
}

}  // namespace
}  // namespace rst::geo
