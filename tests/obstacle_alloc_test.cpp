// Counts heap allocations to prove the indexed obstacle query path —
// supercover cell walk, CSR bin lookups, the exact intersection test and
// the on-stack crossing set, uncapped and capped — is allocation-free.
//
// Like medium_alloc_test, this overrides the global operator new/delete
// and therefore lives in its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "rst/dot11p/channel.hpp"
#include "rst/geo/obstacle_grid.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Kept out of line: once GCC inlines the malloc() and free() behind them,
// -Wmismatched-new-delete mistakes the pair for a mismatched release.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rst::dot11p {
namespace {

class CountScope {
 public:
  CountScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountScope() { g_counting.store(false, std::memory_order_relaxed); }
  [[nodiscard]] std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

TEST(ObstacleAlloc, IndexedQueryPathIsAllocationFreeInSteadyState) {
  // A 16x16 building grid, four walls each: 1024 walls, dense enough that
  // long diagonal rays collect candidates from dozens of cells.
  std::vector<Wall> walls;
  for (int by = 0; by < 16; ++by) {
    for (int bx = 0; bx < 16; ++bx) {
      const double x0 = bx * 100.0 + 20.0;
      const double y0 = by * 100.0 + 20.0;
      const double x1 = x0 + 60.0;
      const double y1 = y0 + 60.0;
      walls.push_back({{x0, y0}, {x1, y0}, 12.0});
      walls.push_back({{x1, y0}, {x1, y1}, 12.0});
      walls.push_back({{x1, y1}, {x0, y1}, 12.0});
      walls.push_back({{x0, y1}, {x0, y0}, 12.0});
    }
  }
  auto base = std::make_unique<LogDistanceModel>(LogDistanceModel::its_g5(2.8));
  const ObstacleShadowingModel model{std::move(base), std::move(walls), /*use_index=*/true};
  ASSERT_TRUE(model.index_enabled());

  // The query mix, worst rays included: the full-map diagonal and the
  // longest axis-aligned streets maximise cells visited and walls crossed.
  // The capped queries stop part way along the same rays.
  const auto query_round = [&] {
    double sink = 0.0;
    sink += model.loss_db({0.0, 0.0}, {1600.0, 1600.0});
    sink += model.loss_db({0.0, 1600.0}, {1600.0, 0.0});
    sink += model.loss_db({0.0, 50.0}, {1600.0, 50.0});
    sink += model.loss_db({50.0, 0.0}, {50.0, 1600.0});
    for (int i = 0; i < 32; ++i) {
      const double t = i * 47.0;
      sink += model.loss_db({t, 10.0}, {1600.0 - t, 1590.0});
      sink += static_cast<double>(model.walls_crossed({t, t}, {800.0, 800.0}));
      sink += model.walls_crossed({10.0, t}, {1590.0, 1600.0 - t}) > 0 ? 1.0 : 0.0;
      const double cap = 60.0 + 4.0 * i;
      const double capped = model.loss_db_capped({t, 10.0}, {1600.0 - t, 1590.0}, cap);
      sink += std::isinf(capped) ? 1.0 : capped;
      sink += model.loss_db_capped({0.0, 0.0}, {1600.0, 1600.0}, 150.0 + 10.0 * i) > 1e300 ? 1.0
                                                                                           : 0.0;
    }
    return sink;
  };

  const double warm = query_round();
  ASSERT_EQ(query_round(), warm);  // deterministic: same rays, same bits
  ASSERT_GT(model.index_queries(), 0u);
  // The full-map diagonal touches four walls of each of the 16 buildings.
  ASSERT_EQ(model.walls_crossed({0.0, 0.0}, {1600.0, 1600.0}), 64u);

  {
    CountScope scope;
    for (int round = 0; round < 16; ++round) {
      EXPECT_EQ(query_round(), warm);
    }
    EXPECT_EQ(scope.count(), 0u) << "indexed obstacle query allocated in steady state";
  }
}

}  // namespace
}  // namespace rst::dot11p
