// Counts heap allocations per radio delivery in a warm city: the receive
// path (medium, GN decode, BTP, CA service, LDM) of every station. Like
// the other *_alloc_test binaries, it overrides the global operator
// new/delete and therefore lives in its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "rst/scenario/city.hpp"

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

namespace rst::scenario {
namespace {

TEST(CityAlloc, WarmCityStaysUnderItsAllocationsPerDelivery) {
  // 0.98 allocations per delivery when the bound was set (2.98 while each
  // delivery heap-allocated its stack-processing event and BTP copied its
  // payload, 4.79 while each receiver decoded its own copy of every GN
  // packet and the budget cache stored every moving pair); the bound
  // leaves 10% headroom.
  constexpr double kBound = 1.08;
  CitySpec spec;
  spec.seed = 7;
  spec.vehicles = 48;
  spec.enable_dcc = true;
  CityScenario city{spec};
  city.start();
  auto& sched = city.scheduler();
  sched.run_until(sched.now() + sim::SimTime::milliseconds(500));

  const std::uint64_t deliveries_before = city.medium().stats().deliveries;
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  sched.run_until(sched.now() + sim::SimTime::seconds(1));
  g_counting.store(false, std::memory_order_relaxed);
  const std::uint64_t deliveries = city.medium().stats().deliveries - deliveries_before;
  const double per_delivery =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed)) / static_cast<double>(deliveries);

  ASSERT_GT(deliveries, 1000u);
  RecordProperty("allocations_per_delivery", std::to_string(per_delivery));
  EXPECT_LE(per_delivery, kBound);
}

}  // namespace
}  // namespace rst::scenario
