// Counts heap allocations to prove the medium's steady-state transmit
// path — distance cull, cached link budget, pooled transmission record,
// per-receiver interference accumulators — is allocation-free once the
// pools have reached their high-water capacity.
//
// Like scheduler_alloc_test, this overrides the global operator
// new/delete and therefore lives in its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"

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

TEST(MediumAlloc, SpatialTransmitPathIsAllocationFreeInSteadyState) {
  sim::Scheduler sched;
  sim::RandomStream rng{2024, "medium_alloc"};
  ChannelModel channel;
  channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.8));
  channel.shadowing_sigma_db = 3.0;
  channel.power_floor_dbm = -95.0;
  Medium medium{sched, rng.child("medium"), channel};

  // A 6x6 lattice at 150 m pitch: each station hears a neighbourhood, not
  // the whole fleet, so the distance cull and the floor cull both exercise.
  std::vector<std::unique_ptr<Radio>> radios;
  for (int gy = 0; gy < 6; ++gy) {
    for (int gx = 0; gx < 6; ++gx) {
      const geo::Vec2 pos{gx * 150.0, gy * 150.0};
      const auto idx = radios.size();
      radios.push_back(std::make_unique<Radio>(
          medium, RadioConfig{}, [pos] { return pos; },
          rng.child("radio" + std::to_string(idx)), "radio" + std::to_string(idx)));
    }
  }

  // The steady-state workload bypasses the MAC queue (Radio::send copies a
  // payload by design) and drives the medium directly with header-only
  // frames, the way the MAC hands them over after channel access.
  const auto beacon_round = [&] {
    for (std::size_t i = 0; i < radios.size(); ++i) {
      const auto at = sim::SimTime::microseconds(static_cast<std::int64_t>(1 + i * 700));
      sched.post_in(at, [&medium, &radios, i] {
        Frame f;
        f.ac = AccessCategory::BestEffort;
        medium.begin_transmission(radios[i].get(), std::move(f), 300);
      });
    }
    sched.run();
  };

  // Warm-up: pools, budget cache, per-slot active lists and the
  // scheduler's event heap all reach their working-set capacity.
  for (int round = 0; round < 4; ++round) beacon_round();
  ASSERT_GT(medium.stats().budget_cache_hits, 0u);
  ASSERT_GT(medium.stats().culled_below_floor, 0u);

  {
    CountScope scope;
    for (int round = 0; round < 8; ++round) beacon_round();
    EXPECT_EQ(scope.count(), 0u)
        << "transmit path allocated in steady state";
  }
  EXPECT_GT(medium.stats().deliveries, 0u);
}

TEST(MediumAlloc, MovingFleetMeetsNewPairsWithoutAllocating) {
  // Two counter-rotating rings: every station moves, so each budget lookup
  // follows a move, and the rings keep bringing stations into range that
  // have never been paired before. Local density repeats every station
  // spacing, so the transmission records warm up while new pairs keep
  // arriving. New pairs must not grow the budget cache.
  sim::Scheduler sched;
  sim::RandomStream rng{2025, "medium_alloc_moving"};
  ChannelModel channel;
  channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.8));
  channel.power_floor_dbm = -95.0;
  Medium medium{sched, rng.child("medium"), channel};

  constexpr int kPerRing = 24;
  constexpr double kRadiusM = 2000.0;
  constexpr double kSpeedMps = 40.0;
  std::vector<std::unique_ptr<Radio>> radios;
  for (int ring = 0; ring < 2; ++ring) {
    const double radius = kRadiusM + 150.0 * ring;
    const double omega = (ring == 0 ? 1.0 : -1.0) * kSpeedMps / radius;  // rad/s
    for (int i = 0; i < kPerRing; ++i) {
      const double phase = 2.0 * M_PI * (i + 0.5 * ring) / kPerRing;
      const auto idx = radios.size();
      radios.push_back(std::make_unique<Radio>(
          medium, RadioConfig{},
          [&sched, radius, omega, phase] {
            const double a = phase + omega * sched.now().to_seconds();
            return geo::Vec2{radius * std::cos(a), radius * std::sin(a)};
          },
          rng.child("radio" + std::to_string(idx)), "radio" + std::to_string(idx)));
    }
  }

  // Which (receiver, sender) pairs have delivered, to show that new pairs
  // keep arriving while allocations are counted.
  const std::size_t n = radios.size();
  const std::uint64_t first_mac = radios.front()->mac_address();
  std::vector<char> heard(n * n, 0);
  std::size_t new_pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    radios[i]->set_receive_callback([&, i](const Frame&, const RxInfo& info) {
      char& seen = heard[i * n + (info.src_mac - first_mac)];
      if (!seen) ++new_pairs;
      seen = 1;
    });
  }

  // One beacon per station every simulated second, driven straight into
  // the medium as in the lattice case above.
  const auto beacon_round = [&] {
    const sim::SimTime start = sched.now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto at = sim::SimTime::microseconds(static_cast<std::int64_t>(1 + i * 700));
      sched.post_in(at, [&medium, &radios, i] {
        Frame f;
        f.ac = AccessCategory::BestEffort;
        f.src_mac = radios[i]->mac_address();
        medium.begin_transmission(radios[i].get(), std::move(f), 300);
      });
    }
    sched.run_until(start + sim::SimTime::seconds(1));
  };

  for (int round = 0; round < 40; ++round) beacon_round();
  ASSERT_GT(medium.stats().culled_below_floor, 0u);
  const std::size_t pairs_before = new_pairs;
  {
    CountScope scope;
    for (int round = 0; round < 20; ++round) beacon_round();
    EXPECT_EQ(scope.count(), 0u) << "moving-fleet transmit path allocated in steady state";
  }
  EXPECT_GT(new_pairs, pairs_before) << "no new pair came into range while counting";
  EXPECT_EQ(medium.stats().budget_cache_hits, 0u);  // every lookup followed a move
}

}  // namespace
}  // namespace rst::dot11p
