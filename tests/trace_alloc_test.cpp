// Counts heap allocations to prove the typed tracing path — record_event,
// span markers, counter increments, histogram observations — is
// allocation-free at steady state (one warm-up event pays for the ring
// buffer reserve, nothing after).
//
// Like scheduler_alloc_test, this overrides the global operator
// new/delete and therefore lives in its own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "rst/sim/metrics.hpp"
#include "rst/sim/trace.hpp"

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

namespace rst::sim {
namespace {

using namespace rst::sim::literals;

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

TEST(TraceAlloc, TypedRecordingIsAllocationFreeAfterWarmup) {
  Trace trace;
  // First event reserves the ring buffer — the one allowed allocation.
  trace.record_event(1_ms, Stage::DenmTx, 900, pack_action(900, 1));

  {
    CountScope scope;
    for (int i = 0; i < 1000; ++i) {
      trace.record_event(SimTime::milliseconds(i), Stage::CamTx, 1,
                         static_cast<std::uint64_t>(i));
      trace.span_begin(SimTime::milliseconds(i), Stage::DenmPoll, 0,
                       static_cast<std::uint64_t>(i));
      trace.span_end(SimTime::milliseconds(i), Stage::DenmPoll, 0,
                     static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(trace.events().size(), 3001u);
}

TEST(TraceAlloc, RingOverflowDropPathIsAllocationFree) {
  Trace trace;
  trace.set_event_capacity(8);
  for (int i = 0; i < 8; ++i) trace.record_event(1_ms, Stage::CamTx, 1);
  {
    CountScope scope;
    for (int i = 0; i < 1000; ++i) trace.record_event(2_ms, Stage::CamTx, 1);
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(trace.events_dropped(), 1000u);
}

TEST(TraceAlloc, MetricsHotPathIsAllocationFree) {
  MetricsRegistry registry;
  // Registration allocates (map insert + bucket vectors); grab refs once.
  auto& counter = registry.counter("polls");
  auto& histogram = registry.histogram("latency_ms");
  histogram.observe(1.0);  // warm-up

  {
    CountScope scope;
    for (int i = 0; i < 1000; ++i) {
      counter.add();
      histogram.observe(static_cast<double>(i % 97) + 0.5);
    }
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(counter.value(), 1000u);
  EXPECT_EQ(histogram.count(), 1001u);
}

}  // namespace
}  // namespace rst::sim
