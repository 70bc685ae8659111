// Counts heap allocations to prove the scheduler's hot paths are
// allocation-free in steady state:
//   - post_at / post_in with a small callback never allocate once the
//     event heap has reached its high-water capacity,
//   - cancelling through tickets and purging the cancelled entries
//     allocates nothing either,
//   - a bus delivery of a hot vehicle topic fits the inline callback,
//   - an HTTP poll that finds no DENM fits it too,
//   - a warm detection loop allocates nothing per camera frame, with
//     anonymized detections too.
// It also bounds the allocations of one whole emergency-brake trial.
//
// This test overrides the global operator new/delete, which is why it
// lives in its own binary (each rst_test is a separate executable).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "rst/core/testbed.hpp"
#include "rst/middleware/openc2x_api.hpp"
#include "rst/sim/scheduler.hpp"
#include "rst/vehicle/message_handler.hpp"
#include "rst/vehicle/vehicle_bus.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

// Kept out of line: inlined into gtest's test factories at -O2, GCC's
// -Wmismatched-new-delete mistakes the free() for a mismatched release.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using rst::sim::Scheduler;
using rst::sim::SimTime;
using rst::sim::Timer;

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

TEST(SchedulerAlloc, FireAndForgetSteadyStateIsAllocationFree) {
  Scheduler sched;
  std::uint64_t fired = 0;

  // Warm-up: grow the event heap to its working-set size and let the
  // SmallFunction inline storage prove itself.
  for (int i = 0; i < 1024; ++i) {
    sched.post_in(SimTime::microseconds(i + 1), [&fired] { ++fired; });
  }
  sched.run();
  ASSERT_EQ(fired, 1024u);

  // Steady state: schedule and drain the same working set. The callback
  // fits SmallFunction's inline buffer, post_* skips handle allocation,
  // and the heap vector keeps its capacity, so nothing may allocate.
  {
    CountScope scope;
    for (int round = 0; round < 16; ++round) {
      for (int i = 0; i < 256; ++i) {
        sched.post_in(SimTime::microseconds(i + 1), [&fired] { ++fired; });
      }
      sched.run();
    }
    EXPECT_EQ(scope.count(), 0u)
        << "fire-and-forget scheduling allocated in steady state";
  }
  EXPECT_EQ(fired, 1024u + 16u * 256u);
}

/// The pattern every periodic service uses: a callback that re-posts
/// itself. Small enough for SmallFunction's inline storage.
struct Tick {
  Scheduler* sched;
  std::uint64_t* ticks;
  void operator()() const {
    ++*ticks;
    if (*ticks < 2048) sched->post_in(SimTime::milliseconds(1), Tick{sched, ticks});
  }
};

TEST(SchedulerAlloc, SelfReschedulingTimerIsAllocationFree) {
  Scheduler sched;
  std::uint64_t ticks = 0;
  sched.post_in(SimTime::milliseconds(1), Tick{&sched, &ticks});
  sched.run_until(SimTime::milliseconds(100));  // warm-up: 100 ticks

  const auto warm = ticks;
  {
    CountScope scope;
    sched.run();
    EXPECT_EQ(scope.count(), 0u) << "self-rescheduling timer allocated";
  }
  EXPECT_EQ(ticks, 2048u);
  EXPECT_GT(ticks, warm);
}

TEST(SchedulerAlloc, RearmingAWarmTimerIsAllocationFree) {
  Scheduler sched;
  std::uint64_t fired = 0;
  Timer timer{sched, [&] {
                if (++fired < 1100) timer.arm_in(SimTime::milliseconds(1));
              }};
  timer.arm_in(SimTime::milliseconds(1));
  sched.run_until(SimTime::milliseconds(100));  // warm-up: 100 firings

  {
    CountScope scope;
    sched.run();  // the remaining 1,000 firings, each re-arming the timer
    EXPECT_EQ(scope.count(), 0u) << "re-arming a timer allocated";
  }
  EXPECT_EQ(fired, 1100u);
}

TEST(SchedulerAlloc, PublishingOnAWarmTopicIsAllocationFree) {
  namespace vehicle = rst::vehicle;
  Scheduler sched;
  vehicle::VehicleBus bus{sched, rst::sim::RandomStream{7, "alloc"}};
  std::uint64_t delivered = 0;
  bus.odometry.subscribe([&](const vehicle::Odometry&) { ++delivered; });
  bus.line_detection.subscribe([&](const vehicle::LineDetection&) { ++delivered; });
  bus.drive_cmd.subscribe([&](const vehicle::DriveCommand&) { ++delivered; });
  const auto publish_all = [&] {
    bus.odometry.publish(vehicle::Odometry{.speed_mps = 1.2, .position = {0.5, 3.0}});
    bus.line_detection.publish(vehicle::LineDetection{.lateral_offset_m = 0.01});
    bus.drive_cmd.publish(vehicle::DriveCommand{.throttle01 = 0.3});
    sched.run();
  };
  for (int i = 0; i < 100; ++i) publish_all();  // warm-up

  {
    CountScope scope;
    for (int i = 0; i < 1000; ++i) publish_all();
    EXPECT_EQ(scope.count(), 0u) << "publishing on a warm topic allocated";
  }
  EXPECT_EQ(delivered, 3u * 1100u);
}

TEST(SchedulerAlloc, EmptyPollsAllocateNothing) {
  namespace its = rst::its;
  Scheduler sched;
  rst::sim::RandomStream rng{7, "poll"};
  rst::geo::LocalFrame frame{{41.1780, -8.6080}};
  rst::dot11p::ChannelModel channel;
  channel.path_loss = std::make_shared<rst::dot11p::LogDistanceModel>(
      rst::dot11p::LogDistanceModel::its_g5(2.0));
  rst::dot11p::Medium medium{sched, rng.child("medium"), channel};
  rst::dot11p::Radio radio{medium, {}, [] { return rst::geo::Vec2{}; }, rng.child("radio"), "obu"};
  its::GeoNetRouter router{sched,
                           radio,
                           frame,
                           its::GnAddress::from_station(42),
                           [] { return its::EgoState{}; },
                           {},
                           rng.child("gn")};
  its::DenBasicService den{sched, router, 42};
  rst::middleware::HttpLan lan{sched, rng.child("lan")};
  rst::middleware::OpenC2xApi api{lan, "obu", den};
  rst::vehicle::VehicleBus bus{sched, rng.child("bus")};
  rst::vehicle::MessageHandler handler{sched, bus, lan, rng.child("handler")};
  handler.start();
  sched.run_until(SimTime::milliseconds(60));  // warm-up: the first poll and its response
  ASSERT_EQ(handler.stats().polls, 1u);

  {
    CountScope scope;
    sched.run_until(sched.now() + SimTime::milliseconds(50 * 50));
    EXPECT_EQ(scope.count(), 0u) << "an empty poll allocated";
  }
  EXPECT_EQ(handler.stats().polls, 51u);
  EXPECT_EQ(handler.stats().failed_polls, 0u);
  EXPECT_EQ(handler.stats().denms_fetched, 0u);
}

TEST(SchedulerAlloc, WarmDetectionLoopAllocatesNothingPerFrame) {
  // Only the road-side pipeline runs: camera, YOLO, the detection service
  // and the subscribers of its batches. The vehicle stands 3 m from the
  // camera, in view and short of the Action Point, so frames are detected,
  // tracked and published and no DENM is triggered. CPM adds the RSU's LDM
  // feed as a second subscriber; at 20 frames/s inference outlasts the
  // period, so two frames are in flight at once. Anonymized detections get
  // their ids from the data associator, whose working vectors stay warm.
  struct Case {
    const char* name;
    bool cpm;
    std::int64_t fps;
    bool anonymize{false};
  };
  for (const Case c : {Case{"hazard only", false, 4}, Case{"hazard + CPM LDM feed", true, 4},
                       Case{"overlapping frames", true, 20},
                       Case{"anonymized detections", false, 4, true}}) {
    rst::core::TestbedConfig config;
    config.seed = 401;
    config.cpm_enable = c.cpm;
    config.detection.anonymize_detections = c.anonymize;
    config.detection.processing_period = SimTime::milliseconds(1000 / c.fps);
    config.vehicle_start = {0, 5.0};
    rst::core::TestbedScenario scenario{config};
    scenario.detection().start();
    scenario.hazard().start();
    Scheduler& sched = scenario.scheduler();
    // Warm-up: long enough for the in-flight high-water mark (three frames
    // at 20 frames/s when an inference runs past 100 ms).
    sched.run_until(SimTime::seconds(10));
    const auto frames = scenario.detection().frames_processed();
    const auto batches = scenario.hazard().stats().batches_seen;
    {
      CountScope scope;
      sched.run_until(sched.now() + SimTime::seconds(10));
      EXPECT_EQ(scope.count(), 0u) << c.name;
    }
    EXPECT_EQ(scenario.detection().frames_processed() - frames,
              static_cast<std::uint64_t>(10 * c.fps))
        << c.name;
    // A batch in flight at either end of the window may fall on either side.
    EXPECT_NEAR(static_cast<double>(scenario.hazard().stats().batches_seen - batches),
                static_cast<double>(10 * c.fps), 1.0)
        << c.name;
    EXPECT_EQ(scenario.hazard().stats().denms_triggered, 0u) << c.name;
  }
}

TEST(SchedulerAlloc, BrakeTrialLoopStaysUnderItsAllocationBound) {
  // The loop allocated 163 times when the bound was set (165 while event
  // handles kept pooled state, 346 while the detection pipeline copied
  // every frame, detection list and batch, 364 while each radio delivery
  // heap-allocated its stack-processing event and BTP copied every
  // payload, 646 with the string HTTP bodies, 2,606 with the string-keyed
  // bus); the bound leaves 10% headroom.
  constexpr std::size_t kBound = 179;
  rst::core::TestbedConfig config;
  config.seed = 401;
  rst::core::TestbedScenario scenario{config};
  scenario.start_services();
  rst::core::TrialResult result;
  std::size_t allocations = 0;
  {
    CountScope scope;
    result = scenario.run_emergency_brake_trial();
    allocations = scope.count();
  }
  EXPECT_TRUE(result.stopped_by_denm);
  RecordProperty("allocations", std::to_string(allocations));
  EXPECT_LE(allocations, kBound);
}

TEST(SchedulerAlloc, CancelledEventsArePurgedWithoutAllocation) {
  Scheduler sched;
  std::uint64_t fired = 0;
  // Warm-up with the same mix.
  std::vector<Scheduler::Ticket> tickets;
  tickets.reserve(256);
  for (int i = 0; i < 256; ++i) {
    tickets.push_back(sched.post_in(SimTime::microseconds(i + 1), [&fired] { ++fired; }));
  }
  for (const auto& t : tickets) sched.cancel(t);
  tickets.clear();
  sched.run();
  ASSERT_EQ(fired, 0u);

  {
    CountScope scope;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 128; ++i) {
        tickets.push_back(sched.post_in(SimTime::microseconds(i + 1), [&fired] { ++fired; }));
      }
      for (const auto& t : tickets) sched.cancel(t);
      tickets.clear();
      sched.run();
    }
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(fired, 0u);
  EXPECT_GT(sched.purged_events() + sched.executed_events(), 0u);
}

}  // namespace
