#include "rst/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <vector>

namespace rst::sim {
namespace {

using namespace rst::sim::literals;

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30_ms, [&] { order.push_back(3); });
  sched.schedule_at(10_ms, [&] { order.push_back(1); });
  sched.schedule_at(20_ms, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30_ms);
}

TEST(Scheduler, EqualTimestampsFireInSchedulingOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(5_ms, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  SimTime fired_at;
  sched.schedule_at(10_ms, [&] {
    sched.schedule_in(5_ms, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, 15_ms);
}

TEST(Scheduler, RejectsPastScheduling) {
  Scheduler sched;
  sched.schedule_at(10_ms, [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(5_ms, [] {}), std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle h = sched.schedule_at(10_ms, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(1_ms, [] {});
  sched.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
  h.cancel();
}

TEST(Timer, RearmingFromTheCallbackKeepsAFixedCadence) {
  Scheduler sched;
  std::vector<SimTime> fired;
  Timer timer{sched, [&] {
                fired.push_back(sched.now());
                timer.arm_in(10_ms);
              }};
  timer.arm_in(10_ms);
  sched.post_at(25_ms, [] {});  // unrelated traffic does not shift the cadence
  sched.run_until(55_ms);
  EXPECT_EQ(fired, (std::vector<SimTime>{10_ms, 20_ms, 30_ms, 40_ms, 50_ms}));
  EXPECT_TRUE(timer.armed());
}

TEST(Timer, CancelStopsTheNextFiring) {
  Scheduler sched;
  int fired = 0;
  Timer timer{sched, [&] {
                ++fired;
                timer.arm_in(10_ms);
              }};
  timer.arm_in(10_ms);
  sched.run_until(25_ms);
  EXPECT_EQ(fired, 2);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  timer.cancel();  // idempotent: the dead entry is marked once
  const auto purged = sched.purged_events();
  sched.run_until(100_ms);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.executed_events(), 2u);
  // The cancelled 30 ms firing is discarded and counted exactly once.
  EXPECT_EQ(sched.purged_events(), purged + 1);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Timer, ArmingAnArmedTimerFiresOnceAtTheNewTime) {
  Scheduler sched;
  std::vector<SimTime> fired;
  Timer timer{sched, [&] { fired.push_back(sched.now()); }};
  timer.arm_in(10_ms);
  timer.arm_at(30_ms);  // later than the pending firing
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{30_ms}));
  timer.arm_at(60_ms);
  timer.arm_in(5_ms);  // earlier than the pending firing
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{30_ms, 35_ms}));
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, DestroyingAnArmedTimerRunsNothing) {
  Scheduler sched;
  int fired = 0;
  {
    Timer timer{sched, [&] { ++fired; }};
    timer.arm_in(10_ms);
  }
  const auto purged = sched.purged_events();
  sched.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.executed_events(), 0u);
  EXPECT_EQ(sched.purged_events(), purged + 1);
  // The released slot serves later events without being counted again.
  sched.post_in(5_ms, [] {});
  sched.run();
  EXPECT_EQ(sched.executed_events(), 1u);
  EXPECT_EQ(sched.purged_events(), purged + 1);
}

TEST(Timer, ArmingInThePastThrowsAndKeepsThePendingFiring) {
  Scheduler sched;
  std::vector<SimTime> fired;
  Timer timer{sched, [&] { fired.push_back(sched.now()); }};
  timer.arm_at(5_ms);
  sched.run_until(2_ms);
  EXPECT_THROW(timer.arm_at(1_ms), std::invalid_argument);
  EXPECT_TRUE(timer.armed());
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{5_ms}));
  EXPECT_EQ(sched.purged_events(), 0u);
}

TEST(Timer, FiresInArmOrderAmongEqualTimestamps) {
  Scheduler sched;
  std::vector<int> order;
  Timer timer{sched, [&] { order.push_back(2); }};
  sched.post_at(10_ms, [&] { order.push_back(1); });
  timer.arm_at(10_ms);
  sched.post_at(10_ms, [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, RunUntilAdvancesClockToDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(10_ms, [&] { ++fired; });
  sched.schedule_at(50_ms, [&] { ++fired; });
  const auto n = sched.run_until(20_ms);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 20_ms);
  EXPECT_EQ(sched.pending_events(), 1u);
}

TEST(Scheduler, RunUntilExecutesEventAtExactDeadline) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_at(20_ms, [&] { fired = true; });
  sched.run_until(20_ms);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunWithLimitStopsEarly) {
  Scheduler sched;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    sched.schedule_at(SimTime::milliseconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(sched.run(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.run(), 3u);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1_ms, [&] { ++fired; });
  sched.schedule_at(2_ms, [&] { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 100) sched.schedule_in(1_ms, next);
  };
  sched.schedule_in(1_ms, next);
  sched.run();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(sched.now(), 100_ms);
  EXPECT_EQ(sched.executed_events(), 100u);
}

TEST(Scheduler, CancelledEventsDoNotAdvanceClockInRunUntil) {
  Scheduler sched;
  EventHandle h = sched.schedule_at(5_ms, [] {});
  h.cancel();
  sched.run_until(3_ms);
  EXPECT_EQ(sched.now(), 3_ms);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, SameTimestampOrderSpansPostAndScheduleInterleavings) {
  // The FIFO-within-timestamp guarantee is per insertion, not per entry
  // point: tracked schedule_at, fire-and-forget post_at and relative
  // schedule_in/post_in all share one sequence counter.
  Scheduler sched;
  std::vector<int> order;
  sched.post_at(5_ms, [&] { order.push_back(0); });
  sched.schedule_at(5_ms, [&] { order.push_back(1); });
  sched.post_in(5_ms, [&] { order.push_back(2); });
  EventHandle tracked = sched.schedule_in(5_ms, [&] { order.push_back(3); });
  sched.post_at(5_ms, [&] { order.push_back(4); });
  (void)tracked;
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancellingMiddleOfSameTimestampBatchPreservesTheRest) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(sched.schedule_at(5_ms, [&order, i] { order.push_back(i); }));
  }
  handles[1].cancel();
  handles[4].cancel();
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(sched.executed_events(), 4u);
}

TEST(Scheduler, CancelFromWithinSameTimestampBatch) {
  // An earlier event at the same timestamp cancels a later one: the later
  // callback must not fire even though it was already due.
  Scheduler sched;
  std::vector<int> order;
  EventHandle victim = sched.schedule_at(5_ms, [&] { order.push_back(99); });
  sched.post_at(5_ms, [&] {
    order.push_back(0);
    victim.cancel();
  });
  // Scheduled after the canceller but before the victim fires — still runs.
  sched.post_at(5_ms, [&] { order.push_back(1); });
  sched.run();
  // victim was scheduled first, so it fires before its canceller: cancel
  // after fire is a safe no-op and the batch order is unchanged.
  EXPECT_EQ(order, (std::vector<int>{99, 0, 1}));

  // Now the canceller is scheduled first and the victim second.
  Scheduler sched2;
  order.clear();
  EventHandle victim2;
  sched2.post_at(5_ms, [&] {
    order.push_back(0);
    victim2.cancel();
  });
  victim2 = sched2.schedule_at(5_ms, [&] { order.push_back(99); });
  sched2.run();
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(sched2.executed_events(), 1u);
}

TEST(Scheduler, RescheduleAtSameTimestampFromRunningEventGoesToBatchTail) {
  Scheduler sched;
  std::vector<int> order;
  sched.post_at(5_ms, [&] {
    order.push_back(0);
    // now() == 5 ms: scheduling *at* now from inside an event is legal and
    // must append behind the rest of the 5 ms batch.
    sched.post_at(5_ms, [&] { order.push_back(2); });
  });
  sched.post_at(5_ms, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, StopRunsEveryEventAtTheStopInstant) {
  Scheduler sched;
  std::vector<int> order;
  sched.post_at(3_ms, [&] {
    order.push_back(3);
    sched.stop_at(5_ms);  // requested from inside the run
  });
  sched.post_at(5_ms, [&] {
    order.push_back(5);
    // Posted at the stop instant by an event at the stop instant: runs too.
    sched.post_at(5_ms, [&] { order.push_back(55); });
  });
  sched.post_at(5_ms + 1_ns, [&] { order.push_back(6); });
  EXPECT_EQ(sched.run_until(100_ms), 3u);
  EXPECT_EQ(order, (std::vector<int>{3, 5, 55}));
  EXPECT_EQ(sched.now(), 5_ms);
  EXPECT_FALSE(sched.stop_requested());
  EXPECT_EQ(sched.pending_events(), 1u);
}

TEST(Scheduler, StopWithNothingQueuedStillAdvancesTheClockToIt) {
  Scheduler sched;
  sched.stop_at(4_ms);
  EXPECT_TRUE(sched.stop_requested());
  EXPECT_EQ(sched.run_until(10_ms), 0u);
  EXPECT_EQ(sched.now(), 4_ms);
}

TEST(Scheduler, EarliestStopWins) {
  Scheduler sched;
  sched.stop_at(8_ms);
  sched.stop_at(5_ms);
  sched.stop_at(7_ms);
  sched.run_until(10_ms);
  EXPECT_EQ(sched.now(), 5_ms);
}

TEST(Scheduler, StopLaterThanTheDeadlineReturnsAtTheDeadline) {
  Scheduler sched;
  int fired = 0;
  sched.post_at(30_ms, [&] { ++fired; });
  sched.stop_at(30_ms);
  sched.run_until(20_ms);
  EXPECT_EQ(sched.now(), 20_ms);
  EXPECT_EQ(fired, 0);
  // Consumed by that run: the next one is not cut at 30 ms.
  EXPECT_FALSE(sched.stop_requested());
  sched.run_until(40_ms);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 40_ms);
}

TEST(Scheduler, OneRunUntilConsumesTheStop) {
  Scheduler sched;
  int fired = 0;
  for (int ms = 1; ms <= 10; ++ms) sched.post_at(SimTime::milliseconds(ms), [&] { ++fired; });
  sched.stop_at(4_ms);
  EXPECT_EQ(sched.run_until(10_ms), 4u);
  EXPECT_EQ(sched.now(), 4_ms);
  EXPECT_EQ(sched.run_until(10_ms), 6u);
  EXPECT_EQ(sched.now(), 10_ms);
  EXPECT_EQ(fired, 10);
}

TEST(Scheduler, StopInThePastThrows) {
  Scheduler sched;
  sched.run_until(5_ms);
  EXPECT_THROW(sched.stop_at(4_ms), std::invalid_argument);
  EXPECT_FALSE(sched.stop_requested());
  sched.stop_at(5_ms);  // now() itself is a valid stop
  sched.run_until(9_ms);
  EXPECT_EQ(sched.now(), 5_ms);
}

TEST(Scheduler, StopsLeaveExecutionAndPurgingUnchanged) {
  // The same cancel-heavy workload run straight through and cut by a stop
  // at every millisecond executes and purges exactly the same entries.
  const auto run = [](bool stops) {
    Scheduler sched;
    std::vector<EventHandle> handles;
    std::vector<int> order;
    for (int i = 0; i < 200; ++i) {
      const SimTime at = SimTime::microseconds(137 * i % 20'000);
      handles.push_back(sched.schedule_at(at, [&order, i] { order.push_back(i); }));
    }
    for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
    // Events that cancel later ones while the run is under way.
    sched.post_at(7_ms, [&] {
      for (std::size_t i = 1; i < handles.size(); i += 7) handles[i].cancel();
    });
    if (stops) {
      for (SimTime stop = 1_ms; stop <= 25_ms; stop += 1_ms) {
        sched.stop_at(stop);
        sched.run_until(25_ms);
      }
    } else {
      sched.run_until(25_ms);
    }
    return std::tuple{order, sched.executed_events(), sched.purged_events(), sched.now()};
  };
  EXPECT_EQ(run(true), run(false));
  EXPECT_GT(std::get<2>(run(false)), 0u);
}

}  // namespace
}  // namespace rst::sim
