#include "rst/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace rst::sim {
namespace {

using namespace rst::sim::literals;

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.post_at(30_ms, [&] { order.push_back(3); });
  sched.post_at(10_ms, [&] { order.push_back(1); });
  sched.post_at(20_ms, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30_ms);
}

TEST(Scheduler, EqualTimestampsFireInSchedulingOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.post_at(5_ms, [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  SimTime fired_at;
  sched.post_at(10_ms, [&] {
    sched.post_in(5_ms, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, 15_ms);
}

TEST(Scheduler, RejectsPastScheduling) {
  Scheduler sched;
  sched.post_at(10_ms, [] {});
  sched.run();
  EXPECT_THROW(sched.post_at(5_ms, [] {}), std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  const Scheduler::Ticket t = sched.post_at(10_ms, [&] { fired = true; });
  EXPECT_TRUE(sched.pending(t));
  sched.cancel(t);
  EXPECT_FALSE(sched.pending(t));
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler sched;
  const Scheduler::Ticket t = sched.post_at(1_ms, [] {});
  sched.run();
  EXPECT_FALSE(sched.pending(t));
  sched.cancel(t);  // no-op
  sched.cancel(t);
  // The next post reuses the fired event's slot; the stale ticket must
  // neither see nor cancel the newer event.
  bool fired = false;
  const Scheduler::Ticket next = sched.post_at(2_ms, [&] { fired = true; });
  ASSERT_EQ(next.slot, t.slot);
  EXPECT_FALSE(sched.pending(t));
  sched.cancel(t);
  EXPECT_TRUE(sched.pending(next));
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.purged_events(), 0u);
  // A default ticket names nothing.
  EXPECT_FALSE(sched.pending(Scheduler::Ticket{}));
  sched.cancel(Scheduler::Ticket{});
}

TEST(Scheduler, TicketIsStaleInsideItsOwnCallback) {
  // The slot is released before the callback runs, so a post from the
  // callback takes it at once; cancelling the running event's ticket
  // leaves that post alone.
  Scheduler sched;
  Scheduler::Ticket first;
  Scheduler::Ticket second;
  bool pending_inside = true;
  int fired = 0;
  first = sched.post_at(1_ms, [&] {
    pending_inside = sched.pending(first);
    second = sched.post_in(1_ms, [&] { ++fired; });
    sched.cancel(first);
  });
  sched.run();
  EXPECT_FALSE(pending_inside);
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.executed_events(), 2u);
  EXPECT_EQ(sched.purged_events(), 0u);
}

TEST(Scheduler, TicketIsTriviallyCopyable) {
  static_assert(std::is_trivially_copyable_v<Scheduler::Ticket>);
  Scheduler sched;
  int fired = 0;
  const Scheduler::Ticket t = sched.post_in(1_ms, [&] { ++fired; });
  const Scheduler::Ticket copy = t;
  sched.cancel(copy);  // any copy cancels the one event
  EXPECT_FALSE(sched.pending(t));
  sched.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.purged_events(), 1u);
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
  sched.post_at(10_ms, [&] { ++fired; });
  sched.post_at(50_ms, [&] { ++fired; });
  const auto n = sched.run_until(20_ms);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 20_ms);
  EXPECT_EQ(sched.pending_events(), 1u);
}

TEST(Scheduler, RunUntilExecutesEventAtExactDeadline) {
  Scheduler sched;
  bool fired = false;
  sched.post_at(20_ms, [&] { fired = true; });
  sched.run_until(20_ms);
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunWithLimitStopsEarly) {
  Scheduler sched;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) {
    sched.post_at(SimTime::milliseconds(i), [&] { ++fired; });
  }
  EXPECT_EQ(sched.run(2), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sched.run(), 3u);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler sched;
  int fired = 0;
  sched.post_at(1_ms, [&] { ++fired; });
  sched.post_at(2_ms, [&] { ++fired; });
  EXPECT_TRUE(sched.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 100) sched.post_in(1_ms, next);
  };
  sched.post_in(1_ms, next);
  sched.run();
  EXPECT_EQ(chain, 100);
  EXPECT_EQ(sched.now(), 100_ms);
  EXPECT_EQ(sched.executed_events(), 100u);
}

TEST(Scheduler, CancelledEventsDoNotAdvanceClockInRunUntil) {
  Scheduler sched;
  sched.cancel(sched.post_at(5_ms, [] {}));
  sched.run_until(3_ms);
  EXPECT_EQ(sched.now(), 3_ms);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Scheduler, SameTimestampOrderSpansPostAndScheduleInterleavings) {
  // The FIFO-within-timestamp guarantee is per insertion, not per entry
  // point: absolute post_at, relative post_in and Timer arms, kept or
  // dropped tickets, all share one sequence counter.
  Scheduler sched;
  std::vector<int> order;
  Timer timer{sched, [&] { order.push_back(2); }};
  sched.post_at(5_ms, [&] { order.push_back(0); });
  const Scheduler::Ticket kept = sched.post_at(5_ms, [&] { order.push_back(1); });
  timer.arm_in(5_ms);
  sched.post_in(5_ms, [&] { order.push_back(3); });
  sched.post_at(5_ms, [&] { order.push_back(4); });
  EXPECT_TRUE(sched.pending(kept));
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancellingMiddleOfSameTimestampBatchPreservesTheRest) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<Scheduler::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(sched.post_at(5_ms, [&order, i] { order.push_back(i); }));
  }
  sched.cancel(tickets[1]);
  sched.cancel(tickets[4]);
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(sched.executed_events(), 4u);
}

TEST(Scheduler, CancelFromWithinSameTimestampBatch) {
  // An earlier event at the same timestamp cancels a later one: the later
  // callback must not fire even though it was already due.
  Scheduler sched;
  std::vector<int> order;
  const Scheduler::Ticket victim = sched.post_at(5_ms, [&] { order.push_back(99); });
  sched.post_at(5_ms, [&] {
    order.push_back(0);
    sched.cancel(victim);
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
  Scheduler::Ticket victim2;
  sched2.post_at(5_ms, [&] {
    order.push_back(0);
    sched2.cancel(victim2);
  });
  victim2 = sched2.post_at(5_ms, [&] { order.push_back(99); });
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
    std::vector<Scheduler::Ticket> tickets;
    std::vector<int> order;
    for (int i = 0; i < 200; ++i) {
      const SimTime at = SimTime::microseconds(137 * i % 20'000);
      tickets.push_back(sched.post_at(at, [&order, i] { order.push_back(i); }));
    }
    for (std::size_t i = 0; i < tickets.size(); i += 3) sched.cancel(tickets[i]);
    // Events that cancel later ones while the run is under way.
    sched.post_at(7_ms, [&] {
      for (std::size_t i = 1; i < tickets.size(); i += 7) sched.cancel(tickets[i]);
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

// --- Randomized reference test ----------------------------------------------

/// The scheduler's contract as a plain sorted list: entries in (when, seq)
/// order, cancelled entries marked dead in place and discarded from the
/// front after every push and before every step.
class ReferenceModel {
 public:
  void push(SimTime when, int id) {
    const auto at = std::upper_bound(entries_.begin(), entries_.end(), when,
                                     [](SimTime t, const Entry& e) { return t < e.when; });
    entries_.insert(at, Entry{when, id, false});
    purge();
  }
  /// Marks `id` cancelled if it is still queued; no purge, as in the
  /// scheduler, where a cancel only marks.
  void cancel(int id) {
    for (Entry& e : entries_) {
      if (e.id == id) e.dead = true;
    }
  }
  [[nodiscard]] bool live(int id) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [id](const Entry& e) { return e.id == id && !e.dead; });
  }
  /// True while `id` holds a queue entry, cancelled or not.
  [[nodiscard]] bool queued(int id) const {
    return std::any_of(entries_.begin(), entries_.end(), [id](const Entry& e) { return e.id == id; });
  }
  /// Pops the next live entry and returns its id, or -1 when none is left.
  int step() {
    purge();
    if (entries_.empty()) return -1;
    const Entry e = entries_.front();
    entries_.erase(entries_.begin());
    now = e.when;
    ++executed;
    return e.id;
  }
  [[nodiscard]] std::size_t pending() const { return entries_.size(); }

  SimTime now{SimTime::zero()};
  std::uint64_t executed{0};
  std::uint64_t purged{0};

 private:
  struct Entry {
    SimTime when;
    int id;
    bool dead;
  };
  void purge() {
    while (!entries_.empty() && entries_.front().dead) {
      entries_.erase(entries_.begin());
      ++purged;
    }
  }
  std::vector<Entry> entries_;
};

/// Drives a Scheduler and the model with the same random operations, at the
/// top level and from inside callbacks: post_at with the ticket dropped or
/// kept, Scheduler::cancel, and Timer arm, re-arm, cancel and destruction,
/// at times drawn from now() + {0..3} ms so timestamps collide. Kept
/// tickets outlive their events, so cancel and pending meet stale tickets
/// whose slots already hold newer events.
class ReferenceHarness {
 public:
  static constexpr int kTimers = 4;

  explicit ReferenceHarness(std::uint32_t seed) : gen_{seed} {
    for (int k = 0; k < kTimers; ++k) make_timer(k);
  }

  void act() {
    for (unsigned n = pick(3); n > 0; --n) {
      switch (pick(6)) {
        case 0: {
          const int id = fresh_id(-1);
          const SimTime when = later();
          slot_event_[sched.post_at(when, [this, id] { fired_ = id; act(); }).slot] = id;
          model_.push(when, id);
          break;
        }
        case 1: {
          const int id = fresh_id(-1);
          const SimTime when = later();
          tickets_.emplace_back(sched.post_at(when, [this, id] { fired_ = id; act(); }), id);
          slot_event_[tickets_.back().first.slot] = id;
          model_.push(when, id);
          if (tickets_.size() > 16) tickets_.erase(tickets_.begin());
          break;
        }
        case 2:
          if (!tickets_.empty()) {
            const auto [ticket, id] = tickets_[pick(static_cast<unsigned>(tickets_.size()))];
            note_stale(ticket, id);
            sched.cancel(ticket);
            model_.cancel(id);
          }
          break;
        case 3: {  // arm or re-arm
          const int k = static_cast<int>(pick(kTimers));
          const int id = fresh_id(k);
          const SimTime when = later();
          timers_[k]->arm_at(when);
          armed_id_[k] = id;
          model_.cancel(timer_pending_[k]);
          model_.push(when, id);
          timer_pending_[k] = id;
          break;
        }
        case 4: {
          const int k = static_cast<int>(pick(kTimers));
          timers_[k]->cancel();
          model_.cancel(timer_pending_[k]);
          timer_pending_[k] = -1;
          break;
        }
        case 5: {
          const int k = static_cast<int>(pick(kTimers));
          if (k == running_timer_) break;  // a Timer must outlive its own callback
          model_.cancel(timer_pending_[k]);
          timer_pending_[k] = -1;
          make_timer(k);  // destroys the old timer first
          break;
        }
      }
    }
  }

  /// One step of both; compares everything the scheduler exposes.
  void step_and_compare(int i) {
    const int expected = model_.step();
    if (expected >= 0 && owner_[expected] >= 0) timer_pending_[owner_[expected]] = -1;
    fired_ = -1;
    ASSERT_EQ(sched.step(), expected >= 0) << "step " << i;
    ASSERT_EQ(fired_, expected) << "step " << i;
    ASSERT_EQ(sched.now(), model_.now) << "step " << i;
    ASSERT_EQ(sched.executed_events(), model_.executed) << "step " << i;
    ASSERT_EQ(sched.purged_events(), model_.purged) << "step " << i;
    ASSERT_EQ(sched.pending_events(), model_.pending()) << "step " << i;
    for (int k = 0; k < kTimers; ++k) {
      ASSERT_EQ(timers_[k]->armed(), timer_pending_[k] >= 0) << "step " << i << " timer " << k;
    }
    for (const auto& [ticket, id] : tickets_) {
      note_stale(ticket, id);
      ASSERT_EQ(sched.pending(ticket), model_.live(id)) << "step " << i << " event " << id;
    }
  }

  [[nodiscard]] std::uint64_t purged() const { return model_.purged; }
  [[nodiscard]] std::uint64_t timer_firings() const { return timer_firings_; }
  [[nodiscard]] std::uint64_t stale_hits() const { return stale_hits_; }

  Scheduler sched;  // declared before the timers, which must die first

 private:
  unsigned pick(unsigned n) { return static_cast<unsigned>(gen_() % n); }
  SimTime later() { return sched.now() + SimTime::milliseconds(pick(4)); }
  /// Counts a cancel or pending call with a stale ticket (its event ran or
  /// was discarded) whose slot holds a newer queued event.
  void note_stale(const Scheduler::Ticket& ticket, int id) {
    const auto it = slot_event_.find(ticket.slot);
    if (!model_.queued(id) && it != slot_event_.end() && it->second != id &&
        model_.queued(it->second)) {
      ++stale_hits_;
    }
  }
  int fresh_id(int timer) {
    owner_.push_back(timer);
    return static_cast<int>(owner_.size()) - 1;
  }
  void make_timer(int k) {
    timers_[k].reset();
    timers_[k] = std::make_unique<Timer>(sched, [this, k] {
      fired_ = armed_id_[k];
      ++timer_firings_;
      running_timer_ = k;
      act();
      running_timer_ = -1;
    });
  }

  std::mt19937 gen_;
  ReferenceModel model_;
  std::vector<int> owner_;  // per id: the timer it arms, or -1
  std::vector<std::pair<Scheduler::Ticket, int>> tickets_;
  std::map<const void*, int> slot_event_;  // per slot: the event last posted into it
  std::array<std::unique_ptr<Timer>, kTimers> timers_;
  std::array<int, kTimers> timer_pending_{-1, -1, -1, -1};  // the model's queued firing
  std::array<int, kTimers> armed_id_{-1, -1, -1, -1};  // the latest arming, which is what fires
  int running_timer_{-1};
  int fired_{-1};
  std::uint64_t timer_firings_{0};
  std::uint64_t stale_hits_{0};
};

TEST(SchedulerReference, RandomOperationsMatchASortedListModel) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    ReferenceHarness h{seed};
    for (int i = 0; i < 5000; ++i) {
      h.act();
      h.step_and_compare(i);
      if (::testing::Test::HasFatalFailure()) return;
    }
    // The mix reached every path it is meant to check.
    EXPECT_GT(h.purged(), 100u);
    EXPECT_GT(h.timer_firings(), 100u);
    EXPECT_GT(h.sched.executed_events(), 2000u);
    EXPECT_GT(h.stale_hits(), 1000u);
  }
}

// --- SmallFunction ----------------------------------------------------------

TEST(SmallFunction, TriviallyCopyableCaptureSurvivesMoves) {
  struct Add {
    int* total;
    int by;
    void operator()() const { *total += by; }
  };
  static_assert(std::is_trivially_copyable_v<Add>);
  int total = 0;
  SmallFunction a{Add{&total, 3}};
  SmallFunction b{std::move(a)};
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): a moved-from function is empty
  SmallFunction c{Add{&total, 100}};
  c = std::move(b);
  SmallFunction d;
  d = std::move(c);
  ASSERT_TRUE(d);
  d();
  d();
  EXPECT_EQ(total, 6);
}

/// A capture with a shared_ptr (so neither trivially copyable nor trivially
/// destructible) that counts its destructions and checks that every move
/// went through its move constructor.
struct Probe {
  std::shared_ptr<int> token;
  int* destroyed;
  const Probe* self{this};

  Probe(std::shared_ptr<int> t, int* d) : token{std::move(t)}, destroyed{d} {}
  Probe(Probe&& o) noexcept : token{std::move(o.token)}, destroyed{o.destroyed} {}
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (token) ++*destroyed;  // a moved-from probe owns nothing
  }
  void operator()() const {
    EXPECT_EQ(self, this) << "moved without its move constructor";
    ++*token;
  }
};

TEST(SmallFunction, NonTrivialCaptureIsDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(0);
  auto other = std::make_shared<int>(0);
  int destroyed = 0;
  {
    SmallFunction a{Probe{token, &destroyed}};
    EXPECT_EQ(token.use_count(), 2);
    SmallFunction b{std::move(a)};
    SmallFunction c;
    c = std::move(b);
    SmallFunction d{Probe{other, &destroyed}};
    d = std::move(c);  // assigning over a live capture destroys it
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(other.use_count(), 1);
    SmallFunction e{std::move(d)};
    e();
    EXPECT_EQ(*token, 1);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFunction, CaptureLargerThanTheBufferLivesOnTheHeap) {
  struct Big {
    std::array<std::uint64_t, 8> words;
    std::shared_ptr<int> token;
    void operator()() const { *token += static_cast<int>(words[7]); }
  };
  static_assert(sizeof(Big) > 48);
  auto token = std::make_shared<int>(0);
  {
    Big big{{}, token};
    big.words[7] = 5;
    SmallFunction a{std::move(big)};
    SmallFunction b{std::move(a)};
    SmallFunction c{[] {}};
    c = std::move(b);
    c();
    EXPECT_EQ(*token, 5);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SmallFunction, SchedulerRunsAndReleasesNonTrivialCaptures) {
  auto token = std::make_shared<int>(0);
  int destroyed = 0;
  {
    Scheduler sched;
    for (int i = 0; i < 300; ++i) {  // past one slot slab
      sched.post_at(SimTime::microseconds(300 - i), Probe{token, &destroyed});
    }
    sched.cancel(sched.post_at(1_ms, Probe{token, &destroyed}));
    sched.post_at(2_ms, Probe{token, &destroyed});  // still queued when the scheduler dies
    sched.run_until(1_ms);
    EXPECT_EQ(*token, 300);
    EXPECT_EQ(destroyed, 301);  // 300 run, 1 purged
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(destroyed, 302);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace rst::sim
