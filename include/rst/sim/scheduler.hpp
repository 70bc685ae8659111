#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rst/sim/small_function.hpp"
#include "rst/sim/time.hpp"

namespace rst::sim {

class Timer;

/// Deterministic discrete-event scheduler.
///
/// Events at equal timestamps fire in scheduling order (FIFO), which makes
/// whole-testbed runs bit-reproducible for a given seed. All components of
/// the testbed share one Scheduler; it is the single source of "now".
///
/// Hot-path design: callbacks are stored in a small-buffer-optimized
/// move-only wrapper (no heap allocation for typical captures) inside
/// recycled slots. One cancel mechanism serves every event: `cancel(Ticket)`
/// and `Timer::cancel` mark the event's slot. A `Timer` firing queues the
/// timer itself, and `step()` calls its bound callback directly. Cancelled
/// entries are purged eagerly whenever they surface at the top of the heap,
/// so cancel-heavy workloads (EDCA backoff, DCC gates, CBF timers) do not
/// accumulate dead entries ahead of live ones; while no queued entry is
/// cancelled, the purge check is skipped.
class Scheduler {
  struct Slot;

 public:
  using Callback = SmallFunction;

  /// Names one posted event for `cancel` and `pending`. Trivially
  /// copyable; a default ticket names nothing. The ticket goes stale once
  /// its event fires or is discarded, even when a newer event reuses the
  /// slot. Lifetime rule: do not use a ticket after its Scheduler is gone.
  struct Ticket {
    Slot* slot{nullptr};
    std::uint64_t generation{0};
  };

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `when`; `when` must be >= now().
  /// Callers that never cancel the event ignore the ticket.
  Ticket post_at(SimTime when, Callback cb);
  /// Schedules `cb` after relative `delay` (>= 0).
  Ticket post_in(SimTime delay, Callback cb);

  /// Cancels the event if it is still pending. Idempotent; a stale or
  /// default ticket is ignored.
  void cancel(Ticket t) {
    if (pending(t)) mark_dead(t.slot);
  }
  /// True while the event is queued and not cancelled (false inside its
  /// own callback).
  [[nodiscard]] bool pending(Ticket t) const {
    return t.slot != nullptr && t.slot->generation == t.generation && !t.slot->cancelled;
  }

  /// Runs events until the queue is empty or `limit` events ran.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Runs all events with time <= deadline, then advances now() to
  /// deadline even if the queue still holds later events. A stop request
  /// (`stop_at`) ends the run early, at the stop instant instead.
  std::size_t run_until(SimTime deadline);

  /// Requests that the running (or, from outside one, the next) run_until
  /// return once every event at or before `when` has run, including events
  /// posted at `when` by those events, with now() == `when`. The earliest
  /// of several requests wins; a stop later than the deadline returns at
  /// the deadline. run_until consumes the request when it returns. `when`
  /// must be >= now().
  void stop_at(SimTime when);
  /// True while a stop request waits for its run_until.
  [[nodiscard]] bool stop_requested() const { return stop_ != SimTime::max(); }

  /// Executes exactly the next pending event (if any). Returns false when
  /// the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Cancelled entries discarded from the top of the heap so far.
  [[nodiscard]] std::uint64_t purged_events() const { return purged_; }

 private:
  friend class Timer;

  /// Callbacks live out-of-line in recycled slots so the heap entries
  /// stay trivially copyable: sifting moves 24-byte PODs instead of
  /// invoking a callback-move per swap.
  struct Slot {
    Callback cb;  // empty on the Timer path
    Timer* timer{nullptr};  // a Timer's firing: step() runs the timer's own callback
    Slot* next_free{nullptr};
    std::uint64_t generation{0};  // bumped on release, which stales the event's tickets
    bool cancelled{false};  // set by mark_dead; purged when it reaches the front
  };
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    Slot* slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  static constexpr std::size_t kSlotSlab = 128;

  void check_not_past(SimTime when) const;
  /// Takes a blank slot from the free list for the caller to fill.
  Slot* acquire_slot();
  /// Returns a slot whose callback is empty (run or destroyed) to the list.
  void release_slot(Slot* s) noexcept;
  /// Queues a filled slot at `when`; the slot is live, so it stays queued.
  void push(SimTime when, Slot* slot);
  /// The body of post_at and post_in. Taking `cb` by reference keeps
  /// post_in from moving the callback once more on its way to the slot.
  Ticket enqueue(SimTime when, Callback& cb);
  /// Marks a queued, live slot cancelled; the purge discards it later.
  void mark_dead(Slot* s) {
    s->cancelled = true;
    ++dead_queued_;
  }
  /// Discards cancelled entries at the front of the heap; with none queued
  /// there is nothing to scan.
  void purge_cancelled_front() {
    if (dead_queued_ != 0) purge_dead_front();
  }
  void purge_dead_front();

  std::vector<Entry> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::uint64_t next_seq_{0};
  std::uint64_t purged_{0};
  std::size_t dead_queued_{0};  // queued entries marked by mark_dead
  std::vector<std::unique_ptr<Slot[]>> slot_slabs_;
  Slot* free_slots_{nullptr};
  SimTime now_{SimTime::zero()};
  SimTime stop_{SimTime::max()};  // pending stop_at instant; max() when none
  std::uint64_t executed_{0};
};

/// A component's own periodic or one-shot event. The callback is bound
/// once; arming replaces any pending firing, so a component re-arms from
/// inside its callback to keep a cadence. Destroying the timer cancels it:
/// the callback never runs after its owner is gone. The scheduled event
/// refers to the timer, so it is neither copyable nor movable.
///
/// A re-arm costs one slot and one heap push: the slot points back at the
/// timer, so no callback is moved, and the timer keeps a pointer to its
/// pending slot and cancels by marking it, as `Scheduler::cancel` does.
/// Lifetime rule: destroy a Timer before its Scheduler, since cancelling
/// writes into the scheduler's slots. Owners get this by declaring the
/// scheduler before the components.
class Timer {
 public:
  Timer(Scheduler& sched, Scheduler::Callback cb) : sched_{sched}, cb_{std::move(cb)} {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  /// Fires the callback at absolute time `when` (>= now()). A time in the
  /// past throws std::invalid_argument and keeps any pending firing.
  void arm_at(SimTime when);
  /// Fires the callback after `delay` (>= 0).
  void arm_in(SimTime delay) { arm_at(sched_.now() + delay); }
  void cancel() {
    if (pending_) {
      sched_.mark_dead(pending_);
      pending_ = nullptr;
    }
  }
  /// True while a firing is pending (false inside the callback itself).
  [[nodiscard]] bool armed() const { return pending_ != nullptr; }

 private:
  friend class Scheduler;

  Scheduler& sched_;
  Scheduler::Callback cb_;
  Scheduler::Slot* pending_{nullptr};  // slot of the queued firing, if any
};

}  // namespace rst::sim
