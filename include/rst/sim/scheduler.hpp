#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "rst/sim/small_function.hpp"
#include "rst/sim/time.hpp"

namespace rst::sim {

namespace detail {

/// Free-list slab pool for event-handle state blocks. Nodes are recycled
/// instead of returned to the heap, so steady-state scheduling performs no
/// allocations once the pool is warm. The pool itself is owned via
/// `std::shared_ptr` by both the Scheduler and every allocator copy stored
/// in an outstanding control block, so handles may outlive the scheduler.
class EventStatePool {
 public:
  EventStatePool() = default;
  EventStatePool(const EventStatePool&) = delete;
  EventStatePool& operator=(const EventStatePool&) = delete;

  void* allocate(std::size_t n);
  void deallocate(void* p, std::size_t n) noexcept;

 private:
  struct Node {
    Node* next;
  };
  static constexpr std::size_t kSlabNodes = 256;

  std::size_t node_size_{0};  // fixed by the first allocation
  Node* free_{nullptr};
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
};

template <typename T>
struct PoolAllocator {
  using value_type = T;

  std::shared_ptr<EventStatePool> pool;

  explicit PoolAllocator(std::shared_ptr<EventStatePool> p) : pool{std::move(p)} {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& o) : pool{o.pool} {}  // NOLINT

  T* allocate(std::size_t n) { return static_cast<T*>(pool->allocate(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { pool->deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>& o) const {
    return pool == o.pool;
  }
};

}  // namespace detail

class Timer;

/// Handle to a scheduled event; allows cancellation. Copyable; all copies
/// refer to the same pending event. A default-constructed handle is inert.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void cancel();
  /// True if the event is still queued (not fired, not cancelled).
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  struct State {
    bool cancelled{false};
    bool fired{false};
  };
  explicit EventHandle(std::shared_ptr<State> s) : state_{std::move(s)} {}
  std::shared_ptr<State> state_;
};

/// Deterministic discrete-event scheduler.
///
/// Events at equal timestamps fire in scheduling order (FIFO), which makes
/// whole-testbed runs bit-reproducible for a given seed. All components of
/// the testbed share one Scheduler; it is the single source of "now".
///
/// Hot-path design: callbacks are stored in a small-buffer-optimized
/// move-only wrapper (no heap allocation for typical captures), handle
/// state comes from a recycling slab pool, and the fire-and-forget
/// `post_at`/`post_in` path and `Timer` skip handle state entirely. A
/// `Timer` firing queues the timer itself, and `step()` calls its bound
/// callback directly. Cancelled entries are purged eagerly whenever they
/// surface at the top of the heap, so cancel-heavy workloads (EDCA backoff,
/// DCC gates, CBF timers) do not accumulate dead entries ahead of live
/// ones; while no queued entry can be cancelled, the purge check is skipped.
class Scheduler {
 public:
  using Callback = SmallFunction;

  Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `when`; `when` must be >= now().
  EventHandle schedule_at(SimTime when, Callback cb);
  /// Schedules `cb` after relative `delay` (>= 0).
  EventHandle schedule_in(SimTime delay, Callback cb);

  /// Fire-and-forget variants: no EventHandle is produced, so no handle
  /// state is allocated. Use when the caller never cancels the event.
  void post_at(SimTime when, Callback cb);
  void post_in(SimTime delay, Callback cb);

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

  /// Callback + handle state live out-of-line in recycled slots so the
  /// heap entries stay trivially copyable: sifting moves 24-byte PODs
  /// instead of invoking a callback-move per swap.
  struct Slot {
    Callback cb;  // empty on the Timer path
    Timer* timer{nullptr};  // a Timer's firing: step() runs the timer's own callback
    std::shared_ptr<EventHandle::State> state;  // null on the post_* and Timer paths
    Slot* next_free{nullptr};
    bool cancelled{false};  // set by Timer::cancel; purged like a cancelled handle
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
  /// Discards cancelled entries at the front of the heap. Only counted
  /// entries can be cancelled, so with none queued there is nothing to scan.
  void purge_cancelled_front() {
    if (maybe_dead_ != 0) purge_dead_front();
  }
  void purge_dead_front();

  std::vector<Entry> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::uint64_t next_seq_{0};
  std::uint64_t purged_{0};
  /// Queued entries that may be dead: Timer firings marked by
  /// Timer::cancel, plus every entry that carries handle state (an
  /// EventHandle cancels without telling the scheduler).
  std::size_t maybe_dead_{0};
  std::vector<std::unique_ptr<Slot[]>> slot_slabs_;
  Slot* free_slots_{nullptr};
  /// Shared with every handle's control block so handles may outlive the
  /// scheduler.
  std::shared_ptr<detail::EventStatePool> pool_;
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
/// pending slot and cancels by marking it, so no handle state is built.
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
      pending_->cancelled = true;
      ++sched_.maybe_dead_;
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
