#pragma once

#include <cstdint>
#include <memory>
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
/// `post_at`/`post_in` path skips handle-state allocation entirely.
/// Cancelled entries are purged eagerly whenever they surface at the top
/// of the heap, so cancel-heavy workloads (EDCA backoff, DCC gates, CBF
/// timers) do not accumulate dead entries ahead of live ones.
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
  /// deadline even if the queue still holds later events.
  std::size_t run_until(SimTime deadline);

  /// Executes exactly the next pending event (if any). Returns false when
  /// the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Cancelled entries discarded from the top of the heap so far.
  [[nodiscard]] std::uint64_t purged_events() const { return purged_; }

 private:
  /// Callback + handle state live out-of-line in recycled slots so the
  /// heap entries stay trivially copyable: sifting moves 24-byte PODs
  /// instead of invoking a callback-move per swap.
  struct Slot {
    Callback cb;
    std::shared_ptr<EventHandle::State> state;  // null on the post_* path
    Slot* next_free{nullptr};
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
  /// Pushes an entry; `state` may be null (fire-and-forget path).
  void push(SimTime when, Callback&& cb, std::shared_ptr<EventHandle::State> state);
  /// Discards cancelled entries at the front of the heap.
  void purge_cancelled_front();
  Slot* acquire_slot(Callback&& cb, std::shared_ptr<EventHandle::State>&& state);
  void release_slot(Slot* s) noexcept;

  std::vector<Entry> heap_;  // binary min-heap via std::push_heap/pop_heap
  std::uint64_t next_seq_{0};
  std::uint64_t purged_{0};
  std::vector<std::unique_ptr<Slot[]>> slot_slabs_;
  Slot* free_slots_{nullptr};
  /// Shared with every handle's control block so handles may outlive the
  /// scheduler.
  std::shared_ptr<detail::EventStatePool> pool_;
  SimTime now_{SimTime::zero()};
  std::uint64_t executed_{0};
};

}  // namespace rst::sim
