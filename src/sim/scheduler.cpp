#include "rst/sim/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace rst::sim {

std::string SimTime::to_string() const {
  char buf[64];
  const double ms = to_milliseconds();
  std::snprintf(buf, sizeof buf, "%.3fms", ms);
  return buf;
}

namespace detail {

void* EventStatePool::allocate(std::size_t n) {
  // Round up so recycled nodes can hold the free-list link and stay
  // suitably aligned for the shared_ptr control block they back.
  const std::size_t want =
      (std::max(n, sizeof(Node)) + alignof(std::max_align_t) - 1) &
      ~(alignof(std::max_align_t) - 1);
  if (node_size_ == 0) node_size_ = want;
  if (want > node_size_) return ::operator new(n);  // unexpected size: bypass
  if (!free_) {
    auto slab = std::make_unique<std::byte[]>(node_size_ * kSlabNodes);
    std::byte* base = slab.get();
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
      auto* node = reinterpret_cast<Node*>(base + i * node_size_);
      node->next = free_;
      free_ = node;
    }
    slabs_.push_back(std::move(slab));
  }
  Node* node = free_;
  free_ = node->next;
  return node;
}

void EventStatePool::deallocate(void* p, std::size_t n) noexcept {
  const std::size_t want =
      (std::max(n, sizeof(Node)) + alignof(std::max_align_t) - 1) &
      ~(alignof(std::max_align_t) - 1);
  if (want > node_size_) {
    ::operator delete(p);
    return;
  }
  auto* node = static_cast<Node*>(p);
  node->next = free_;
  free_ = node;
}

}  // namespace detail

void EventHandle::cancel() {
  if (state_) state_->cancelled = true;
}

bool EventHandle::pending() const { return state_ && !state_->cancelled && !state_->fired; }

Scheduler::Scheduler() : pool_{std::make_shared<detail::EventStatePool>()} {}

Scheduler::Slot* Scheduler::acquire_slot() {
  if (!free_slots_) {
    auto slab = std::make_unique<Slot[]>(kSlotSlab);
    for (std::size_t i = 0; i < kSlotSlab; ++i) {
      slab[i].next_free = free_slots_;
      free_slots_ = &slab[i];
    }
    slot_slabs_.push_back(std::move(slab));
  }
  Slot* s = free_slots_;
  free_slots_ = s->next_free;
  return s;
}

void Scheduler::release_slot(Slot* s) noexcept {
  s->timer = nullptr;
  s->state.reset();
  s->cancelled = false;
  s->next_free = free_slots_;
  free_slots_ = s;
}

void Scheduler::check_not_past(SimTime when) const {
  if (when < now_) throw std::invalid_argument{"Scheduler::schedule_at: time in the past"};
}

void Scheduler::push(SimTime when, Slot* slot) {
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  purge_cancelled_front();  // keep dead entries from lingering ahead of live ones
}

void Scheduler::purge_dead_front() {
  while (!heap_.empty()) {
    Slot* s = heap_.front().slot;
    if (!s->cancelled && (!s->state || !s->state->cancelled)) break;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    s->cb = Callback{};
    release_slot(s);
    --maybe_dead_;
    ++purged_;
  }
}

EventHandle Scheduler::schedule_at(SimTime when, Callback cb) {
  auto state = std::allocate_shared<EventHandle::State>(
      detail::PoolAllocator<EventHandle::State>{pool_});
  check_not_past(when);
  Slot* s = acquire_slot();
  s->cb = std::move(cb);
  s->state = state;
  ++maybe_dead_;
  push(when, s);
  return EventHandle{std::move(state)};
}

EventHandle Scheduler::schedule_in(SimTime delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::post_at(SimTime when, Callback cb) {
  check_not_past(when);
  Slot* s = acquire_slot();
  s->cb = std::move(cb);
  push(when, s);
}

void Scheduler::post_in(SimTime delay, Callback cb) {
  check_not_past(now_ + delay);
  Slot* s = acquire_slot();
  s->cb = std::move(cb);
  push(now_ + delay, s);
}

bool Scheduler::step() {
  purge_cancelled_front();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  Slot* s = entry.slot;
  now_ = entry.when;
  ++executed_;
  // Recycle the slot before running its event, so an event that
  // reschedules can reuse it immediately.
  if (Timer* t = s->timer) {
    release_slot(s);
    t->pending_ = nullptr;  // a re-arm from the callback may take this slot
    t->cb_();
    return true;
  }
  if (s->state) {
    s->state->fired = true;
    --maybe_dead_;
  }
  Callback cb = std::move(s->cb);
  release_slot(s);
  cb();
  return true;
}

std::size_t Scheduler::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  std::size_t n = 0;
  for (;;) {
    purge_cancelled_front();
    // Re-read per event: a callback may request a stop.
    if (heap_.empty() || heap_.front().when > std::min(deadline, stop_)) break;
    step();  // the front is live here, so step() pops it without rescanning
    ++n;
  }
  const SimTime end = std::min(deadline, stop_);
  stop_ = SimTime::max();
  if (now_ < end) now_ = end;
  return n;
}

void Scheduler::stop_at(SimTime when) {
  if (when < now_) throw std::invalid_argument{"Scheduler::stop_at: time in the past"};
  stop_ = std::min(stop_, when);
}

void Timer::arm_at(SimTime when) {
  sched_.check_not_past(when);  // before cancelling, so a rejected time keeps the firing
  cancel();
  Scheduler::Slot* s = sched_.acquire_slot();
  s->timer = this;
  sched_.push(when, s);
  pending_ = s;
}

}  // namespace rst::sim
