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

Scheduler::Slot* Scheduler::acquire_slot(Callback&& cb,
                                         std::shared_ptr<EventHandle::State>&& state) {
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
  s->cb = std::move(cb);
  s->state = std::move(state);
  return s;
}

void Scheduler::release_slot(Slot* s) noexcept {
  s->cb = Callback{};
  s->state.reset();
  s->next_free = free_slots_;
  free_slots_ = s;
}

void Scheduler::check_not_past(SimTime when) const {
  if (when < now_) throw std::invalid_argument{"Scheduler::schedule_at: time in the past"};
}

void Scheduler::push(SimTime when, Callback&& cb, std::shared_ptr<EventHandle::State> state) {
  Slot* slot = acquire_slot(std::move(cb), std::move(state));
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  purge_cancelled_front();  // keep dead entries from lingering ahead of live ones
}

void Scheduler::purge_cancelled_front() {
  while (!heap_.empty()) {
    Slot* s = heap_.front().slot;
    if (!s->state || !s->state->cancelled) break;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    release_slot(s);
    ++purged_;
  }
}

EventHandle Scheduler::schedule_at(SimTime when, Callback cb) {
  auto state = std::allocate_shared<EventHandle::State>(
      detail::PoolAllocator<EventHandle::State>{pool_});
  check_not_past(when);
  push(when, std::move(cb), state);
  return EventHandle{std::move(state)};
}

EventHandle Scheduler::schedule_in(SimTime delay, Callback cb) {
  return schedule_at(now_ + delay, std::move(cb));
}

void Scheduler::post_at(SimTime when, Callback cb) {
  check_not_past(when);
  push(when, std::move(cb), nullptr);
}

void Scheduler::post_in(SimTime delay, Callback cb) {
  check_not_past(now_ + delay);
  push(now_ + delay, std::move(cb), nullptr);
}

bool Scheduler::step() {
  purge_cancelled_front();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  Slot* s = entry.slot;
  if (s->state) s->state->fired = true;
  // Move the callback out and recycle the slot before invoking, so a
  // callback that reschedules can reuse it immediately.
  Callback cb = std::move(s->cb);
  release_slot(s);
  now_ = entry.when;
  ++executed_;
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
    if (heap_.empty() || heap_.front().when > deadline) break;
    step();  // the front is live here, so step() pops it without rescanning
    ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace rst::sim
