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
  s->cancelled = false;
  ++s->generation;
  s->next_free = free_slots_;
  free_slots_ = s;
}

void Scheduler::check_not_past(SimTime when) const {
  if (when < now_) throw std::invalid_argument{"Scheduler::post_at: time in the past"};
}

void Scheduler::push(SimTime when, Slot* slot) {
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  purge_cancelled_front();  // keep dead entries from lingering ahead of live ones
}

void Scheduler::purge_dead_front() {
  while (!heap_.empty()) {
    Slot* s = heap_.front().slot;
    if (!s->cancelled) break;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    s->cb = Callback{};
    release_slot(s);
    --dead_queued_;
    ++purged_;
  }
}

Scheduler::Ticket Scheduler::enqueue(SimTime when, Callback& cb) {
  check_not_past(when);
  Slot* s = acquire_slot();
  s->cb = std::move(cb);
  push(when, s);
  return Ticket{s, s->generation};
}

Scheduler::Ticket Scheduler::post_at(SimTime when, Callback cb) { return enqueue(when, cb); }

Scheduler::Ticket Scheduler::post_in(SimTime delay, Callback cb) {
  return enqueue(now_ + delay, cb);
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
  // reschedules can reuse it immediately and the event's tickets read as
  // no longer pending inside the callback.
  if (Timer* t = s->timer) {
    release_slot(s);
    t->pending_ = nullptr;  // a re-arm from the callback may take this slot
    t->cb_();
    return true;
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
