#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rst/sim/small_function.hpp"
#include "rst/sim/time.hpp"
#include "rst/sim/trace_event.hpp"

namespace rst::sim {

/// In-memory event trace shared by all testbed components.
///
/// The paper instruments the physical testbed with NTP-synchronised
/// timestamps at each stage (Fig. 4 steps); the Trace plays the same role
/// here and is what the experiment harness mines for interval measurements.
///
/// Every record is a typed POD event (`record_event` / `span_begin` /
/// `span_end`) appended to a buffer of at most `set_event_capacity` events.
/// The first recorded event reserves min(capacity, 16384) events; at the
/// default capacity that is one allocation, then none. A larger capacity
/// doubles the buffer as it fills, so growth past 16,384 events moves it.
/// When the buffer is full new events are counted in `events_dropped()` and
/// discarded, so the earliest (pipeline-critical) stages are always kept.
class Trace {
 public:
  /// Records a typed instant event. Allocation-free at steady state.
  void record_event(SimTime when, Stage stage, std::uint32_t station = 0, std::uint64_t a = 0,
                    double value = 0.0, std::uint16_t detail = 0) {
    push_event(when, stage, Phase::Instant, station, a, value, detail);
  }
  /// Span-style stage markers: begin/end pairs matched by (stage, a); the
  /// Chrome exporter renders them as async duration events.
  void span_begin(SimTime when, Stage stage, std::uint32_t station = 0, std::uint64_t a = 0,
                  double value = 0.0, std::uint16_t detail = 0) {
    push_event(when, stage, Phase::Begin, station, a, value, detail);
  }
  void span_end(SimTime when, Stage stage, std::uint32_t station = 0, std::uint64_t a = 0,
                double value = 0.0, std::uint16_t detail = 0) {
    push_event(when, stage, Phase::End, station, a, value, detail);
  }

  /// Typed events in recording order (the mining surface for the
  /// experiment harness — no strings, no substring matching). Recording may
  /// move the buffer, so hold an index, not a reference or pointer, across
  /// a record.
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// First event of `stage` at or after `from`; nullptr if none. The pointer
  /// is valid until the next record (which may move the buffer).
  [[nodiscard]] const TraceEvent* find_event(Stage stage, SimTime from = SimTime::zero()) const;
  /// As above, additionally filtered on the emitting station.
  [[nodiscard]] const TraceEvent* find_event(Stage stage, SimTime from,
                                             std::uint32_t station) const;

  /// Events discarded because the buffer was at capacity.
  [[nodiscard]] std::uint64_t events_dropped() const { return events_dropped_; }
  /// Sets the most events kept (default 16,384); later ones are dropped.
  /// The buffer reserves up to 16,384 events on first use and doubles up to
  /// the capacity from there.
  void set_event_capacity(std::size_t capacity) { event_capacity_ = capacity; }

  /// Chrome trace_event-format JSON (the "JSON Object Format" with a
  /// traceEvents array): open in Perfetto or chrome://tracing. Instants
  /// become "i" events and span begin/end pairs become async "b"/"e" events
  /// matched by id. Timestamps are microseconds.
  [[nodiscard]] std::string to_chrome_trace_json() const;

  void clear();

  /// Calls `watch` after each kept event of `stage` (never for one dropped
  /// at capacity), while the event is the last in `events()`. One watch at
  /// a time (the trial supervision's); an empty function clears it.
  void set_stage_watch(Stage stage, SmallFunction watch) {
    watch_stage_ = stage;
    watch_ = std::move(watch);
  }
  [[nodiscard]] bool has_stage_watch() const { return static_cast<bool>(watch_); }

  /// Echo each event to stderr as it is recorded (useful in examples): one
  /// line of time, stage name, phase (i/b/e), station, a, value and detail.
  void set_echo(bool on) { echo_ = on; }

 private:
  void push_event(SimTime when, Stage stage, Phase phase, std::uint32_t station, std::uint64_t a,
                  double value, std::uint16_t detail);

  static constexpr std::size_t kDefaultCapacity = 16384;

  std::vector<TraceEvent> events_;
  std::size_t event_capacity_{kDefaultCapacity};
  std::uint64_t events_dropped_{0};
  bool echo_{false};
  Stage watch_stage_{};
  SmallFunction watch_;
};

}  // namespace rst::sim
