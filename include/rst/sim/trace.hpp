#pragma once

#include <cstdint>
#include <string>
#include <vector>

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
/// `span_end`) written into a pre-sized ring buffer: one allocation the
/// first time an event is recorded (the buffer), zero thereafter. When the
/// buffer is full new events are counted in `events_dropped()` and
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
  /// experiment harness — no strings, no substring matching).
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// First event of `stage` at or after `from`; nullptr if none.
  [[nodiscard]] const TraceEvent* find_event(Stage stage, SimTime from = SimTime::zero()) const;
  /// As above, additionally filtered on the emitting station.
  [[nodiscard]] const TraceEvent* find_event(Stage stage, SimTime from,
                                             std::uint32_t station) const;

  /// Events discarded because the ring buffer was full.
  [[nodiscard]] std::uint64_t events_dropped() const { return events_dropped_; }
  /// Resizes the typed buffer capacity. Only effective before the first
  /// recorded event (the buffer is allocated once, on first use).
  void set_event_capacity(std::size_t capacity) { event_capacity_ = capacity; }

  /// Chrome trace_event-format JSON (the "JSON Object Format" with a
  /// traceEvents array): open in Perfetto or chrome://tracing. Instants
  /// become "i" events and span begin/end pairs become async "b"/"e" events
  /// matched by id. Timestamps are microseconds.
  [[nodiscard]] std::string to_chrome_trace_json() const;

  void clear();

  /// Echo each event to stderr as it is recorded (useful in examples): one
  /// line of time, stage name, phase (i/b/e), station, a, value and detail.
  void set_echo(bool on) { echo_ = on; }

 private:
  void push_event(SimTime when, Stage stage, Phase phase, std::uint32_t station, std::uint64_t a,
                  double value, std::uint16_t detail);

  std::vector<TraceEvent> events_;
  std::size_t event_capacity_{16384};
  std::uint64_t events_dropped_{0};
  bool echo_{false};
};

}  // namespace rst::sim
