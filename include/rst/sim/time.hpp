#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace rst::sim {

/// Simulation time point / duration in integer nanoseconds.
///
/// A single strong type is used for both points and durations (as the
/// simulation origin is always t=0); arithmetic never overflows within
/// ~292 years of simulated time. All stack components express timing in
/// SimTime so there is exactly one clock domain in the event engine;
/// per-node wall clocks (NTP model) are layered on top in rst::middleware.
class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime nanoseconds(std::int64_t ns) { return SimTime{ns}; }
  [[nodiscard]] static constexpr SimTime microseconds(std::int64_t us) { return SimTime{us * 1'000}; }
  [[nodiscard]] static constexpr SimTime milliseconds(std::int64_t ms) { return SimTime{ms * 1'000'000}; }
  [[nodiscard]] static constexpr SimTime seconds(std::int64_t s) { return SimTime{s * 1'000'000'000}; }
  /// Fractional seconds, rounded to the nearest nanosecond.
  [[nodiscard]] static constexpr SimTime from_seconds(double s) {
    return SimTime{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static constexpr SimTime from_milliseconds(double ms) { return from_seconds(ms * 1e-3); }
  [[nodiscard]] static constexpr SimTime zero() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime max() { return SimTime{std::numeric_limits<std::int64_t>::max()}; }
  /// Largest |ms| that milliseconds() and from_milliseconds() convert
  /// without overflowing the nanosecond count.
  static constexpr std::int64_t kMaxMilliseconds = std::numeric_limits<std::int64_t>::max() / 1'000'000;

  [[nodiscard]] constexpr std::int64_t count_ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_milliseconds() const { return static_cast<double>(ns_) * 1e-6; }
  [[nodiscard]] constexpr double to_microseconds() const { return static_cast<double>(ns_) * 1e-3; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime& operator+=(SimTime o) { ns_ += o.ns_; return *this; }
  constexpr SimTime& operator-=(SimTime o) { ns_ -= o.ns_; return *this; }
  [[nodiscard]] constexpr SimTime operator-() const { return SimTime{-ns_}; }
  [[nodiscard]] friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime{a.ns_ + b.ns_}; }
  [[nodiscard]] friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime{a.ns_ - b.ns_}; }
  [[nodiscard]] friend constexpr SimTime operator*(SimTime a, std::int64_t k) { return SimTime{a.ns_ * k}; }
  [[nodiscard]] friend constexpr SimTime operator*(std::int64_t k, SimTime a) { return SimTime{a.ns_ * k}; }
  [[nodiscard]] friend constexpr std::int64_t operator/(SimTime a, SimTime b) { return a.ns_ / b.ns_; }
  [[nodiscard]] friend constexpr SimTime operator/(SimTime a, std::int64_t k) { return SimTime{a.ns_ / k}; }
  [[nodiscard]] friend constexpr SimTime operator%(SimTime a, SimTime b) { return SimTime{a.ns_ % b.ns_}; }

  /// "12.345ms"-style rendering used by traces and experiment reports.
  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_{0};
};

namespace literals {
constexpr SimTime operator""_ns(unsigned long long v) { return SimTime::nanoseconds(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_us(unsigned long long v) { return SimTime::microseconds(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_ms(unsigned long long v) { return SimTime::milliseconds(static_cast<std::int64_t>(v)); }
constexpr SimTime operator""_s(unsigned long long v) { return SimTime::seconds(static_cast<std::int64_t>(v)); }
}  // namespace literals

}  // namespace rst::sim
