#pragma once

#include <string>

#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::middleware {

struct NtpClockConfig {
  /// Initial offset before the first sync.
  sim::SimTime initial_offset{sim::SimTime::milliseconds(0)};
  /// Clock frequency error in parts-per-million.
  double drift_ppm{5.0};
  /// Residual offset sigma after each successful sync.
  sim::SimTime sync_error_sigma{sim::SimTime::microseconds(300)};
  sim::SimTime sync_interval{sim::SimTime::seconds(16)};
  bool enable_sync{true};
};

/// Per-node wall clock disciplined by NTP.
///
/// The paper's measurement methodology relies on all platforms being
/// "connected to a Network Time Protocol server to reliably collect
/// timestamps". Each node's clock has an intrinsic frequency error
/// (drift) and an offset; periodic synchronisation pulls the offset back
/// to a residual error determined by the LAN's delay asymmetry. Interval
/// measurements taken across two nodes therefore carry a realistic
/// sync-error component, exactly as the testbed's do.
class NtpClock {
 public:
  using Config = NtpClockConfig;

  NtpClock(sim::Scheduler& sched, sim::RandomStream rng, const std::string& name,
           Config config = {});
  NtpClock(const NtpClock&) = delete;
  NtpClock& operator=(const NtpClock&) = delete;

  /// Local wall-clock reading: true time + current offset.
  [[nodiscard]] sim::SimTime now_wall() const;
  /// Current clock error relative to true (simulation) time.
  [[nodiscard]] sim::SimTime offset() const;

  /// Forces a synchronisation now (also scheduled periodically).
  void sync();

  [[nodiscard]] std::uint64_t sync_count() const { return sync_count_; }

 private:
  void schedule_sync();

  sim::Scheduler& sched_;
  sim::RandomStream rng_;
  Config config_;
  sim::SimTime offset_at_ref_;
  sim::SimTime ref_time_;
  sim::Timer sync_timer_;
  std::uint64_t sync_count_{0};
};

}  // namespace rst::middleware
