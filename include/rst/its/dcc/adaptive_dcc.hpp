#pragma once

#include <deque>

#include "rst/dot11p/frame.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/its/dcc/channel_probe.hpp"
#include "rst/sim/trace.hpp"

namespace rst::its::dcc {

struct AdaptiveDccConfig {
  /// Target channel busy ratio the population converges to (TS 102 687
  /// adaptive approach; LIMERIC's delta_target).
  double target_cbr{0.68};
  /// Linear convergence gains: r += alpha * (target - cbr) * r_max bounded
  /// by beta * r (LIMERIC's alpha/beta).
  double alpha{0.016};
  double beta{0.0012};
  /// Message rate bounds in Hz.
  double rate_min_hz{0.75};
  double rate_max_hz{25.0};
  std::size_t queue_capacity{8};
  sim::SimTime queued_packet_lifetime{sim::SimTime::milliseconds(750)};
};

/// Adaptive DCC (TS 102 687 §5.4 / LIMERIC): instead of a state table,
/// every station runs a linear controller on its own message rate so the
/// aggregate channel load converges to the target CBR, with equal rates at
/// the fixed point (fairness by construction).
class AdaptiveDcc {
 public:
  using Config = AdaptiveDccConfig;

  AdaptiveDcc(sim::Scheduler& sched, dot11p::Radio& radio, ChannelProbe& probe,
              Config config = {}, sim::Trace* trace = nullptr);
  AdaptiveDcc(const AdaptiveDcc&) = delete;
  AdaptiveDcc& operator=(const AdaptiveDcc&) = delete;

  /// Submits a frame; sent when the rate-derived gate allows.
  void send(dot11p::Frame frame);

  /// Channel-load feed (wired to the probe; public for tests).
  void on_channel_load(double cbr);

  [[nodiscard]] double rate_hz() const { return rate_hz_; }
  [[nodiscard]] sim::SimTime current_min_gap() const {
    return sim::SimTime::from_seconds(1.0 / rate_hz_);
  }

  struct Stats {
    std::uint64_t passed{0};
    std::uint64_t queued{0};
    std::uint64_t dropped_queue_full{0};
    std::uint64_t dropped_expired{0};
    std::uint64_t rate_updates{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

 private:
  struct Pending {
    dot11p::Frame frame;
    sim::SimTime enqueued;
  };

  void try_dequeue();

  sim::Scheduler& sched_;
  dot11p::Radio& radio_;
  Config config_;
  sim::Trace* trace_;

  double rate_hz_;
  sim::SimTime last_tx_{-sim::SimTime::seconds(1)};
  std::deque<Pending> queue_;
  sim::Timer gate_timer_;
  Stats stats_;
};

}  // namespace rst::its::dcc
