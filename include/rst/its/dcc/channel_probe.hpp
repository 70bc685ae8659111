#pragma once

#include <deque>
#include <functional>

#include "rst/dot11p/radio.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::its::dcc {


struct ChannelProbeConfig {
  sim::SimTime window{sim::SimTime::milliseconds(100)};
  /// Exponential smoothing factor applied to each new window sample:
  /// cbr = (1-alpha)*cbr + alpha*sample.
  double alpha{0.5};
};

/// Channel busy ratio probe (ETSI TS 102 687 / EN 302 663 §4.4): samples
/// the fraction of time the radio perceived the channel busy over fixed
/// measurement windows and exposes the smoothed CBR used by the DCC
/// algorithms.
class ChannelProbe {
 public:
  using Config = ChannelProbeConfig;

  using Listener = std::function<void(double cbr)>;

  ChannelProbe(sim::Scheduler& sched, const dot11p::Radio& radio, Config config = {});
  ChannelProbe(const ChannelProbe&) = delete;
  ChannelProbe& operator=(const ChannelProbe&) = delete;

  void start();

  /// Smoothed channel busy ratio in [0, 1].
  [[nodiscard]] double cbr() const { return cbr_; }
  /// Most recent raw window sample.
  [[nodiscard]] double last_sample() const { return last_sample_; }
  [[nodiscard]] std::uint64_t windows_measured() const { return windows_; }

  /// Invoked after every measurement window with the smoothed CBR.
  void set_listener(Listener listener) { listener_ = std::move(listener); }

 private:
  void sample();

  const dot11p::Radio& radio_;
  Config config_;
  sim::Timer timer_;
  sim::SimTime busy_at_window_start_{};
  double cbr_{0};
  double last_sample_{0};
  std::uint64_t windows_{0};
  Listener listener_;
};

}  // namespace rst::its::dcc
