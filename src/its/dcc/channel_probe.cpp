#include "rst/its/dcc/channel_probe.hpp"

#include <algorithm>

namespace rst::its::dcc {

ChannelProbe::ChannelProbe(sim::Scheduler& sched, const dot11p::Radio& radio, Config config)
    : radio_{radio}, config_{config}, timer_{sched, [this] { sample(); }} {}

void ChannelProbe::start() {
  if (timer_.armed()) return;
  busy_at_window_start_ = radio_.cumulative_busy_time();
  timer_.arm_in(config_.window);
}

void ChannelProbe::sample() {
  const sim::SimTime busy_now = radio_.cumulative_busy_time();
  const double busy_fraction =
      static_cast<double>((busy_now - busy_at_window_start_).count_ns()) /
      static_cast<double>(config_.window.count_ns());
  busy_at_window_start_ = busy_now;
  last_sample_ = std::clamp(busy_fraction, 0.0, 1.0);
  ++windows_;
  cbr_ = windows_ == 1 ? last_sample_ : (1.0 - config_.alpha) * cbr_ + config_.alpha * last_sample_;
  if (listener_) listener_(cbr_);
  timer_.arm_in(config_.window);
}

}  // namespace rst::its::dcc
