#include "rst/its/dcc/adaptive_dcc.hpp"

#include <algorithm>

namespace rst::its::dcc {

AdaptiveDcc::AdaptiveDcc(sim::Scheduler& sched, dot11p::Radio& radio, ChannelProbe& probe,
                         Config config, sim::Trace* trace)
    : sched_{sched},
      radio_{radio},
      config_{config},
      trace_{trace},
      rate_hz_{config.rate_max_hz},
      gate_timer_{sched, [this] { try_dequeue(); }} {
  probe.set_listener([this](double cbr) { on_channel_load(cbr); });
}

void AdaptiveDcc::on_channel_load(double cbr) {
  ++stats_.rate_updates;
  // LIMERIC linear update: additive step towards the target, bounded by a
  // multiplicative fraction of the current rate so convergence is smooth
  // and the fixed point is rate-fair across stations.
  const double error = config_.target_cbr - cbr;
  double step = config_.alpha * error * config_.rate_max_hz;
  const double bound = config_.beta * rate_hz_ + 0.01;
  step = std::clamp(step, -bound * 8.0, bound * 8.0);
  rate_hz_ = std::clamp(rate_hz_ + step, config_.rate_min_hz, config_.rate_max_hz);
}

void AdaptiveDcc::send(dot11p::Frame frame) {
  const sim::SimTime now = sched_.now();
  if (now - last_tx_ >= current_min_gap() && queue_.empty()) {
    last_tx_ = now;
    ++stats_.passed;
    radio_.send(std::move(frame));
    return;
  }
  if (queue_.size() >= config_.queue_capacity) {
    queue_.pop_front();
    ++stats_.dropped_queue_full;
  }
  queue_.push_back({std::move(frame), now});
  ++stats_.queued;
  if (!gate_timer_.armed()) gate_timer_.arm_at(std::max(last_tx_ + current_min_gap(), now));
}

void AdaptiveDcc::try_dequeue() {
  const sim::SimTime now = sched_.now();
  while (!queue_.empty() && now - queue_.front().enqueued > config_.queued_packet_lifetime) {
    queue_.pop_front();
    ++stats_.dropped_expired;
  }
  if (!queue_.empty() && now - last_tx_ >= current_min_gap()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    last_tx_ = now;
    ++stats_.passed;
    radio_.send(std::move(p.frame));
  }
  if (!queue_.empty()) gate_timer_.arm_at(last_tx_ + current_min_gap());
}

}  // namespace rst::its::dcc
