#include "rst/its/dcc/reactive_dcc.hpp"

namespace rst::its::dcc {

const std::array<DccStateParams, 5>& default_dcc_table() {
  using sim::SimTime;
  static const std::array<DccStateParams, 5> kTable{{
      {0.00, SimTime::milliseconds(60)},   // Relaxed
      {0.30, SimTime::milliseconds(100)},  // Active1
      {0.40, SimTime::milliseconds(180)},  // Active2
      {0.50, SimTime::milliseconds(250)},  // Active3
      {0.60, SimTime::milliseconds(460)},  // Restrictive
  }};
  return kTable;
}

ReactiveDcc::ReactiveDcc(sim::Scheduler& sched, dot11p::Radio& radio, ChannelProbe& probe,
                         Config config, sim::Trace* trace, std::uint32_t station_id)
    : sched_{sched},
      radio_{radio},
      config_{config},
      trace_{trace},
      station_id_{station_id},
      gate_timer_{sched, [this] { try_dequeue(); }} {
  probe.set_listener([this](double cbr) { on_channel_load(cbr); });
}

sim::SimTime ReactiveDcc::current_min_gap() const {
  return config_.table[static_cast<std::size_t>(state_)].min_gap;
}

std::size_t ReactiveDcc::queue_depth() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

void ReactiveDcc::on_channel_load(double cbr) {
  // Highest state whose up-threshold the load reaches.
  DccState target = DccState::Relaxed;
  for (std::size_t i = config_.table.size(); i-- > 0;) {
    if (cbr >= config_.table[i].cbr_up_threshold) {
      target = static_cast<DccState>(i);
      break;
    }
  }
  if (target > state_) {
    state_ = target;  // congestion: react immediately
    below_windows_ = 0;
    trace_state_change();
  } else if (target < state_) {
    // Relaxation requires sustained low load (hysteresis), one step at a time.
    if (++below_windows_ >= config_.down_hysteresis_windows) {
      below_windows_ = 0;
      state_ = static_cast<DccState>(static_cast<std::uint8_t>(state_) - 1);
      trace_state_change();
    }
  } else {
    below_windows_ = 0;
  }
}

void ReactiveDcc::trace_state_change() {
  ++stats_.state_changes;
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::DccState, station_id_,
                         static_cast<std::uint64_t>(state_));
  }
}

void ReactiveDcc::send(dot11p::Frame frame) {
  const sim::SimTime now = sched_.now();
  if (now - last_tx_ >= current_min_gap() && queue_depth() == 0) {
    last_tx_ = now;
    ++stats_.passed;
    radio_.send(std::move(frame));
    return;
  }
  auto& q = queues_[profile_of(frame.ac)];
  if (q.size() >= config_.queue_capacity_per_profile) {
    // Drop the oldest of this profile to keep the freshest information.
    q.pop_front();
    ++stats_.dropped_queue_full;
  }
  q.push_back({std::move(frame), now});
  ++stats_.queued;
  if (!gate_timer_.armed()) gate_timer_.arm_at(std::max(last_tx_ + current_min_gap(), now));
}

void ReactiveDcc::try_dequeue() {
  const sim::SimTime now = sched_.now();
  // Expire stale packets first.
  for (auto& q : queues_) {
    while (!q.empty() && now - q.front().enqueued > config_.queued_packet_lifetime) {
      q.pop_front();
      ++stats_.dropped_expired;
    }
  }
  if (now - last_tx_ >= current_min_gap()) {
    // Highest-priority profile first (DP0 = index 0).
    for (auto& q : queues_) {
      if (q.empty()) continue;
      Pending p = std::move(q.front());
      q.pop_front();
      last_tx_ = now;
      ++stats_.passed;
      radio_.send(std::move(p.frame));
      break;
    }
  }
  if (queue_depth() > 0) gate_timer_.arm_at(last_tx_ + current_min_gap());
}

}  // namespace rst::its::dcc
