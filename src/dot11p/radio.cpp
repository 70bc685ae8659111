#include "rst/dot11p/radio.hpp"

#include <algorithm>

namespace rst::dot11p {

Radio::Radio(Medium& medium, RadioConfig config, PositionProvider position, sim::RandomStream rng,
             std::string name)
    : medium_{medium},
      config_{config},
      position_{std::move(position)},
      rng_{rng.child("mac." + name)},
      name_{std::move(name)},
      mac_{medium.allocate_mac()},
      idle_since_{medium.scheduler().now()} {
  medium_.attach(this);
}

Radio::~Radio() {
  medium_.detach(this);
  for (auto& st : acs_) medium_.scheduler().cancel(st.attempt);
}

void Radio::send(Frame frame) {
  frame.src_mac = mac_;
  auto& st = acs_[static_cast<std::size_t>(frame.ac)];
  if (st.queue.size() >= config_.max_queue_per_ac) {
    st.queue.pop_front();  // drop the oldest: stale broadcasts have no value
    ++stats_.queue_drops;
  }
  st.queue.push_back(std::move(frame));
  stats_.queue_len_peak = std::max<std::uint64_t>(stats_.queue_len_peak, st.queue.size());
  arm_attempt(st.queue.back().ac);
}

void Radio::arm_attempt(AccessCategory ac) {
  auto& st = acs_[static_cast<std::size_t>(ac)];
  auto& sched = medium_.scheduler();
  if (st.queue.empty() || sched.pending(st.attempt) || channel_busy()) return;

  const sim::SimTime now = sched.now();
  const sim::SimTime aifs_boundary = idle_since_ + aifs(ac);

  if (st.backoff_slots < 0) {
    if (now >= aifs_boundary) {
      // Channel idle for at least AIFS: immediate access.
      transmit(ac);
      return;
    }
    // Fresh access to a channel that only recently went idle: contend.
    st.backoff_slots = static_cast<int>(rng_.uniform_int(0, edca_params(ac).cw_min));
  }

  st.countdown_start = std::max(now, aifs_boundary);
  st.attempt = sched.post_at(st.countdown_start + kSlotTime * st.backoff_slots, [this, ac] {
    auto& s = acs_[static_cast<std::size_t>(ac)];
    if (channel_busy() || s.queue.empty()) return;  // raced with a busy transition
    transmit(ac);
  });
}

void Radio::cancel_countdowns() {
  auto& sched = medium_.scheduler();
  const sim::SimTime now = sched.now();
  for (auto& st : acs_) {
    if (!sched.pending(st.attempt)) continue;
    sched.cancel(st.attempt);
    if (st.backoff_slots > 0 && now > st.countdown_start) {
      const auto elapsed_slots = static_cast<int>((now - st.countdown_start) / kSlotTime);
      st.backoff_slots = std::max(0, st.backoff_slots - elapsed_slots);
    }
  }
}

void Radio::resume_countdowns() {
  for (std::size_t i = 0; i < acs_.size(); ++i) {
    arm_attempt(static_cast<AccessCategory>(i));
  }
}

void Radio::transmit(AccessCategory ac) {
  auto& st = acs_[static_cast<std::size_t>(ac)];
  Frame frame = std::move(st.queue.front());
  st.queue.pop_front();
  st.backoff_slots = -1;
  transmitting_ = true;
  update_busy_accounting(true);
  current_tx_start_ = medium_.scheduler().now();
  cancel_countdowns();  // other ACs must not fire while we hold the channel
  ++stats_.tx_frames;
  const std::size_t psdu = frame.payload.size() + kMacOverheadBytes;
  medium_.begin_transmission(this, std::move(frame), psdu);
}

void Radio::on_tx_complete() {
  transmitting_ = false;
  update_busy_accounting(channel_busy());
  const sim::SimTime now = medium_.scheduler().now();
  tx_history_[tx_history_next_] = {current_tx_start_, now};
  tx_history_next_ = (tx_history_next_ + 1) % tx_history_.size();
  tx_history_size_ = std::min(tx_history_size_ + 1, tx_history_.size());

  if (busy_count_ == 0) idle_since_ = now;
  // Post-transmission backoff for every AC that still has traffic.
  for (std::size_t i = 0; i < acs_.size(); ++i) {
    auto& st = acs_[i];
    if (!st.queue.empty() && st.backoff_slots < 0) {
      st.backoff_slots =
          static_cast<int>(rng_.uniform_int(0, edca_params(static_cast<AccessCategory>(i)).cw_min));
    }
  }
  resume_countdowns();
}

void Radio::on_cs_busy_delta(int delta) {
  const bool was_busy = channel_busy();
  busy_count_ += delta;
  update_busy_accounting(channel_busy());
  if (!was_busy && channel_busy()) {
    cancel_countdowns();
  } else if (was_busy && !channel_busy()) {
    idle_since_ = medium_.scheduler().now();
    resume_countdowns();
  }
}

bool Radio::was_transmitting_during(sim::SimTime start, sim::SimTime end) const {
  if (transmitting_ && current_tx_start_ < end) return true;
  const auto last = tx_history_.begin() + tx_history_size_;
  return std::find_if(tx_history_.begin(), last, [&](const auto& iv) {
           return iv.first < end && iv.second > start;
         }) != last;
}

void Radio::settle_detach(int cs_busy_decrements) {
  busy_count_ -= cs_busy_decrements;
  update_busy_accounting(channel_busy());
}

void Radio::deliver(const Frame& frame, const RxInfo& info) {
  ++stats_.rx_frames;
  if (tap_) tap_(frame, info);
  if (receive_cb_) receive_cb_(frame, info);
}

void Radio::update_busy_accounting(bool busy_now) {
  const sim::SimTime now = medium_.scheduler().now();
  if (busy_now && !was_busy_) {
    busy_since_ = now;
  } else if (!busy_now && was_busy_) {
    busy_accumulated_ += now - busy_since_;
  }
  was_busy_ = busy_now;
}

sim::SimTime Radio::cumulative_busy_time() const {
  if (!was_busy_) return busy_accumulated_;
  return busy_accumulated_ + (medium_.scheduler().now() - busy_since_);
}

}  // namespace rst::dot11p
