#include "rst/middleware/ntp.hpp"

namespace rst::middleware {

NtpClock::NtpClock(sim::Scheduler& sched, sim::RandomStream rng, const std::string& name,
                   Config config)
    : sched_{sched},
      rng_{rng.child("ntp." + name)},
      config_{config},
      offset_at_ref_{config.initial_offset},
      ref_time_{sched.now()},
      sync_timer_{sched, [this] {
                    sync();
                    schedule_sync();
                  }} {
  if (config_.enable_sync) schedule_sync();
}

sim::SimTime NtpClock::offset() const {
  const auto elapsed = sched_.now() - ref_time_;
  const auto drift_ns =
      static_cast<std::int64_t>(static_cast<double>(elapsed.count_ns()) * config_.drift_ppm * 1e-6);
  return offset_at_ref_ + sim::SimTime::nanoseconds(drift_ns);
}

sim::SimTime NtpClock::now_wall() const { return sched_.now() + offset(); }

void NtpClock::sync() {
  // NTP pulls the offset to a residual determined by path asymmetry.
  offset_at_ref_ = rng_.normal_time(sim::SimTime::zero(), config_.sync_error_sigma,
                                    sim::SimTime::zero() - config_.sync_error_sigma * 10);
  ref_time_ = sched_.now();
  ++sync_count_;
}

void NtpClock::schedule_sync() {
  const auto jitter = rng_.uniform_time(sim::SimTime::zero(), config_.sync_interval / 8);
  sync_timer_.arm_in(config_.sync_interval + jitter);
}

}  // namespace rst::middleware
