#include "rst/vehicle/gnss.hpp"

#include <cmath>

#include "rst/sim/fault_plan.hpp"

namespace rst::vehicle {

GnssReceiver::GnssReceiver(sim::Scheduler& sched, const VehicleDynamics& vehicle,
                           sim::RandomStream rng, Config config)
    : sched_{sched},
      vehicle_{vehicle},
      rng_{rng.child("gnss")},
      config_{config},
      timer_{sched, [this] { tick(); }} {
  bias_ = {rng_.normal(0.0, config_.initial_bias_sigma_m),
           rng_.normal(0.0, config_.initial_bias_sigma_m)};
  last_fix_ = vehicle_.position() + bias_;
}

void GnssReceiver::start() {
  if (!timer_.armed()) timer_.arm_in(config_.fix_period);
}

void GnssReceiver::tick() {
  bias_ = bias_ * (1.0 - config_.bias_decay) +
          geo::Vec2{rng_.normal(0.0, config_.bias_walk_sigma_m),
                    rng_.normal(0.0, config_.bias_walk_sigma_m)};
  if (faults_ && faults_->active(sim::FaultKind::GnssDrift, "gnss")) {
    if (!drifting_) {
      // One direction per activation (multipath pulls the fix one way).
      drifting_ = true;
      const double angle = faults_->stream(sim::FaultKind::GnssDrift).uniform(0.0, 2.0 * M_PI);
      drift_direction_ = {std::cos(angle), std::sin(angle)};
    }
    bias_ = bias_ + drift_direction_ * (faults_->severity(sim::FaultKind::GnssDrift, "gnss") *
                                        config_.fix_period.to_seconds());
  } else {
    drifting_ = false;
  }
  last_fix_ = vehicle_.position() + bias_ +
              geo::Vec2{rng_.normal(0.0, config_.noise_sigma_m),
                        rng_.normal(0.0, config_.noise_sigma_m)};
  last_fix_time_ = sched_.now();
  ++fixes_;
  timer_.arm_in(config_.fix_period);
}

}  // namespace rst::vehicle
