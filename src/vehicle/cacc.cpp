#include "rst/vehicle/cacc.hpp"

#include <algorithm>

namespace rst::vehicle {

CaccController::CaccController(sim::Scheduler& sched, VehicleDynamics& dynamics, Config config,
                               sim::Trace* trace)
    : sched_{sched},
      dynamics_{dynamics},
      config_{config},
      trace_{trace},
      timer_{sched, [this] { tick(); }} {}

void CaccController::start() {
  if (!timer_.armed()) timer_.arm_in(config_.control_period);
}

void CaccController::stop() { timer_.cancel(); }

void CaccController::on_leader_cam(const its::Cam& cam, geo::Vec2 leader_position) {
  LeaderState state;
  state.position = leader_position;
  state.speed_mps = cam.high_frequency.speed.to_mps();
  state.stamp = sched_.now();
  leader_ = state;
}

bool CaccController::leader_valid() const {
  return leader_ && sched_.now() - leader_->stamp <= config_.leader_timeout;
}

double CaccController::current_gap_m() const {
  if (!leader_) return 0.0;
  // Straight-lane platoon: the gap is the along-track distance minus the
  // predecessor's body length.
  return geo::distance(leader_->position, dynamics_.position()) -
         dynamics_.params().length_m;
}

void CaccController::tick() {
  timer_.arm_in(config_.control_period);
  if (dynamics_.power_cut()) {
    stop();  // emergency latched: never reapply throttle
    return;
  }
  ++updates_;

  if (!leader_valid()) {
    // Fail-safe degradation: no fresh awareness, coast.
    dynamics_.set_throttle(0.0);
    return;
  }

  const double gap = current_gap_m();
  const double desired = config_.standstill_gap_m + config_.headway_s * dynamics_.speed_mps();
  const double gap_error = gap - desired;
  const double speed_error = leader_->speed_mps - dynamics_.speed_mps();
  const double command = config_.cruise_throttle + config_.gap_gain * gap_error * 0.1 +
                         config_.speed_gain * speed_error;
  dynamics_.set_throttle(std::clamp(command, 0.0, 1.0));
}

}  // namespace rst::vehicle
