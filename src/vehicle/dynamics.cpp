#include "rst/vehicle/dynamics.hpp"

#include <algorithm>
#include <cmath>

namespace rst::vehicle {

namespace {
constexpr double kGravity = 9.81;
}

VehicleDynamics::VehicleDynamics(sim::Scheduler& sched, VehicleParams params, sim::RandomStream rng)
    : params_{params}, rng_{rng.child("dynamics")}, tick_timer_{sched, [this] { tick(); }} {}

void VehicleDynamics::reset(geo::Vec2 position, double heading_rad, double speed_mps) {
  position_ = position;
  heading_ = heading_rad;
  speed_ = speed_mps;
  odometer_ = 0;
  throttle_ = 0;
  steering_ = 0;
  power_cut_ = false;
  friction_factor_ = rng_.normal_min(1.0, 0.09, 0.6);
  if (observer_) observer_();
}

void VehicleDynamics::start() {
  if (!tick_timer_.armed()) tick_timer_.arm_in(params_.tick);
}

void VehicleDynamics::set_throttle(double throttle01) {
  if (!power_cut_) throttle_ = std::clamp(throttle01, 0.0, 1.0);
}

void VehicleDynamics::set_steering(double angle_rad) {
  steering_ = std::clamp(angle_rad, -params_.max_steer_rad, params_.max_steer_rad);
}

void VehicleDynamics::cut_power() {
  power_cut_ = true;
  throttle_ = 0;
  if (observer_) observer_();
}

void VehicleDynamics::tick() {
  const double dt = params_.tick.to_seconds();

  double force = throttle_ * params_.max_motor_force_n;
  // Resistive terms act only while moving.
  if (speed_ > 0) {
    force -= params_.rolling_resistance * params_.mass_kg * kGravity * friction_factor_;
    force -= params_.drag_coefficient * speed_ * speed_;
    if (power_cut_) {
      force -= params_.power_cut_decel_mps2 * params_.mass_kg * friction_factor_;
    }
  }
  const double accel = force / params_.mass_kg;
  last_accel_ = accel;

  double new_speed = speed_ + accel * dt;
  if (new_speed < 0) new_speed = 0;  // the model does not reverse
  const double avg_speed = (speed_ + new_speed) / 2;
  speed_ = new_speed;

  const double ds = avg_speed * dt;
  odometer_ += ds;
  position_ += geo::vector_from_heading(heading_) * ds;
  if (avg_speed > 1e-6) {
    heading_ += ds / params_.wheelbase_m * std::tan(steering_);
  }

  tick_timer_.arm_in(params_.tick);
  if (observer_) observer_();
}

}  // namespace rst::vehicle
