#pragma once

#include "rst/geo/vec2.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::vehicle {

/// Physical parameters of the 1/10-scale vehicle (Traxxas Rally chassis of
/// the CopaDrive/F1Tenth platform the paper uses).
struct VehicleParams {
  double mass_kg{3.5};
  double wheelbase_m{0.325};
  double length_m{0.53};  // paper: "approximately 53 centimetres"
  double width_m{0.30};
  /// Peak tractive force of the brushless motor through the drivetrain.
  double max_motor_force_n{12.0};
  /// Rolling resistance coefficient (rubber treaded tyres on lab floor).
  double rolling_resistance{0.015};
  /// Aerodynamic term c_d * A * rho / 2 (negligible at scale speeds).
  double drag_coefficient{0.05};
  /// Deceleration from drivetrain drag + motor back-EMF once the ESC cuts
  /// power ("power to the wheels is cut" in the paper — the robot has no
  /// friction brakes; it coasts down on drivetrain losses). Calibrated so
  /// the detection-to-halt distance matches the paper's Table III.
  double power_cut_decel_mps2{2.45};
  /// Maximum steering angle of the servo.
  double max_steer_rad{0.35};
  /// Physics integration step.
  sim::SimTime tick{sim::SimTime::milliseconds(2)};
};

/// Longitudinal + kinematic-bicycle vehicle model, integrated on the
/// simulation scheduler.
class VehicleDynamics {
 public:
  VehicleDynamics(sim::Scheduler& sched, VehicleParams params, sim::RandomStream rng);
  VehicleDynamics(const VehicleDynamics&) = delete;
  VehicleDynamics& operator=(const VehicleDynamics&) = delete;

  /// Places the vehicle and starts/continues integration.
  void reset(geo::Vec2 position, double heading_rad, double speed_mps = 0.0);
  void start();

  /// Actuator inputs (what the Teensy/ESC applies).
  void set_throttle(double throttle01);
  void set_steering(double angle_rad);
  /// ESC power interruption: throttle forced to zero until reset().
  void cut_power();
  [[nodiscard]] bool power_cut() const { return power_cut_; }

  [[nodiscard]] geo::Vec2 position() const { return position_; }
  [[nodiscard]] double heading_rad() const { return heading_; }
  [[nodiscard]] double speed_mps() const { return speed_; }
  [[nodiscard]] double acceleration_mps2() const { return last_accel_; }
  [[nodiscard]] bool stopped() const { return speed_ <= 1e-3; }
  [[nodiscard]] double odometer_m() const { return odometer_; }
  [[nodiscard]] const VehicleParams& params() const { return params_; }

  /// Called after every tick(), cut_power() and reset(), i.e. after each
  /// change of position, speed or the power-cut flag; an empty function
  /// clears it. One observer at a time (the trial supervision's).
  void set_observer(sim::SmallFunction observer) { observer_ = std::move(observer); }
  [[nodiscard]] bool has_observer() const { return static_cast<bool>(observer_); }

 private:
  void tick();

  VehicleParams params_;
  sim::RandomStream rng_;

  geo::Vec2 position_{};
  double heading_{0};
  double speed_{0};
  double odometer_{0};
  double last_accel_{0};
  double throttle_{0};
  double steering_{0};
  bool power_cut_{false};
  /// Per-run multiplicative variation of the coast-down friction (tyre
  /// temperature, battery level...) drawn at each reset.
  double friction_factor_{1.0};
  sim::SmallFunction observer_;
  sim::Timer tick_timer_;
};

}  // namespace rst::vehicle
