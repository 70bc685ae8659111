#pragma once

#include <algorithm>

namespace rst::vehicle {

/// Textbook PID controller with output clamping and anti-windup, used for
/// the steering loop of the line follower (the paper's Motion Planner
/// computes the steering angle with a PID controller).
class PidController {
 public:
  struct Gains {
    double kp{0};
    double ki{0};
    double kd{0};
  };

  PidController(Gains gains, double output_min, double output_max)
      : gains_{gains}, output_min_{output_min}, output_max_{output_max} {}

  /// Advances the controller by `dt` seconds with measurement error `e`
  /// (setpoint minus measurement) and returns the control output.
  double update(double e, double dt) {
    if (dt <= 0) return last_output_;
    const double derivative = has_last_ ? (e - last_error_) / dt : 0.0;
    integral_ += e * dt;
    double out = gains_.kp * e + gains_.ki * integral_ + gains_.kd * derivative;
    // Anti-windup: freeze the integral when saturated in its direction.
    if (out > output_max_) {
      if (gains_.ki > 0) integral_ -= e * dt;
      out = output_max_;
    } else if (out < output_min_) {
      if (gains_.ki > 0) integral_ -= e * dt;
      out = output_min_;
    }
    last_error_ = e;
    has_last_ = true;
    last_output_ = out;
    return out;
  }

 private:
  Gains gains_;
  double output_min_;
  double output_max_;
  double integral_{0};
  double last_error_{0};
  bool has_last_{false};
  double last_output_{0};
};

}  // namespace rst::vehicle
