#include "rst/vehicle/control_module.hpp"

namespace rst::vehicle {

ControlModule::ControlModule(sim::Scheduler& sched, VehicleBus& bus, VehicleDynamics& dynamics,
                             sim::RandomStream rng, Config config, sim::Trace* trace,
                             const middleware::NtpClock* clock)
    : sched_{sched},
      bus_{bus},
      dynamics_{dynamics},
      rng_{rng.child("control")},
      config_{config},
      trace_{trace},
      clock_{clock},
      odometry_timer_{sched, [this] { publish_odometry(); }} {
  bus_.drive_cmd.subscribe([this](const DriveCommand& cmd) { on_command(cmd); });
}

void ControlModule::start() {
  if (running_) return;
  running_ = true;
  odometry_timer_.arm_in(config_.odometry_period);
}

sim::SimTime ControlModule::next_pwm_edge(sim::SimTime t) const {
  const auto period = config_.pwm_period;
  const auto remainder = t % period;
  if (remainder == sim::SimTime::zero()) return t;
  return t - remainder + period;
}

void ControlModule::on_command(const DriveCommand& cmd) {
  if (!running_) return;
  const auto usart = config_.usart_latency +
                     rng_.uniform_time(sim::SimTime::zero(), config_.usart_jitter);
  sched_.post_in(usart, [this, cmd] {
    // USART write instant: the ECU's "command sent to actuators" timestamp
    // (paper step 5).
    if (cmd.power_cut && trace_) {
      const auto wall = clock_ ? clock_->now_wall() : sched_.now();
      trace_->record_event(sched_.now(), sim::Stage::PowerCutCommand, 0,
                           static_cast<std::uint64_t>(wall.count_ns()));
    }
    // The ESC/servo apply the new duty cycle at the next PWM edge.
    const auto edge = next_pwm_edge(sched_.now());
    sched_.post_at(edge, [this, cmd] {
      ++applied_;
      if (cmd.power_cut) {
        dynamics_.cut_power();
        if (trace_) trace_->record_event(sched_.now(), sim::Stage::PowerCutApplied);
      } else {
        dynamics_.set_throttle(cmd.throttle01);
        dynamics_.set_steering(cmd.steering_rad);
      }
    });
  });
}

void ControlModule::publish_odometry() {
  Odometry odo;
  odo.speed_mps = dynamics_.speed_mps();
  odo.position = dynamics_.position();
  odo.heading_rad = dynamics_.heading_rad();
  bus_.odometry.publish(odo);
  odometry_timer_.arm_in(config_.odometry_period);
}

}  // namespace rst::vehicle
