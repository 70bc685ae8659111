#pragma once

#include "rst/middleware/ntp.hpp"
#include "rst/sim/trace.hpp"
#include "rst/vehicle/dynamics.hpp"
#include "rst/vehicle/vehicle_bus.hpp"

namespace rst::vehicle {

struct ControlModuleConfig {
  /// USART transfer + MCU handling.
  sim::SimTime usart_latency{sim::SimTime::microseconds(250)};
  sim::SimTime usart_jitter{sim::SimTime::microseconds(150)};
  /// PWM refresh period of the ESC/servo signal (100 Hz).
  sim::SimTime pwm_period{sim::SimTime::milliseconds(10)};
  /// Odometry publication period.
  sim::SimTime odometry_period{sim::SimTime::milliseconds(20)};
};

/// The Teensy MCU bridge of the paper's hardware architecture: receives
/// DriveCommands over the bus (ROS topic), forwards them over USART and
/// latches them into the PWM generator driving the ESC and servo.
///
/// The step-5 instant of the paper's measurement chain ("the vehicle ECU
/// registers the time at which a command is sent to the physical
/// actuators") is traced here at the USART write.
class ControlModule {
 public:
  using Config = ControlModuleConfig;

  ControlModule(sim::Scheduler& sched, VehicleBus& bus, VehicleDynamics& dynamics,
                sim::RandomStream rng, Config config = {}, sim::Trace* trace = nullptr,
                const middleware::NtpClock* clock = nullptr);
  ControlModule(const ControlModule&) = delete;
  ControlModule& operator=(const ControlModule&) = delete;

  void start();

  [[nodiscard]] std::uint64_t commands_applied() const { return applied_; }

 private:
  void on_command(const DriveCommand& cmd);
  void publish_odometry();
  /// Next PWM latch edge at or after `t`.
  [[nodiscard]] sim::SimTime next_pwm_edge(sim::SimTime t) const;

  sim::Scheduler& sched_;
  VehicleBus& bus_;
  VehicleDynamics& dynamics_;
  sim::RandomStream rng_;
  Config config_;
  sim::Trace* trace_;
  const middleware::NtpClock* clock_;
  bool running_{false};
  sim::Timer odometry_timer_;
  std::uint64_t applied_{0};
};

}  // namespace rst::vehicle
