#include <gtest/gtest.h>

#include <cmath>

#include "rst/vehicle/control_module.hpp"
#include "rst/vehicle/dynamics.hpp"
#include "rst/vehicle/line_detection.hpp"
#include "rst/vehicle/motion_planner.hpp"
#include "rst/vehicle/pid.hpp"
#include "rst/vehicle/track.hpp"

namespace rst::vehicle {
namespace {

using namespace rst::sim::literals;

TEST(Track, StraightGeometry) {
  const Track track = Track::straight({0, 0}, {0, 10});
  EXPECT_DOUBLE_EQ(track.length(), 10.0);
  EXPECT_EQ(track.point_at(0.0), (geo::Vec2{0, 0}));
  EXPECT_EQ(track.point_at(5.0), (geo::Vec2{0, 5}));
  EXPECT_EQ(track.point_at(99.0), (geo::Vec2{0, 10}));  // clamped
  EXPECT_NEAR(track.heading_at(5.0), 0.0, 1e-12);       // north
}

TEST(Track, ProjectionSignConvention) {
  const Track track = Track::straight({0, 0}, {0, 10});
  // Travelling north: west (-x) is left of the line -> positive offset.
  const auto left = track.project({-0.5, 5});
  EXPECT_NEAR(left.lateral_offset, 0.5, 1e-12);
  const auto right = track.project({0.5, 5});
  EXPECT_NEAR(right.lateral_offset, -0.5, 1e-12);
  EXPECT_NEAR(left.arc_length, 5.0, 1e-12);
  EXPECT_EQ(left.closest, (geo::Vec2{0, 5}));
}

TEST(Track, ProjectionClampsToEndpoints) {
  const Track track = Track::straight({0, 0}, {0, 10});
  const auto before = track.project({1, -3});
  EXPECT_NEAR(before.arc_length, 0.0, 1e-12);
  const auto after = track.project({0, 12});
  EXPECT_NEAR(after.arc_length, 10.0, 1e-12);
}

TEST(Track, LoopIsClosedAndSmooth) {
  const Track track = Track::loop({0, 0}, 10.0, 6.0);
  const auto& pts = track.waypoints();
  EXPECT_EQ(pts.front(), pts.back());
  EXPECT_GT(track.length(), 2 * (10.0 + 6.0) * 0.7);
  // Every point on the loop projects onto itself with zero offset.
  for (double s = 0; s < track.length(); s += 1.0) {
    const auto proj = track.project(track.point_at(s));
    EXPECT_NEAR(proj.lateral_offset, 0.0, 1e-9);
  }
}

TEST(Track, RejectsDegenerateInput) {
  EXPECT_THROW((Track{{geo::Vec2{0, 0}}}), std::invalid_argument);
  EXPECT_THROW((Track{{geo::Vec2{0, 0}, geo::Vec2{0, 0}}}), std::invalid_argument);
}

TEST(Pid, ProportionalOnly) {
  PidController pid{{.kp = 2.0, .ki = 0.0, .kd = 0.0}, -10, 10};
  EXPECT_DOUBLE_EQ(pid.update(1.0, 0.1), 2.0);
  EXPECT_DOUBLE_EQ(pid.update(-3.0, 0.1), -6.0);
}

TEST(Pid, OutputClampingAndAntiWindup) {
  PidController pid{{.kp = 1.0, .ki = 10.0, .kd = 0.0}, -1, 1};
  for (int i = 0; i < 100; ++i) (void)pid.update(5.0, 0.1);
  EXPECT_DOUBLE_EQ(pid.update(5.0, 0.1), 1.0);
  // With anti-windup the integral did not blow up: reversing the error
  // recovers quickly.
  double out = 0;
  for (int i = 0; i < 5; ++i) out = pid.update(-5.0, 0.1);
  EXPECT_LT(out, 0.0);
}

TEST(Pid, DerivativeDamps) {
  PidController with_d{{.kp = 1.0, .ki = 0.0, .kd = 1.0}, -100, 100};
  (void)with_d.update(1.0, 0.1);
  // Error shrinking: derivative term is negative, output below kp*e.
  EXPECT_LT(with_d.update(0.5, 0.1), 0.5);
}

TEST(Dynamics, AcceleratesUnderThrottleAndCoastsDown) {
  sim::Scheduler sched;
  VehicleDynamics dyn{sched, {}, sim::RandomStream{1, "dyn"}};
  dyn.reset({0, 0}, 0.0);
  dyn.start();
  dyn.set_throttle(0.5);
  sched.run_until(3_s);
  EXPECT_GT(dyn.speed_mps(), 1.0);
  EXPECT_GT(dyn.position().y, 1.0);
  EXPECT_NEAR(dyn.position().x, 0.0, 1e-9);  // heading north, no steering
  const double v = dyn.speed_mps();
  dyn.set_throttle(0.0);
  sched.run_until(20_s);
  EXPECT_LT(dyn.speed_mps(), v);  // rolling resistance decays speed
}

TEST(Dynamics, PowerCutStopsVehicleQuickly) {
  sim::Scheduler sched;
  VehicleParams params;
  VehicleDynamics dyn{sched, params, sim::RandomStream{2, "dyn"}};
  dyn.reset({0, 0}, 0.0, 1.2);
  dyn.start();
  const double odo0 = dyn.odometer_m();
  dyn.cut_power();
  sched.run_until(2_s);
  EXPECT_TRUE(dyn.stopped());
  const double distance = dyn.odometer_m() - odo0;
  // v^2 / (2a) with a ~ 2.45 m/s^2 and friction variation: ~0.2-0.45 m.
  EXPECT_GT(distance, 0.15);
  EXPECT_LT(distance, 0.5);
  // Throttle is ignored after the cut.
  dyn.set_throttle(1.0);
  sched.run_until(4_s);
  EXPECT_TRUE(dyn.stopped());
}

TEST(Dynamics, ObserverRunsAfterEveryStateChange) {
  sim::Scheduler sched;
  VehicleDynamics dyn{sched, VehicleParams{}, sim::RandomStream{2, "dyn"}};
  int calls = 0;
  bool saw_cut = false;
  dyn.set_observer([&] {
    ++calls;
    saw_cut = dyn.power_cut();
  });
  dyn.reset({0, 0}, 0.0, 1.0);
  EXPECT_EQ(calls, 1);
  dyn.start();
  sched.run_until(10_ms);  // five 2 ms ticks
  EXPECT_EQ(calls, 6);
  dyn.cut_power();
  EXPECT_EQ(calls, 7);
  EXPECT_TRUE(saw_cut);
  dyn.set_throttle(1.0);  // an input, not a state change
  dyn.set_steering(0.1);
  EXPECT_EQ(calls, 7);

  dyn.set_observer({});
  EXPECT_FALSE(dyn.has_observer());
  sched.run_until(20_ms);
  EXPECT_EQ(calls, 7);
}

TEST(Dynamics, SteeringTurnsTheVehicle) {
  sim::Scheduler sched;
  VehicleDynamics dyn{sched, {}, sim::RandomStream{3, "dyn"}};
  dyn.reset({0, 0}, 0.0, 1.0);
  dyn.start();
  dyn.set_throttle(0.2);
  dyn.set_steering(0.2);  // positive = clockwise (right)
  sched.run_until(2_s);
  EXPECT_GT(dyn.heading_rad(), 0.5);
  EXPECT_GT(dyn.position().x, 0.1);  // drifted east while turning right
}

TEST(Dynamics, SteeringClampedToServoLimit) {
  sim::Scheduler sched;
  VehicleParams params;
  params.max_steer_rad = 0.3;
  VehicleDynamics dyn{sched, params, sim::RandomStream{4, "dyn"}};
  dyn.reset({0, 0}, 0.0, 1.0);
  dyn.start();
  dyn.set_steering(5.0);  // far beyond the servo limit
  sched.run_until(1_s);
  // Coasting from 1 m/s: at most 1 m travelled, so the heading change is
  // bounded by tan(max_steer)/L per metre of travel.
  EXPECT_LT(dyn.heading_rad(), 1.0 * std::tan(0.3) / params.wheelbase_m + 1e-6);
  EXPECT_GT(dyn.heading_rad(), 0.1);
}

TEST(Dynamics, NeverReverses) {
  sim::Scheduler sched;
  VehicleDynamics dyn{sched, {}, sim::RandomStream{5, "dyn"}};
  dyn.reset({0, 0}, 0.0, 0.05);
  dyn.start();
  sched.run_until(5_s);
  EXPECT_GE(dyn.speed_mps(), 0.0);
  EXPECT_TRUE(dyn.stopped());
}

struct PipelineRig {
  sim::Scheduler sched;
  sim::RandomStream rng{9, "pipe"};
  VehicleBus bus{sched, rng.child("bus")};
  Track track = Track::straight({0, 0}, {0, 30});
  VehicleDynamics dyn{sched, {}, rng.child("dyn")};
  LineCameraSensor sensor{sched, bus, track, dyn, rng.child("cam")};
  MotionPlanner planner{sched, bus};
  ControlModule control{sched, bus, dyn, rng.child("ctl")};
};

TEST(Pipeline, LineFollowerHoldsTheLineAndSpeed) {
  PipelineRig rig;
  rig.dyn.reset({0.2, 0}, 0.3, 0.0);  // offset and misaligned on purpose
  rig.dyn.start();
  rig.sensor.start();
  rig.control.start();
  rig.sched.run_until(10_s);
  // Converged back onto the line at the target speed.
  const auto proj = rig.track.project(rig.dyn.position());
  EXPECT_LT(std::abs(proj.lateral_offset), 0.08);
  EXPECT_NEAR(rig.dyn.speed_mps(), 1.2, 0.15);
  EXPECT_GT(rig.dyn.position().y, 5.0);
  EXPECT_GT(rig.sensor.frames_processed(), 200u);
}

TEST(Pipeline, FollowsAClosedCircuitLap) {
  // The paper notes the platform "can navigate a closed-circuit fully
  // autonomously"; the line follower must hold a rounded-rectangle loop.
  sim::Scheduler sched;
  sim::RandomStream rng{77, "loop"};
  VehicleBus bus{sched, rng.child("bus")};
  Track track = Track::loop({0, 0}, 8.0, 5.0);
  VehicleDynamics dyn{sched, {}, rng.child("dyn")};
  LineCameraSensor sensor{sched, bus, track, dyn, rng.child("cam")};
  MotionPlannerConfig planner_config;
  planner_config.target_speed_mps = 0.9;  // curves need a gentler pace
  MotionPlanner planner{sched, bus, planner_config};
  ControlModule control{sched, bus, dyn, rng.child("ctl")};

  const geo::Vec2 start = track.point_at(0.0);
  dyn.reset(start, track.heading_at(0.0), 0.0);
  dyn.start();
  sensor.start();
  control.start();

  // Probe the worst lateral deviation over the whole lap.
  double worst_offset = 0;
  std::function<void()> probe = [&] {
    worst_offset = std::max(worst_offset, std::abs(track.project(dyn.position()).lateral_offset));
    sched.post_in(sim::SimTime::milliseconds(100), probe);
  };
  sched.post_in(sim::SimTime::milliseconds(100), probe);
  sched.run_until(sim::SimTime::seconds(45));

  // Finished at least a full lap without ever leaving the line's
  // neighbourhood (the sharp corners cost a few decimetres of overshoot).
  EXPECT_GT(dyn.odometer_m(), track.length());
  EXPECT_LT(worst_offset, 0.45);
}

TEST(Pipeline, EmergencyStopLatchesAndCutsPower) {
  PipelineRig rig;
  rig.dyn.reset({0, 0}, 0.0, 1.2);
  rig.dyn.start();
  rig.sensor.start();
  rig.control.start();
  rig.sched.run_until(2_s);
  EXPECT_FALSE(rig.planner.stopped());
  rig.bus.v2x_emergency.publish(EmergencyStop{});
  rig.sched.run_until(4_s);
  EXPECT_TRUE(rig.planner.stopped());
  EXPECT_TRUE(rig.dyn.power_cut());
  EXPECT_TRUE(rig.dyn.stopped());
  // Line detections after the stop do not re-energise the vehicle.
  rig.sched.run_until(6_s);
  EXPECT_TRUE(rig.dyn.stopped());
}

TEST(Pipeline, ControlModuleLatchesAtPwmEdges) {
  sim::Scheduler sched;
  sim::RandomStream rng{10, "pwm"};
  VehicleBus bus{sched, rng.child("bus")};
  VehicleDynamics dyn{sched, {}, rng.child("dyn")};
  dyn.reset({0, 0}, 0.0, 1.0);
  dyn.start();
  ControlModuleConfig config;
  config.pwm_period = 10_ms;
  ControlModule control{sched, bus, dyn, rng.child("ctl"), config};
  control.start();

  DriveCommand cmd;
  cmd.power_cut = true;
  bus.drive_cmd.publish(cmd);
  sched.run_until(30_ms);
  EXPECT_TRUE(dyn.power_cut());
  EXPECT_EQ(control.commands_applied(), 1u);
}

}  // namespace
}  // namespace rst::vehicle
