#include <gtest/gtest.h>

#include "rst/core/platoon.hpp"
#include "rst/vehicle/cacc.hpp"

namespace rst::vehicle {
namespace {

using namespace rst::sim::literals;

/// Minimal two-vehicle rig with a direct (radio-less) CAM feed.
struct CaccRig {
  sim::Scheduler sched;
  sim::RandomStream rng{909, "cacc_test"};
  VehicleDynamics leader{sched, {}, rng.child("lead")};
  VehicleDynamics follower{sched, {}, rng.child("follow")};
  CaccController cacc{sched, follower};
  sim::Scheduler::Ticket feed_timer;

  CaccRig() {
    leader.reset({0, 5.0}, 0.0, 1.2);
    follower.reset({0, 0.0}, 0.0, 1.2);
  }

  void drive_leader_constant(double throttle) {
    leader.set_throttle(throttle);
    sched.post_in(50_ms, [this, throttle] { drive_leader_constant(throttle); });
  }

  void feed_cams(sim::SimTime period = 100_ms) {
    its::Cam cam;
    cam.high_frequency.speed = its::Speed::from_mps(leader.speed_mps());
    cacc.on_leader_cam(cam, leader.position());
    feed_timer = sched.post_in(period, [this, period] { feed_cams(period); });
  }
};

TEST(Cacc, ConvergesToTheTimeGapPolicy) {
  CaccRig rig;
  rig.leader.start();
  rig.follower.start();
  rig.drive_leader_constant(0.05);  // leader holds ~1.2 m/s
  rig.feed_cams();
  rig.cacc.start();
  rig.sched.run_until(30_s);

  ASSERT_TRUE(rig.cacc.leader_valid());
  const double v = rig.follower.speed_mps();
  const double desired = 0.6 + 0.6 * v;  // standstill + headway * v
  EXPECT_NEAR(rig.cacc.current_gap_m(), desired, 0.3);
  EXPECT_NEAR(v, rig.leader.speed_mps(), 0.25);
  EXPECT_GT(rig.cacc.control_updates(), 100u);
}

TEST(Cacc, CoastsWhenAwarenessIsLost) {
  CaccRig rig;
  rig.leader.start();
  rig.follower.start();
  rig.drive_leader_constant(0.05);
  rig.feed_cams();
  rig.cacc.start();
  rig.sched.run_until(10_s);
  const double v_tracking = rig.follower.speed_mps();
  EXPECT_GT(v_tracking, 0.5);

  rig.sched.cancel(rig.feed_timer);  // CAMs stop arriving
  rig.sched.run_until(20_s);
  EXPECT_FALSE(rig.cacc.leader_valid());
  // Fail-safe: throttle released, the follower slows well below tracking.
  EXPECT_LT(rig.follower.speed_mps(), v_tracking / 2.0);
}

TEST(Cacc, PowerCutLatchesOff) {
  CaccRig rig;
  rig.leader.start();
  rig.follower.start();
  rig.drive_leader_constant(0.05);
  rig.feed_cams();
  rig.cacc.start();
  rig.sched.run_until(5_s);
  rig.follower.cut_power();
  rig.sched.run_until(10_s);
  EXPECT_TRUE(rig.follower.stopped());
  // CACC stopped itself and never re-applied throttle.
  const double odometer = rig.follower.odometer_m();
  rig.sched.run_until(15_s);
  EXPECT_DOUBLE_EQ(rig.follower.odometer_m(), odometer);
}

}  // namespace
}  // namespace rst::vehicle

namespace rst::core {
namespace {

using namespace rst::sim::literals;

TEST(PlatoonCacc, FollowersHoldGapsAndStillStopOnDenm) {
  PlatoonConfig config;
  config.seed = 404;
  config.n_vehicles = 4;
  config.spacing_m = 1.4;
  config.use_cacc = true;
  PlatoonScenario scenario{config};
  const auto result = scenario.run_emergency_stop(8_s, 15_s);
  EXPECT_TRUE(result.all_stopped);
  // Gap regulation kept everyone clear of each other throughout.
  EXPECT_GT(result.min_gap_m, 0.1);
  for (const auto& v : result.vehicles) {
    EXPECT_LT(v.detection_to_action_ms, 150.0);
  }
}

}  // namespace
}  // namespace rst::core
