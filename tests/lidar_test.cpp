#include <gtest/gtest.h>

#include <cmath>

#include "rst/vehicle/control_module.hpp"
#include "rst/vehicle/lidar.hpp"
#include "rst/vehicle/motion_planner.hpp"

namespace rst::vehicle {
namespace {

using namespace rst::sim::literals;

struct Rig {
  sim::Scheduler sched;
  sim::RandomStream rng{404, "lidar_test"};
  VehicleBus bus{sched, rng.child("bus")};
  VehicleDynamics dyn{sched, {}, rng.child("dyn")};
  ScanningLidar lidar{sched, bus, dyn, rng.child("lidar")};

  Rig() { dyn.reset({0, 0}, 0.0); }
};

TEST(Lidar, DetectsTargetInRangeWithCorrectGeometry) {
  Rig rig;
  rig.lidar.add_target({[] { return geo::Vec2{0, 5}; }, 0.15});
  const LidarScan scan = rig.lidar.scan();
  ASSERT_EQ(scan.detections.size(), 1u);
  EXPECT_NEAR(scan.detections[0].range_m, 5.0 - 0.15, 0.05);
  EXPECT_NEAR(scan.detections[0].bearing_rad, 0.0, 1e-6);
}

TEST(Lidar, BearingFollowsVehicleHeading) {
  Rig rig;
  rig.dyn.reset({0, 0}, M_PI / 2);  // facing east
  rig.lidar.add_target({[] { return geo::Vec2{0, 5}; }, 0.15});  // due north
  const LidarScan scan = rig.lidar.scan();
  ASSERT_EQ(scan.detections.size(), 1u);
  EXPECT_NEAR(scan.detections[0].bearing_rad, -M_PI / 2, 1e-6);  // 90 deg left
}

TEST(Lidar, RespectsRangeAndFov) {
  Rig rig;
  rig.lidar.add_target({[] { return geo::Vec2{0, 20}; }, 0.15});   // beyond 8 m
  rig.lidar.add_target({[] { return geo::Vec2{0, -3}; }, 0.15});   // directly behind
  EXPECT_TRUE(rig.lidar.scan().detections.empty());
}

TEST(Lidar, WallsOccludeTargets) {
  Rig rig;
  rig.lidar.add_target({[] { return geo::Vec2{0, 5}; }, 0.15});
  rig.lidar.set_walls({{.a = {-1, 3}, .b = {1, 3}, .obstruction_loss_db = 20}});
  EXPECT_TRUE(rig.lidar.scan().detections.empty());
  // Wall moved aside: visible again.
  rig.lidar.set_walls({{.a = {2, 3}, .b = {4, 3}, .obstruction_loss_db = 20}});
  EXPECT_EQ(rig.lidar.scan().detections.size(), 1u);
}

TEST(Lidar, PeriodicScansPublishOnBus) {
  Rig rig;
  rig.lidar.add_target({[] { return geo::Vec2{0, 4}; }, 0.15});
  int scans = 0;
  rig.bus.lidar_scan.subscribe([&](const LidarScan& s) {
    if (!s.detections.empty()) ++scans;
  });
  rig.lidar.start();
  rig.sched.run_until(1050_ms);
  EXPECT_GE(scans, 9);
  EXPECT_LE(scans, 11);
}

struct AebRig : Rig {
  MotionPlanner planner{sched, bus};
  ControlModule control{sched, bus, dyn, rng.child("ctl")};
  AebController aeb{sched, bus};
};

TEST(Aeb, StopsBeforeStationaryObstacle) {
  AebRig rig;
  rig.lidar.add_target({[] { return geo::Vec2{0, 6}; }, 0.15});
  rig.dyn.reset({0, 0}, 0.0, 1.2);
  rig.dyn.set_throttle(0.05);  // roughly hold cruise against rolling drag
  rig.dyn.start();
  rig.control.start();
  rig.lidar.start();
  rig.aeb.start();
  rig.sched.run_until(10_s);
  EXPECT_TRUE(rig.aeb.triggered());
  EXPECT_TRUE(rig.dyn.stopped());
  // Stopped short of the obstacle disc.
  EXPECT_LT(rig.dyn.position().y, 6.0 - 0.15);
  EXPECT_GT(rig.dyn.position().y, 3.0);  // but did not stop absurdly early
}

TEST(Aeb, IgnoresObstaclesOutsideTheCorridor) {
  AebRig rig;
  rig.lidar.add_target({[] { return geo::Vec2{1.5, 4}; }, 0.15});  // 1.5 m to the side
  rig.dyn.reset({0, 0}, 0.0, 1.2);
  rig.dyn.start();
  rig.control.start();
  rig.lidar.start();
  rig.aeb.start();
  rig.sched.run_until(3_s);
  EXPECT_FALSE(rig.aeb.triggered());
  EXPECT_FALSE(rig.dyn.power_cut());
  EXPECT_GT(rig.aeb.scans_evaluated(), 10u);
}

TEST(Aeb, DoesNothingWhenStopped) {
  AebRig rig;
  rig.lidar.add_target({[] { return geo::Vec2{0, 0.5}; }, 0.15});
  rig.dyn.reset({0, 0}, 0.0, 0.0);  // parked right behind an obstacle
  rig.dyn.start();
  rig.control.start();
  rig.lidar.start();
  rig.aeb.start();
  rig.sched.run_until(2_s);
  // Speed 0 -> stopping envelope is just the margin; obstacle at 0.35 m
  // equals the margin boundary, so the trigger depends only on the margin.
  // Either way the vehicle must remain stationary and safe.
  EXPECT_TRUE(rig.dyn.stopped());
}

}  // namespace
}  // namespace rst::vehicle
