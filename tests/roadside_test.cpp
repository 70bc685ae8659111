#include <gtest/gtest.h>

#include <cmath>

#include "rst/its/facilities/ldm.hpp"
#include "rst/middleware/http.hpp"
#include "rst/roadside/camera.hpp"
#include "rst/sim/stats.hpp"
#include "rst/roadside/hazard_service.hpp"
#include "rst/roadside/object_detection_service.hpp"
#include "rst/roadside/yolo_sim.hpp"

namespace rst::roadside {
namespace {

using namespace rst::sim::literals;

TEST(Camera, SeesObjectsInFovAndRange) {
  sim::Scheduler sched;
  RoadsideCamera camera{sched, {.position = {0, 8}, .facing_rad = M_PI, .max_range_m = 12.0}};
  geo::Vec2 pos{0, 4};
  camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  auto frame = camera.capture();
  ASSERT_EQ(frame.objects.size(), 1u);
  EXPECT_NEAR(frame.objects[0].true_distance_m, 4.0, 1e-9);
  EXPECT_NEAR(frame.objects[0].bearing_rad, 0.0, 1e-9);  // straight ahead

  pos = {0, 25};  // behind the camera
  frame = camera.capture();
  EXPECT_TRUE(frame.objects.empty());

  pos = {0, -10};  // in front but beyond range
  frame = camera.capture();
  EXPECT_TRUE(frame.objects.empty());
}

TEST(Camera, BearingSignAndFovEdge) {
  sim::Scheduler sched;
  RoadsideCamera camera{sched,
                        {.position = {0, 0}, .facing_rad = 0.0, .fov_half_angle_rad = M_PI / 4}};
  geo::Vec2 pos{1, 1};  // 45 degrees east of north: exactly on the FOV edge
  camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  auto frame = camera.capture();
  ASSERT_EQ(frame.objects.size(), 1u);
  EXPECT_NEAR(frame.objects[0].bearing_rad, M_PI / 4, 1e-9);
  pos = {1.1, 1};  // just outside
  frame = camera.capture();
  EXPECT_TRUE(frame.objects.empty());
}

TEST(Camera, WallsOccludeTheOpticalPath) {
  sim::Scheduler sched;
  RoadsideCamera camera{sched, {.position = {0, 0}, .facing_rad = 0.0}};
  geo::Vec2 pos{0, 5};
  camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  EXPECT_EQ(camera.capture().objects.size(), 1u);
  camera.set_walls({{.a = {-2, 3}, .b = {2, 3}, .obstruction_loss_db = 20}});
  EXPECT_TRUE(camera.capture().objects.empty());
  // An object in front of the wall stays visible.
  pos = {0, 2};
  EXPECT_EQ(camera.capture().objects.size(), 1u);
}

TEST(Camera, FrameNumbersIncrease) {
  sim::Scheduler sched;
  RoadsideCamera camera{sched, {}};
  EXPECT_EQ(camera.capture().frame_number, 1u);
  EXPECT_EQ(camera.capture().frame_number, 2u);
  EXPECT_EQ(camera.frames_captured(), 2u);
}

CameraFrame frame_with(Presentation p, double distance) {
  CameraFrame frame;
  frame.objects.push_back({1, distance, 0.0, p});
  return frame;
}

TEST(Yolo, MinRangeQuirkReportsDefaultDistance) {
  YoloSimulator yolo{sim::RandomStream{1, "y"}};
  int defaults = 0;
  for (int i = 0; i < 200; ++i) {
    for (const auto& det : yolo.detect(frame_with(Presentation::StopSign, 0.5))) {
      if (det.estimated_distance_m == 1.73) ++defaults;
    }
  }
  EXPECT_GT(defaults, 150);  // the paper's "defaults to 1.73 m" behaviour
}

TEST(Yolo, DistanceEstimateUnbiasedAboveMinRange) {
  YoloSimulator yolo{sim::RandomStream{2, "y"}};
  sim::RunningStats est;
  for (int i = 0; i < 2000; ++i) {
    for (const auto& det : yolo.detect(frame_with(Presentation::StopSign, 3.0))) {
      est.add(det.estimated_distance_m);
    }
  }
  EXPECT_NEAR(est.mean(), 3.0, 0.01);
  EXPECT_NEAR(est.stddev(), 0.03, 0.01);
}

TEST(Yolo, RangeLimitsPerPresentation) {
  YoloSimulator yolo{sim::RandomStream{3, "y"}};
  // Beyond each profile's max range nothing is detected, ever.
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(yolo.detect(frame_with(Presentation::BareRobot, 2.5)).empty());
    EXPECT_TRUE(yolo.detect(frame_with(Presentation::BodyShell, 3.0)).empty());
    EXPECT_TRUE(yolo.detect(frame_with(Presentation::StopSign, 7.0)).empty());
  }
}

TEST(Yolo, DetectionRatesOrderedByPresentation) {
  YoloSimulator yolo{sim::RandomStream{4, "y"}};
  const auto rate = [&](Presentation p) {
    int hits = 0;
    for (int i = 0; i < 2000; ++i) hits += !yolo.detect(frame_with(p, 1.5)).empty();
    return hits / 2000.0;
  };
  const double bare = rate(Presentation::BareRobot);
  const double shell = rate(Presentation::BodyShell);
  const double sign = rate(Presentation::StopSign);
  EXPECT_LT(bare, shell);
  EXPECT_LT(shell, sign);
  EXPECT_GT(sign, 0.9);
}

TEST(Yolo, LabelsFollowProfiles) {
  YoloSimulator yolo{sim::RandomStream{5, "y"}};
  std::map<std::string, int> labels;
  for (int i = 0; i < 2000; ++i) {
    for (const auto& det : yolo.detect(frame_with(Presentation::BodyShell, 1.5))) {
      ++labels[det.label];
    }
  }
  EXPECT_GT(labels["car"], 0);
  EXPECT_GT(labels["truck"], 0);
  EXPECT_EQ(labels.count("stop sign"), 0u);
}

/// Stands in for the RSU's OpenC2X API: records every DENM trigger.
struct FakeRsu final : middleware::OpenC2xEndpoint {
  std::vector<its::DenmRequest> triggers;

  its::ActionId trigger_denm(const its::DenmRequest& request) override {
    triggers.push_back(request);
    return {900, static_cast<std::uint16_t>(triggers.size())};
  }
  std::vector<its::Denm> request_denm() override { return {}; }
};

struct EdgeRig {
  sim::Scheduler sched;
  sim::RandomStream rng{11, "edge"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  EdgeBus bus{sched, rng.child("bus")};
  middleware::HttpLan lan{sched, rng.child("lan")};
  FakeRsu rsu;
  RoadsideCamera camera{sched, {.position = {0, 8}, .facing_rad = M_PI}};
  YoloSimulator yolo{rng.child("yolo")};
  ObjectDetectionService detection{sched, bus, camera, yolo, rng.child("od")};
  its::Ldm ldm{sched, frame};
  HazardAdvertisementService hazard{sched,
                                    bus,
                                    lan,
                                    frame,
                                    {0, 8},
                                    M_PI,
                                    rng.child("hz"),
                                    {},
                                    &ldm};

  EdgeRig() { lan.attach("rsu", rsu); }
};

TEST(ObjectDetection, PublishesBatchesAtConfiguredRate) {
  EdgeRig rig;
  geo::Vec2 pos{0, 5};
  rig.camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  int batches = 0;
  rig.bus.detections.subscribe([&](const SharedDetectionBatch& b) {
    if (!b->detections.empty()) ++batches;
  });
  rig.detection.start();
  rig.sched.run_until(5_s);
  // ~4 FPS for 5 s with 97% per-frame detection: most batches non-empty.
  EXPECT_GE(batches, 14);
  EXPECT_LE(batches, 21);
  EXPECT_NEAR(rig.detection.effective_fps(), 4.0, 0.5);
}

TEST(ObjectDetection, RangeRateTracksApproach) {
  EdgeRig rig;
  geo::Vec2 pos{0, 0};
  rig.camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  std::vector<double> range_rates;
  rig.bus.detections.subscribe([&](const SharedDetectionBatch& b) {
    for (const auto& d : b->detections) {
      if (d.range_rate_mps != 0) range_rates.push_back(d.range_rate_mps);
    }
  });
  rig.detection.start();
  // Approach the camera at 1 m/s.
  std::function<void()> move = [&] {
    pos.y += 0.05;
    rig.sched.post_in(50_ms, move);
  };
  rig.sched.post_in(50_ms, move);
  rig.sched.run_until(4_s);
  ASSERT_GT(range_rates.size(), 5u);
  sim::RunningStats rr;
  for (double v : range_rates) rr.add(v);
  EXPECT_NEAR(rr.mean(), -1.0, 0.25);  // negative: approaching
}

TEST(Hazard, TriggersOnceWhenThresholdCrossed) {
  EdgeRig rig;
  geo::Vec2 pos{0, 2};  // 6 m from camera, outside stop-sign range? (6 m max: at edge)
  rig.camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  rig.detection.start();
  rig.hazard.start();
  // Move toward the camera at 1 m/s.
  std::function<void()> move = [&] {
    pos.y += 0.05;
    rig.sched.post_in(50_ms, move);
  };
  rig.sched.post_in(50_ms, move);
  rig.sched.run_until(5500_ms);  // past the crossing, before LDM-object expiry
  EXPECT_EQ(rig.hazard.stats().denms_triggered, 1u);
  ASSERT_EQ(rig.rsu.triggers.size(), 1u);
  // The perceived object landed in the LDM, at the event position.
  const auto objects = rig.ldm.perceived_objects();
  ASSERT_EQ(objects.size(), 1u);
  // The RSU is asked for a crossing collision risk (97/2, paper Table I)
  // around the perceived road user.
  const its::DenmRequest& request = rig.rsu.triggers[0];
  EXPECT_EQ(request.event_type.cause_code, 97);
  EXPECT_EQ(request.event_type.sub_cause_code, 2);
  EXPECT_EQ(request.information_quality, 5);
  EXPECT_EQ(request.event_position, objects[0].position);
  EXPECT_EQ(request.validity, 10_s);
  EXPECT_FALSE(request.repetition_interval.has_value());
  EXPECT_EQ(request.destination_area.shape, geo::AreaShape::Circle);
  EXPECT_EQ(request.destination_area.center, request.event_position);
  EXPECT_EQ(request.destination_area.a, 100.0);
  // The road user's approach speed, from the tracked range rate.
  ASSERT_TRUE(request.event_speed_mps.has_value());
  EXPECT_NEAR(*request.event_speed_mps, objects[0].velocity.norm(), 1e-9);
  EXPECT_NEAR(*request.event_speed_mps, 1.0, 0.5);
  EXPECT_FALSE(request.event_heading_rad.has_value());
  EXPECT_EQ(request.station_type, its::StationType::RoadSideUnit);
}

TEST(Hazard, NoTriggerWhileFarAway) {
  EdgeRig rig;
  geo::Vec2 pos{0, 4};  // 4 m away, threshold is 1.52 m
  rig.camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  rig.detection.start();
  rig.hazard.start();
  rig.sched.run_until(5_s);
  EXPECT_EQ(rig.hazard.stats().denms_triggered, 0u);
  EXPECT_GT(rig.hazard.stats().batches_seen, 10u);
}

TEST(Hazard, MinRangeDefaultActsAsBackstop) {
  EdgeRig rig;
  // Track the object in the narrow band between the 1.52 m threshold and
  // the 1.73 m default (so it is known to be approaching), then jump it
  // inside the min working range in one step — the situation where the
  // frames between threshold and min range were all missed.
  geo::Vec2 pos{0, 6.4};  // 1.6 m from the camera
  rig.camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  rig.detection.start();
  rig.hazard.start();
  rig.sched.run_until(1500_ms);       // tracked at ~1.6 m
  pos = {0, 7.6};                     // 0.4 m: YOLO now reports the 1.73 default
  rig.sched.run_until(4_s);
  EXPECT_GE(rig.hazard.stats().denms_triggered, 1u);
}

/// Rig with the camera watching the *crossing* road (facing east): the
/// protagonist is known only through CAMs in the LDM, the crossing road
/// user only through the camera — the genuine Fig. 1 arrangement.
struct CpaRig {
  sim::Scheduler sched;
  sim::RandomStream rng{21, "cpa_rig"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  EdgeBus bus{sched, rng.child("bus")};
  middleware::HttpLan lan{sched, rng.child("lan")};
  FakeRsu rsu;
  RoadsideCamera camera{sched, {.position = {0, 8}, .facing_rad = M_PI / 2, .max_range_m = 12.0}};
  YoloSimulator yolo{rng.child("yolo")};
  ObjectDetectionService detection{sched, bus, camera, yolo, rng.child("od")};
  its::Ldm ldm{sched, frame};
  HazardAdvertisementService hazard;

  CpaRig()
      : hazard{sched,
               bus,
               lan,
               frame,
               {0, 8},
               M_PI / 2,
               rng.child("hz"),
               HazardServiceConfig{.trigger_mode = HazardTriggerMode::CpaPrediction},
               &ldm} {
    ldm.set_vehicle_entry_lifetime(sim::SimTime::seconds(60));
    lan.attach("rsu", rsu);
  }

  void put_vehicle_in_ldm(its::StationId id, geo::Vec2 pos, double heading_rad, double speed) {
    its::Cam cam;
    cam.header.station_id = id;
    const geo::GeoPosition gp = frame.to_geo(pos);
    cam.basic.reference_position.latitude = geo::to_its_tenth_microdegree(gp.latitude_deg);
    cam.basic.reference_position.longitude = geo::to_its_tenth_microdegree(gp.longitude_deg);
    cam.high_frequency.speed = its::Speed::from_mps(speed);
    cam.high_frequency.heading.value_01deg =
        static_cast<std::uint16_t>(std::fmod(heading_rad * 180.0 / M_PI + 360.0, 360.0) * 10.0);
    ldm.update_from_cam(cam);
  }
};

TEST(HazardCpa, PredictsCrossingCollisionFromLdmAndCamera) {
  CpaRig rig;
  // Protagonist northbound towards the intersection at (0, 8).
  rig.put_vehicle_in_ldm(42, {0, 2.0}, 0.0, 1.2);
  // Crossing road user approaches the same point from the east.
  geo::Vec2 user{5.8, 8.0};
  rig.camera.add_object({1, [&] { return user; }, Presentation::StopSign, "car"});
  std::function<void()> move = [&] {
    user.x -= 0.06;  // 1.2 m/s sampled at 50 ms
    rig.sched.post_in(50_ms, move);
  };
  rig.sched.post_in(50_ms, move);
  rig.detection.start();
  rig.hazard.start();
  rig.sched.run_until(4_s);
  EXPECT_GE(rig.rsu.triggers.size(), 1u);
  EXPECT_GE(rig.hazard.stats().crossings_detected, 1u);
}

TEST(HazardCpa, NoTriggerWhenUserTurnsAway) {
  CpaRig rig;
  rig.put_vehicle_in_ldm(42, {0, 2.0}, 0.0, 1.2);
  // The road user moves *away* from the conflict point.
  geo::Vec2 user{4.0, 8.0};
  rig.camera.add_object({1, [&] { return user; }, Presentation::StopSign, "car"});
  std::function<void()> move = [&] {
    user.x += 0.06;  // eastbound, diverging
    rig.sched.post_in(50_ms, move);
  };
  rig.sched.post_in(50_ms, move);
  rig.detection.start();
  rig.hazard.start();
  rig.sched.run_until(4_s);
  EXPECT_TRUE(rig.rsu.triggers.empty());
}

TEST(HazardCpa, NoTriggerWithoutLdmVehicle) {
  CpaRig rig;  // LDM left empty: no protagonist to protect
  geo::Vec2 user{5.8, 8.0};
  rig.camera.add_object({1, [&] { return user; }, Presentation::StopSign, "car"});
  std::function<void()> move = [&] {
    user.x -= 0.06;
    rig.sched.post_in(50_ms, move);
  };
  rig.sched.post_in(50_ms, move);
  rig.detection.start();
  rig.hazard.start();
  rig.sched.run_until(4_s);
  EXPECT_TRUE(rig.rsu.triggers.empty());
}

TEST(MultiCamera, TwoCamerasFeedOneHazardService) {
  // Two cameras watching different roads publish into the same detection
  // topic; the hazard service reacts to whichever sees a crossing first.
  EdgeRig rig;  // camera #1 at (0,8) facing south
  RoadsideCamera camera2{rig.sched, {.position = {8, 8}, .facing_rad = 3 * M_PI / 2}};
  ObjectDetectionService detection2{rig.sched,       rig.bus, camera2, rig.yolo,
                                    rig.rng.child("od2")};
  // An object approaching camera #2 only (out of camera #1's view).
  geo::Vec2 pos{4.5, 8.0};
  camera2.add_object({77, [&] { return pos; }, Presentation::StopSign, "car"});
  rig.detection.start();
  detection2.start();
  rig.hazard.start();
  std::function<void()> move = [&] {
    pos.x += 0.05;  // towards camera #2 at 1 m/s
    rig.sched.post_in(50_ms, move);
  };
  rig.sched.post_in(50_ms, move);
  rig.sched.run_until(4_s);
  EXPECT_EQ(rig.hazard.stats().denms_triggered, 1u);
  ASSERT_EQ(rig.rsu.triggers.size(), 1u);
}

TEST(HazardCamPairs, TwoCamVehiclesOnCollisionCourseTriggerDenm) {
  // No camera detection at all: the assessment runs purely on CAMs (paper
  // §II-A: the infrastructure "could also receive information ... from CA
  // Messages broadcast by vehicles").
  sim::Scheduler sched;
  sim::RandomStream rng{31, "campair"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  EdgeBus bus{sched, rng.child("bus")};
  middleware::HttpLan lan{sched, rng.child("lan")};
  FakeRsu rsu;
  lan.attach("rsu", rsu);
  its::Ldm ldm{sched, frame};
  ldm.set_vehicle_entry_lifetime(sim::SimTime::seconds(60));
  HazardServiceConfig config;
  config.monitor_cam_pairs = true;
  HazardAdvertisementService hazard{sched, bus,     lan,    frame, {0, 8}, M_PI / 2,
                                    rng.child("hz"), config, &ldm};

  // Vehicle 1 northbound, vehicle 2 westbound, meeting at (0, 8) in ~4 s.
  const auto put = [&](its::StationId id, geo::Vec2 pos, double heading, double speed) {
    its::Cam cam;
    cam.header.station_id = id;
    const geo::GeoPosition gp = frame.to_geo(pos);
    cam.basic.reference_position.latitude = geo::to_its_tenth_microdegree(gp.latitude_deg);
    cam.basic.reference_position.longitude = geo::to_its_tenth_microdegree(gp.longitude_deg);
    cam.high_frequency.speed = its::Speed::from_mps(speed);
    cam.high_frequency.heading.value_01deg =
        static_cast<std::uint16_t>(std::fmod(heading * 180.0 / M_PI + 360.0, 360.0) * 10.0);
    ldm.update_from_cam(cam);
  };
  put(42, {0, 3.2}, 0.0, 1.2);
  put(43, {4.8, 8.0}, 3 * M_PI / 2, 1.2);
  hazard.start();
  sched.run_until(sim::SimTime::seconds(2));
  ASSERT_GE(rsu.triggers.size(), 1u);
  EXPECT_EQ(rsu.triggers[0].event_type.cause_code, 97);

  // Diverging vehicles never trigger.
  rsu.triggers.clear();
  hazard.rearm();
  put(42, {0, 3.2}, 0.0, 1.2);
  put(43, {4.8, 8.0}, M_PI / 2, 1.2);  // eastbound, away from the conflict
  sched.run_until(sched.now() + sim::SimTime::seconds(2));
  // (the stale crossing pair has expired from the 2 s-old entries? no:
  // 60 s lifetime — but both entries were overwritten above)
  EXPECT_TRUE(rsu.triggers.empty());
}

TEST(Hazard, RearmAllowsSecondTrigger) {
  EdgeRig rig;
  HazardServiceConfig config;
  config.rearm_delay = 500_ms;
  // Rebuild hazard with the short re-arm via a fresh rig member is complex;
  // instead drive the default service through rearm() directly.
  geo::Vec2 pos{0, 6.8};  // 1.2 m: below threshold immediately
  rig.camera.add_object({1, [&] { return pos; }, Presentation::StopSign, "car"});
  rig.detection.start();
  rig.hazard.start();
  rig.sched.run_until(2_s);
  EXPECT_EQ(rig.hazard.stats().denms_triggered, 1u);
  rig.hazard.rearm();
  rig.sched.run_until(4_s);
  EXPECT_GE(rig.hazard.stats().denms_triggered, 2u);
}

}  // namespace
}  // namespace rst::roadside
