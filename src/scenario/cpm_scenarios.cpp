#include "rst/scenario/cpm_scenarios.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <memory>

#include "rst/core/testbed.hpp"
#include "rst/geo/obstacle_grid.hpp"
#include "rst/roadside/collision_predictor.hpp"

namespace rst::scenario {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnvPrime;
  }
}

void fnv_mix(std::uint64_t& h, double v) { fnv_mix(h, std::bit_cast<std::uint64_t>(v)); }

void fnv_mix(std::uint64_t& h, sim::SimTime t) {
  fnv_mix(h, static_cast<std::uint64_t>(t.count_ns()));
}

}  // namespace

std::uint64_t OccludedPedestrianReport::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(cpm_enabled));
  fnv_mix(h, static_cast<std::uint64_t>(braked));
  fnv_mix(h, t_brake);
  fnv_mix(h, static_cast<std::uint64_t>(los_seen));
  fnv_mix(h, t_los);
  fnv_mix(h, static_cast<std::uint64_t>(fused));
  fnv_mix(h, t_first_fusion);
  fnv_mix(h, min_separation_m);
  fnv_mix(h, objects_published);
  fnv_mix(h, objects_fused);
  fnv_mix(h, cpms_sent);
  fnv_mix(h, cpms_received);
  return h;
}

std::uint64_t BlindIntersectionReport::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(cpm_enabled));
  fnv_mix(h, static_cast<std::uint64_t>(threat_flagged));
  fnv_mix(h, t_threat);
  fnv_mix(h, static_cast<std::uint64_t>(threat_source));
  fnv_mix(h, static_cast<std::uint64_t>(b_braked));
  fnv_mix(h, min_gap_m);
  fnv_mix(h, cpms_sent);
  fnv_mix(h, cpms_received);
  fnv_mix(h, objects_fused);
  return h;
}

// --- Occluded pedestrian -----------------------------------------------------
//
// Geometry (east-north metres):
//
//            camera (2.2,12) looking south, RSU (2.2,11.5)
//       11 +  wall x=0.8
//          |                 pedestrian (3,10) walking west at 0.25 m/s
//          |
//        2 +
//            vehicle (0,0.5) line-following north along x=0
//
// The wall spans y in [2,11] at x=0.8: it blocks the vehicle's (and its
// LiDAR's) sight line to the pedestrian for the whole approach, while the
// camera past the wall end keeps a clear view. The pedestrian's closest
// approach to the camera stays ~2.0 m, outside the 1.52 m Action Point, so
// the classic DENM chain never fires — only CPM fusion can warn the OBU.

OccludedPedestrianReport run_occluded_pedestrian(std::uint64_t seed, bool cpm_enable) {
  core::TestbedConfig cfg;
  cfg.seed = seed;
  cfg.track_start = {0, 0};
  cfg.track_end = {0, 14};
  cfg.vehicle_start = {0, 0.5};
  cfg.camera_position = {2.2, 12.0};
  cfg.camera_facing_rad = M_PI;  // optical axis south, down the track
  cfg.rsu_position = {2.2, 11.5};
  const geo::Vec2 wall_a{0.8, 2.0};
  const geo::Vec2 wall_b{0.8, 11.0};
  cfg.walls.push_back({wall_a, wall_b, 12.0});
  cfg.cpm_enable = cpm_enable;
  cfg.cpm_interval = sim::SimTime::milliseconds(100);

  core::TestbedScenario scenario{cfg};
  // Pedestrian: east of the wall, walking west towards the track.
  const geo::Vec2 ped_start{3.0, 10.0};
  const double ped_speed = 0.25;
  scenario.add_road_user(ped_start, 1.5 * M_PI, ped_speed, roadside::Presentation::StopSign);
  scenario.start_services();

  auto& sched = scenario.scheduler();
  const sim::SimTime t0 = sched.now();
  const sim::SimTime horizon = t0 + sim::SimTime::seconds(10);

  OccludedPedestrianReport report;
  report.cpm_enabled = cpm_enable;
  while (sched.now() < horizon) {
    sched.run_until(sched.now() + sim::SimTime::milliseconds(1));
    if (!report.los_seen) {
      const double t = (sched.now() - t0).to_seconds();
      const geo::Vec2 ped{ped_start.x - ped_speed * t, ped_start.y};
      if (!geo::segments_intersect(scenario.dynamics().position(), ped, wall_a, wall_b)) {
        report.los_seen = true;
        report.t_los = sched.now();
      }
    }
  }

  if (const auto* cut = scenario.trace().find_event(sim::Stage::PowerCutCommand, t0)) {
    report.braked = true;
    report.t_brake = cut->when;
  }
  if (const auto* fusion = scenario.trace().find_event(sim::Stage::CpmFusion, t0,
                                                       scenario.config().obu.station_id)) {
    report.fused = true;
    report.t_first_fusion = fusion->when;
  }
  report.min_separation_m = scenario.min_separation_m();
  if (cpm_enable) {
    const auto& rsu = scenario.rsu().cpm()->stats();
    const auto& obu = scenario.obu().cpm()->stats();
    report.objects_published = rsu.objects_published + obu.objects_published;
    report.objects_fused = obu.objects_fused + rsu.objects_fused;
    report.cpms_sent = rsu.cpms_sent + obu.cpms_sent;
    report.cpms_received = rsu.cpms_received + obu.cpms_received;
  }
  return report;
}

// --- Blind intersection ------------------------------------------------------
//
// Two building walls form an L around the south-west corner of a crossing:
// a cyclist rides east along y=0 behind the east-west wall while vehicle B
// drives north along x=0 behind the north-south wall. A parked observer
// station at (-4,1) inside the corner sees the cyclist and publishes it
// over CPM; B's collision predictor fires on the fused percept seconds
// before either could see the other.

BlindIntersectionReport run_blind_intersection(std::uint64_t seed, bool cpm_enable) {
  sim::Scheduler sched;
  sim::Trace trace;
  sim::RandomStream rng{seed, "blindx"};
  const geo::LocalFrame frame{geo::GeoPosition{41.1780, -8.6080}};

  dot11p::ChannelModel channel;
  auto base = std::make_unique<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.1));
  const std::vector<dot11p::Wall> walls{{{-2, -2}, {-2, -20}, 15.0},
                                        {{-2, -2}, {-20, -2}, 15.0}};
  channel.path_loss =
      std::make_shared<const dot11p::ObstacleShadowingModel>(std::move(base), walls, true);
  channel.shadowing_sigma_db = 2.0;
  dot11p::Medium medium{sched, rng.child("medium"), std::move(channel)};
  middleware::HttpLan lan{sched, rng.child("lan")};

  const sim::SimTime cpm_interval = sim::SimTime::milliseconds(100);
  core::ItsStationConfig observer_cfg;
  observer_cfg.station_id = 101;
  observer_cfg.station_type = its::StationType::RoadSideUnit;
  observer_cfg.name = "observer";
  if (cpm_enable) {
    observer_cfg.enable_cpm = true;
    observer_cfg.cpm.interval = cpm_interval;
  }
  const geo::Vec2 observer_pos{-4, 1};
  core::ItsStation observer{
      sched,          medium,
      lan,            frame,
      observer_cfg,   [observer_pos] { return its::EgoState{observer_pos, 0.0, 0.0}; },
      [observer_pos] { return observer_pos; },
      rng.child("a"), &trace};

  // Vehicle B: northbound along x=0 at 8 m/s, frozen in place once its
  // predictor latches a threat (the braked state the report asserts on).
  struct BState {
    bool braked{false};
    geo::Vec2 hold{};
  } b_state;
  const auto b_position = [&sched, &b_state] {
    if (b_state.braked) return b_state.hold;
    return geo::Vec2{0, -30 + 8 * sched.now().to_seconds()};
  };
  core::ItsStationConfig b_cfg;
  b_cfg.station_id = 202;
  b_cfg.station_type = its::StationType::PassengerCar;
  b_cfg.name = "vehicle-b";
  if (cpm_enable) {
    b_cfg.enable_cpm = true;
    b_cfg.cpm.interval = cpm_interval;
  }
  core::ItsStation b{sched,
                     medium,
                     lan,
                     frame,
                     b_cfg,
                     [&b_position, &b_state] {
                       return its::EgoState{b_position(), b_state.braked ? 0.0 : 8.0, 0.0};
                     },
                     b_position,
                     rng.child("b"),
                     &trace};

  // The observer's local sensing: a cyclist percept refreshed at 10 Hz
  // (eastbound along y=0, crossing B's path at the intersection).
  const auto cyclist_at = [](sim::SimTime t) {
    return geo::Vec2{-12 + 3 * t.to_seconds(), 0};
  };
  std::function<void()> feed_cyclist = [&] {
    its::PerceivedObject obj;
    obj.object_id = 7;
    obj.classification = "bicycle";
    obj.position = cyclist_at(sched.now());
    obj.velocity = {3, 0};
    obj.confidence = 0.9;
    observer.ldm().update_perceived_object(obj);
    sched.post_in(sim::SimTime::milliseconds(100), [&feed_cyclist] { feed_cyclist(); });
  };
  feed_cyclist();

  BlindIntersectionReport report;
  report.cpm_enabled = cpm_enable;
  // Outlives the run loop below: the fused callback holds it by reference.
  const roadside::CollisionPredictor predictor{
      {.horizon_s = 5.0, .conflict_distance_m = 2.0, .max_pair_distance_m = 60.0}};
  if (cpm_enable) {
    b.cpm()->set_fused_callback(
        [&](const its::PerceivedObject& object, const its::GnDeliveryMeta&) {
          if (report.threat_flagged) return;
          its::LdmVehicleEntry ego;
          ego.station_id = b_cfg.station_id;
          ego.position = b_position();
          ego.speed_mps = b_state.braked ? 0.0 : 8.0;
          ego.heading_rad = 0.0;
          const auto threat = predictor.assess(object.position, object.velocity, {ego});
          if (!threat) return;
          report.threat_flagged = true;
          report.t_threat = sched.now();
          report.threat_source = object.source_station;
          b_state.hold = b_position();
          b_state.braked = true;
        });
    observer.cpm()->start();
    b.cpm()->start();
  }

  const sim::SimTime horizon = sim::SimTime::seconds(6);
  double min_gap = geo::distance(b_position(), cyclist_at(sched.now()));
  while (sched.now() < horizon) {
    sched.run_until(sched.now() + sim::SimTime::milliseconds(10));
    min_gap = std::min(min_gap, geo::distance(b_position(), cyclist_at(sched.now())));
  }
  report.b_braked = b_state.braked;
  report.min_gap_m = min_gap;
  if (cpm_enable) {
    report.cpms_sent = observer.cpm()->stats().cpms_sent + b.cpm()->stats().cpms_sent;
    report.cpms_received = observer.cpm()->stats().cpms_received + b.cpm()->stats().cpms_received;
    report.objects_fused = observer.cpm()->stats().objects_fused + b.cpm()->stats().objects_fused;
  }
  return report;
}

}  // namespace rst::scenario
