#include "rst/core/testbed.hpp"

#include <algorithm>
#include <cmath>

#include "rst/core/config_io.hpp"

namespace rst::core {

namespace {
std::unique_ptr<dot11p::PathLossModel> make_path_loss(const TestbedConfig& cfg) {
  auto base = std::make_unique<dot11p::LogDistanceModel>(
      dot11p::LogDistanceModel::its_g5(cfg.path_loss_exponent));
  if (cfg.walls.empty()) return base;
  return std::make_unique<dot11p::ObstacleShadowingModel>(std::move(base), cfg.walls,
                                                          cfg.obstacle_index);
}
}  // namespace

void TestbedConfig::validate() const {
  config_fields().check(*this);
  const auto positive = [](double v, const char* field) {
    if (!(v > 0)) throw std::invalid_argument{std::string{"TestbedConfig: "} + field +
                                              " must be positive"};
  };
  positive(vehicle_params.mass_kg, "vehicle_params.mass_kg");
  positive(vehicle_params.wheelbase_m, "vehicle_params.wheelbase_m");
  positive(vehicle_params.max_motor_force_n, "vehicle_params.max_motor_force_n");
  positive(vehicle_params.power_cut_decel_mps2, "vehicle_params.power_cut_decel_mps2");
  if (cpm_enable) {
    if (cpm_interval <= sim::SimTime::zero()) {
      throw std::invalid_argument{"TestbedConfig: cpm_interval must be positive"};
    }
    if (cpm_object_lifetime <= sim::SimTime::zero()) {
      throw std::invalid_argument{"TestbedConfig: cpm_object_lifetime must be positive"};
    }
    if (cpm_redundancy_window < sim::SimTime::zero()) {
      throw std::invalid_argument{"TestbedConfig: cpm_redundancy_window must be non-negative"};
    }
  }
  if (geo::distance(track_start, track_end) < 1e-6) {
    throw std::invalid_argument{"TestbedConfig: track_start and track_end coincide"};
  }
  if (obu.station_id == rsu.station_id) {
    throw std::invalid_argument{"TestbedConfig: obu and rsu station ids must differ"};
  }
  if (obu.name == rsu.name) {
    throw std::invalid_argument{"TestbedConfig: obu and rsu hostnames must differ"};
  }
}

TestbedScenario::TestbedScenario(TestbedConfig config)
    : config_{std::move(config)}, rng_{config_.seed, "testbed"}, frame_{config_.origin} {
  config_.validate();
  // The injector exists only when there is a plan: with no plan every
  // component hook stays a null-pointer no-op and the run is byte-identical
  // to one without the fault subsystem (no extra events, no extra draws).
  if (!config_.fault_plan.empty()) {
    faults_ = std::make_unique<sim::FaultInjector>(sched_, rng_.child("faults"),
                                                   config_.fault_plan, &trace_);
  }
  dot11p::ChannelModel channel;
  channel.path_loss = std::shared_ptr<const dot11p::PathLossModel>{make_path_loss(config_)};
  channel.shadowing_sigma_db = config_.shadowing_sigma_db;
  channel.power_floor_dbm = config_.medium_power_floor_dbm;
  medium_ = std::make_unique<dot11p::Medium>(sched_, rng_.child("medium"), std::move(channel));
  medium_->set_fault_injector(faults_.get());
  lan_ = std::make_unique<middleware::HttpLan>(sched_, rng_.child("lan"), config_.lan);
  lan_->set_fault_injector(faults_.get());
  vehicle_bus_ = std::make_unique<vehicle::VehicleBus>(sched_, rng_.child("vbus"));
  edge_bus_ = std::make_unique<roadside::EdgeBus>(sched_, rng_.child("ebus"));

  // --- Vehicle ---
  track_ = std::make_unique<vehicle::Track>(
      vehicle::Track::straight(config_.track_start, config_.track_end));
  dynamics_ = std::make_unique<vehicle::VehicleDynamics>(sched_, config_.vehicle_params,
                                                         rng_.child("vehicle"));
  const double initial_heading =
      geo::heading_from_vector(config_.track_end - config_.track_start);
  dynamics_->reset(config_.vehicle_start, initial_heading);
  line_sensor_ = std::make_unique<vehicle::LineCameraSensor>(
      sched_, *vehicle_bus_, *track_, *dynamics_, rng_.child("line"), config_.line_sensor);
  planner_ = std::make_unique<vehicle::MotionPlanner>(sched_, *vehicle_bus_, config_.planner,
                                                      &trace_);
  jetson_clock_ = std::make_unique<middleware::NtpClock>(sched_, rng_.child("jclock"), "jetson",
                                                         config_.jetson_ntp);
  control_ = std::make_unique<vehicle::ControlModule>(sched_, *vehicle_bus_, *dynamics_,
                                                      rng_.child("control"), config_.control,
                                                      &trace_, jetson_clock_.get());
  if (config_.enable_lidar_aeb) {
    lidar_ = std::make_unique<vehicle::ScanningLidar>(sched_, *vehicle_bus_, *dynamics_,
                                                      rng_.child("lidar"), config_.lidar);
    lidar_->set_walls(config_.walls);
    aeb_ = std::make_unique<vehicle::AebController>(sched_, *vehicle_bus_, config_.aeb, &trace_);
  }
  if (config_.message_handler.watchdog) {
    // Graceful degradation: while infrastructure contact is lost the AEB is
    // the armed stop path (the planner independently caps its speed).
    vehicle_bus_->watchdog.subscribe([this](const vehicle::WatchdogState& state) {
      if (!aeb_) return;
      if (state.degraded) aeb_->start();
      else aeb_->stop();
    });
  }
  vehicle::MessageHandler::Config mh_config = config_.message_handler;
  mh_config.obu_hostname = config_.obu.name;
  message_handler_ = std::make_unique<vehicle::MessageHandler>(
      sched_, *vehicle_bus_, *lan_, rng_.child("handler"), mh_config, &trace_);

  // --- Road-side infrastructure ---
  roadside::RoadsideCamera::Config cam_config = config_.camera;
  cam_config.position = config_.camera_position;
  cam_config.facing_rad = config_.camera_facing_rad;
  camera_ = std::make_unique<roadside::RoadsideCamera>(sched_, cam_config);
  camera_->set_fault_injector(faults_.get());
  camera_->set_walls(config_.walls);  // buildings block the optical LOS too
  camera_->add_object({next_object_id_++, [this] { return dynamics_->position(); },
                       config_.presentation, "car"});
  yolo_ = std::make_unique<roadside::YoloSimulator>(rng_.child("yolo"), config_.yolo);
  yolo_->set_fault_injector(faults_.get());
  detection_ = std::make_unique<roadside::ObjectDetectionService>(
      sched_, *edge_bus_, *camera_, *yolo_, rng_.child("od"), config_.detection, &trace_);
  roadside::HazardAdvertisementService::Config hz_config = config_.hazard;
  hz_config.rsu_hostname = config_.rsu.name;
  edge_clock_ = std::make_unique<middleware::NtpClock>(sched_, rng_.child("eclock"), "edge",
                                                       config_.edge_ntp);

  // --- Stations (before the hazard service, which needs the RSU's LDM) ---
  if (config_.cpm_enable) {
    const auto enable_cpm = [&](ItsStationConfig& st) {
      st.enable_cpm = true;
      st.cpm.interval = config_.cpm_interval;
      st.cpm.redundancy_window = config_.cpm_redundancy_window;
      // Remote percepts pass the same quality bar as local detections do
      // at the hazard gate.
      st.cpm.fusion_min_confidence = config_.hazard.min_confidence;
    };
    enable_cpm(config_.obu);
    enable_cpm(config_.rsu);
  }
  if (config_.use_gnss) {
    gnss_ = std::make_unique<vehicle::GnssReceiver>(sched_, *dynamics_, rng_.child("gnss"),
                                                    config_.gnss);
    gnss_->set_fault_injector(faults_.get());
  }
  obu_ = std::make_unique<ItsStation>(
      sched_, *medium_, *lan_, frame_, config_.obu,
      [this] {
        // A real OBU advertises its GNSS fix, not ground truth.
        const geo::Vec2 pos = gnss_ ? gnss_->position() : dynamics_->position();
        return its::EgoState{pos, dynamics_->speed_mps(), dynamics_->heading_rad()};
      },
      // The antenna itself is where the vehicle is.
      [this] { return dynamics_->position(); }, rng_.child("obu"), &trace_);
  rsu_ = std::make_unique<ItsStation>(
      sched_, *medium_, *lan_, frame_, config_.rsu,
      [pos = config_.rsu_position] { return its::EgoState{pos, 0.0, 0.0}; },
      [pos = config_.rsu_position] { return pos; }, rng_.child("rsu"), &trace_);

  if (config_.cpm_enable) {
    obu_->ldm().set_perceived_object_lifetime(config_.cpm_object_lifetime);
    rsu_->ldm().set_perceived_object_lifetime(config_.cpm_object_lifetime);
    obu_->cpm()->set_metrics(&metrics_);
    rsu_->cpm()->set_metrics(&metrics_);
    // The detection stream feeds the RSU's LDM continuously (not only at
    // DENM trigger time) so the CP service has percepts to publish.
    edge_bus_->detections.subscribe(
        [this](const roadside::SharedDetectionBatch& batch) { feed_rsu_ldm(*batch); });
    // The OBU consumes the fused picture: every accepted remote percept is
    // assessed against the ego track by the collision predictor.
    obu_->cpm()->set_fused_callback(
        [this](const its::PerceivedObject& object, const its::GnDeliveryMeta&) {
          on_fused_percept(object);
        });
  }

  hazard_ = std::make_unique<roadside::HazardAdvertisementService>(
      sched_, *edge_bus_, *lan_, frame_, config_.camera_position, config_.camera_facing_rad,
      rng_.child("hazard"), hz_config, &rsu_->ldm(), &trace_);

  // Alternative warning bearer: RSU -> vehicle over a cellular network,
  // push-delivered to a 5G modem that feeds the motion planner directly.
  if (config_.warning_path != WarningPath::ItsG5) {
    const auto cell_config = config_.warning_path == WarningPath::CellularUrllc
                                 ? cellular::CellularConfig::urllc()
                                 : cellular::CellularConfig{};
    cellular_ = std::make_unique<cellular::CellularNetwork>(sched_, rng_.child("cellular"),
                                                            cell_config);
    cellular_->create_endpoint("rsu");
    auto& modem = cellular_->create_endpoint("vehicle");
    modem.set_receive_callback(
        [this](const std::vector<std::uint8_t>& payload, const std::string&) {
          its::Denm denm;
          try {
            denm = its::Denm::decode(payload);
          } catch (const asn1::DecodeError&) {
            return;
          }
          trace_.record_event(sched_.now(), sim::Stage::ModemDenmRx, config_.obu.station_id,
                              sim::pack_action(denm.management.action_id.originating_station,
                                               denm.management.action_id.sequence_number));
          if (!vehicle::MessageHandler::is_emergency(denm)) return;
          // Modem-to-application handling, then straight to the planner.
          sched_.post_in(sim::SimTime::microseconds(600), [this] {
            vehicle_bus_->v2x_emergency.publish(vehicle::EmergencyStop{});
          });
        });
    rsu_->den().set_transmit_hook([this](const its::Denm& denm) {
      cellular_->send("rsu", "vehicle", denm.encode());
    });
  }
}

TestbedScenario::~TestbedScenario() = default;

void TestbedScenario::add_road_user(geo::Vec2 start, double heading_rad, double speed_mps,
                                    roadside::Presentation presentation) {
  RoadUser user{start, geo::vector_from_heading(heading_rad) * speed_mps, sched_.now()};
  road_users_.push_back(user);
  const auto index = road_users_.size() - 1;
  const auto position_fn = [this, index] {
    const RoadUser& u = road_users_[index];
    return u.start + u.velocity * (sched_.now() - u.t0).to_seconds();
  };
  camera_->add_object({next_object_id_++, position_fn, presentation, "car"});
  if (lidar_) lidar_->add_target({position_fn, 0.15});
  if (road_users_.size() == 1) schedule_separation_probe();
}

void TestbedScenario::add_static_obstacle(geo::Vec2 position, roadside::Presentation presentation,
                                          double radius_m) {
  camera_->add_object({next_object_id_++, [position] { return position; }, presentation, "car"});
  if (lidar_) lidar_->add_target({[position] { return position; }, radius_m});
}

void TestbedScenario::schedule_separation_probe() {
  sched_.post_in(sim::SimTime::milliseconds(10), [this] {
    for (const auto& u : road_users_) {
      const geo::Vec2 up = u.start + u.velocity * (sched_.now() - u.t0).to_seconds();
      min_separation_ = std::min(min_separation_, geo::distance(dynamics_->position(), up));
    }
    schedule_separation_probe();
  });
}

void TestbedScenario::feed_rsu_ldm(const roadside::DetectionBatch& batch) {
  for (const auto& det : batch.detections) {
    const geo::Vec2 dir =
        geo::vector_from_heading(config_.camera_facing_rad + det.detection.bearing_rad);
    its::PerceivedObject obj;
    obj.object_id = det.detection.object_id;
    obj.classification = det.detection.label;
    obj.position = config_.camera_position + dir * det.detection.estimated_distance_m;
    obj.confidence = det.detection.confidence;
    obj.measured = det.capture_time;
    // World-frame velocity by smoothed finite differences: the tracker's
    // range rate only captures the radial component.
    auto [it, fresh] = cpm_feed_tracks_.try_emplace(obj.object_id);
    if (!fresh) {
      const double dt = (det.capture_time - it->second.at).to_seconds();
      if (dt > 1e-6) {
        const geo::Vec2 raw = (obj.position - it->second.position) * (1.0 / dt);
        it->second.velocity = it->second.velocity * 0.35 + raw * 0.65;
      }
    }
    it->second.position = obj.position;
    it->second.at = det.capture_time;
    obj.velocity = it->second.velocity;
    rsu_->ldm().update_perceived_object(obj);
  }
}

void TestbedScenario::on_fused_percept(const its::PerceivedObject& object) {
  if (cpm_stop_latched_) return;
  // The RSU's camera also perceives the protagonist itself; that percept
  // comes back over CPM co-located with the ego and would read as a
  // zero-distance conflict. Percept position error is centimetres
  // (distance_noise_sigma_m), so a sub-vehicle-length gate removes only
  // self-observations.
  if (geo::distance(object.position, dynamics_->position()) < 0.75) return;
  const roadside::CollisionPredictor predictor{config_.hazard.cpa};
  its::LdmVehicleEntry ego;
  ego.station_id = config_.obu.station_id;
  ego.position = dynamics_->position();
  ego.speed_mps = dynamics_->speed_mps();
  ego.heading_rad = dynamics_->heading_rad();
  const auto threat = predictor.assess(object.position, object.velocity, {ego});
  if (!threat) return;
  cpm_stop_latched_ = true;
  metrics_.counter("cpm.emergency_stops").add();
  trace_.record_event(sched_.now(), sim::Stage::HazardDecision, config_.obu.station_id,
                      object.object_id, threat->t_cpa_s, sim::kHazardFusedPercept);
  // Short on-board application handling, then the planner's stop path.
  sched_.post_in(sim::SimTime::milliseconds(2), [this] {
    vehicle_bus_->v2x_emergency.publish(vehicle::EmergencyStop{});
  });
}

void TestbedScenario::start_services() {
  if (services_started_) return;
  services_started_ = true;
  dynamics_->start();
  line_sensor_->start();
  control_->start();
  // With a cellular warning path the DENM is pushed to the vehicle modem;
  // the ITS-G5 polling loop stays off so the two bearers are compared
  // cleanly (one stop path at a time).
  if (config_.warning_path == WarningPath::ItsG5) message_handler_->start();
  if (lidar_) {
    lidar_->start();
    // Under the liveness watchdog the AEB is armed only while degraded
    // (watchdog topic); otherwise it runs for the whole trial as before.
    if (!config_.message_handler.watchdog) aeb_->start();
  }
  if (gnss_) gnss_->start();
  detection_->start();
  hazard_->start();
  if (config_.cpm_enable) {
    obu_->cpm()->start();
    rsu_->cpm()->start();
  }
  if (config_.enable_cam) {
    obu_->start_cam([this] {
      its::CaVehicleData data;
      data.position = dynamics_->position();
      data.heading_rad = dynamics_->heading_rad();
      data.speed_mps = dynamics_->speed_mps();
      data.longitudinal_accel_mps2 = dynamics_->acceleration_mps2();
      return data;
    });
  }
}

TrialResult TestbedScenario::run_emergency_brake_trial(sim::SimTime timeout) {
  start_services();
  const sim::SimTime t_start = sched_.now();
  const sim::SimTime deadline = t_start + timeout;

  TrialResult result;
  bool crossed = false;
  bool halted = false;
  bool detection_seen = false;
  double odometer_at_halt = 0;
  double odometer_at_detection = 0;
  double speed_at_detection = 0;
  // Trace index of the first event not yet examined for the detection.
  // Starting at 0 finds what find_event(HazardDecision, t_start) would,
  // an event recorded before the loop included, with each event read once.
  std::size_t scan = 0;

  // 1 kHz supervision: records the geometric Action-Point crossing
  // (step 1), the odometer reading at the detection instant, and the
  // standstill after the power cut (step 6), as read at the instants
  // t_start + k ms, k >= 1. A reading can only change at the first such
  // instant at or after a dynamics update or a recorded HazardDecision, so
  // the run stops only there: the dynamics observer and the trace watch
  // request those instants, and the first one is checked for the state the
  // trial starts from. Events run exactly as under a 1 ms poll.
  if (t_start < deadline) {
    static constexpr sim::SimTime kPeriod = sim::SimTime::milliseconds(1);
    const auto check_at_or_after = [t_start](sim::SimTime t) {
      const std::int64_t k = (t - t_start + kPeriod - sim::SimTime::nanoseconds(1)) / kPeriod;
      return t_start + kPeriod * std::max<std::int64_t>(k, 1);
    };
    dynamics_->set_observer([&] {
      const bool crossing =
          !crossed && geo::distance(dynamics_->position(), config_.camera_position) <=
                          config_.hazard.action_point_distance_m;
      if (crossing || (dynamics_->power_cut() && dynamics_->stopped())) {
        sched_.stop_at(check_at_or_after(sched_.now()));
      }
    });
    trace_.set_stage_watch(sim::Stage::HazardDecision, [&] {
      if (!detection_seen) sched_.stop_at(check_at_or_after(sched_.now()));
    });
    // Unhooks on every exit, an event that throws included: both hooks
    // refer to this frame.
    struct Unhook {
      TestbedScenario& s;
      ~Unhook() {
        s.dynamics_->set_observer({});
        s.trace_.set_stage_watch(sim::Stage::HazardDecision, {});
      }
    } unhook{*this};
    const sim::SimTime last_check = check_at_or_after(deadline);
    sched_.stop_at(t_start + kPeriod);

    while (sched_.now() < deadline) {
      sched_.run_until(last_check);

      if (!crossed) {
        const double dist = geo::distance(dynamics_->position(), config_.camera_position);
        if (dist <= config_.hazard.action_point_distance_m) {
          crossed = true;
          result.t_cross_actual = sched_.now();
        }
      }
      const auto& events = trace_.events();
      for (; !detection_seen && scan < events.size(); ++scan) {
        const sim::TraceEvent& d = events[scan];
        if (d.stage != sim::Stage::HazardDecision || d.when < t_start) continue;
        detection_seen = true;
        speed_at_detection = dynamics_->speed_mps();
        // Back out the small travel since the detection instant.
        odometer_at_detection =
            dynamics_->odometer_m() - speed_at_detection * (sched_.now() - d.when).to_seconds();
      }
      if (dynamics_->power_cut() && dynamics_->stopped()) {
        halted = true;
        result.t_halt = sched_.now();
        odometer_at_halt = dynamics_->odometer_m();
        break;
      }
    }
  }
  result.timed_out = !halted;

  // Mine the typed stage events for the instrumented steps (the trace is
  // what the paper's NTP-stamped logs are).
  const bool cellular = config_.warning_path != WarningPath::ItsG5;
  const auto* det = trace_.find_event(sim::Stage::HazardDecision, t_start);
  const auto* rsu_send =
      trace_.find_event(sim::Stage::DenmTx, t_start, config_.rsu.station_id);
  const auto* obu_recv =
      cellular ? trace_.find_event(sim::Stage::ModemDenmRx, t_start)
               : trace_.find_event(sim::Stage::DenmRx, t_start, config_.obu.station_id);
  const auto* power_cut = trace_.find_event(sim::Stage::PowerCutCommand, t_start);

  if (det && rsu_send && obu_recv && power_cut && halted) {
    result.stopped_by_denm = true;
    result.t_detection = det->when;
    result.t_rsu_send = rsu_send->when;
    result.t_obu_receive = obu_recv->when;
    result.t_power_cut = power_cut->when;

    // NTP-measured intervals: true interval plus the clock-offset pair at
    // the (slowly drifting) current offsets of the involved nodes.
    const double off_edge = edge_clock_->offset().to_milliseconds();
    const double off_rsu = rsu_->clock().offset().to_milliseconds();
    // Over cellular, step 4 is stamped by the vehicle (modem host = Jetson).
    const double off_obu = cellular ? jetson_clock_->offset().to_milliseconds()
                                    : obu_->clock().offset().to_milliseconds();
    const double off_jetson = jetson_clock_->offset().to_milliseconds();
    result.meas_detection_to_rsu_ms =
        (result.t_rsu_send - result.t_detection).to_milliseconds() + off_rsu - off_edge;
    result.meas_rsu_to_obu_ms =
        (result.t_obu_receive - result.t_rsu_send).to_milliseconds() + off_obu - off_rsu;
    result.meas_obu_to_actuator_ms =
        (result.t_power_cut - result.t_obu_receive).to_milliseconds() + off_jetson - off_obu;
    result.meas_total_ms =
        (result.t_power_cut - result.t_detection).to_milliseconds() + off_jetson - off_edge;

    // Braking distance (Table III): travel between detection and halt.
    result.speed_at_detection_mps = speed_at_detection;
    result.braking_distance_m = odometer_at_halt - odometer_at_detection;
    result.stop_distance_to_camera_m =
        geo::distance(dynamics_->position(), config_.camera_position);
    // The estimated detection distance rides in the decision event payload
    // (action-point mode; CPA events carry the time-to-CPA instead).
    if (det->detail == sim::kHazardActionPoint) {
      result.detection_distance_m = det->value;
    }
  }
  return result;
}

}  // namespace rst::core
