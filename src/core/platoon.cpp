#include "rst/core/platoon.hpp"

#include <algorithm>
#include <limits>

namespace rst::core {

using namespace rst::sim::literals;

PlatoonScenario::PlatoonScenario(PlatoonConfig config)
    : config_{std::move(config)}, rng_{config_.seed, "platoon"}, frame_{config_.origin} {
  dot11p::ChannelModel channel;
  channel.path_loss = std::make_shared<dot11p::LogDistanceModel>(
      dot11p::LogDistanceModel::its_g5(config_.path_loss_exponent));
  channel.shadowing_sigma_db = config_.shadowing_sigma_db;
  medium_ = std::make_unique<dot11p::Medium>(sched_, rng_.child("medium"), std::move(channel));
  lan_ = std::make_unique<middleware::HttpLan>(sched_, rng_.child("lan"));
  if (config_.leader_uses_cellular) {
    cellular_ = std::make_unique<cellular::CellularNetwork>(sched_, rng_.child("cell"),
                                                            config_.cellular);
  }

  ItsStationConfig rsu_config;
  rsu_config.station_id = 900;
  rsu_config.station_type = its::StationType::RoadSideUnit;
  rsu_config.name = "rsu";
  rsu_config.radio = config_.radio;
  rsu_ = std::make_unique<ItsStation>(
      sched_, *medium_, *lan_, frame_, rsu_config,
      [pos = config_.rsu_position] { return its::EgoState{pos, 0.0, 0.0}; },
      [pos = config_.rsu_position] { return pos; }, rng_.child("rsu"), &trace_);

  for (int i = 0; i < config_.n_vehicles; ++i) {
    auto unit = std::make_unique<Unit>();
    unit->dynamics = std::make_unique<vehicle::VehicleDynamics>(
        sched_, config_.vehicle_params, rng_.child("veh" + std::to_string(i)));
    unit->dynamics->reset({0.0, -config_.spacing_m * i}, 0.0, config_.speed_mps);
    unit->bus =
        std::make_unique<vehicle::VehicleBus>(sched_, rng_.child("bus" + std::to_string(i)));

    ItsStationConfig obu_config;
    obu_config.station_id = static_cast<its::StationId>(100 + i);
    obu_config.station_type = its::StationType::PassengerCar;
    obu_config.name = "obu" + std::to_string(i);
    obu_config.radio = config_.radio;
    if (config_.use_cacc) {
      // CACC needs a fast awareness stream (platoon profile: 10 Hz CAMs).
      obu_config.ca.t_gen_cam_max = sim::SimTime::milliseconds(100);
    }
    vehicle::VehicleDynamics* dyn = unit->dynamics.get();
    unit->obu = std::make_unique<ItsStation>(
        sched_, *medium_, *lan_, frame_, obu_config,
        [dyn] { return its::EgoState{dyn->position(), dyn->speed_mps(), dyn->heading_rad()}; },
        [dyn] { return dyn->position(); }, rng_.child("obu" + std::to_string(i)), &trace_);

    vehicle::MessageHandlerConfig handler_config;
    handler_config.poll_period = config_.poll_period;
    handler_config.obu_hostname = obu_config.name;
    unit->handler = std::make_unique<vehicle::MessageHandler>(
        sched_, *unit->bus, *lan_, rng_.child("handler" + std::to_string(i)), handler_config,
        &trace_);

    Unit* raw = unit.get();
    unit->cruise_timer = std::make_unique<sim::Timer>(sched_, [this, raw] { cruise_tick(*raw); });
    unit->bus->v2x_emergency.subscribe([this, raw](const vehicle::EmergencyStop&) {
      if (raw->power_cut) return;
      raw->power_cut = true;
      raw->power_cut_at = sched_.now();
      raw->dynamics->cut_power();
    });

    if (config_.use_cacc) {
      // Every member advertises CAMs; followers regulate their gap from
      // the predecessor's CAMs.
      unit->obu->start_cam([dyn] {
        its::CaVehicleData data;
        data.position = dyn->position();
        data.heading_rad = dyn->heading_rad();
        data.speed_mps = dyn->speed_mps();
        return data;
      });
      if (i > 0) {
        unit->cacc = std::make_unique<vehicle::CaccController>(sched_, *unit->dynamics,
                                                               config_.cacc, &trace_);
        const its::StationId predecessor = static_cast<its::StationId>(100 + i - 1);
        vehicle::CaccController* cacc = unit->cacc.get();
        unit->obu->ca().set_cam_callback(
            [cacc, predecessor](const its::Cam& cam, const its::GnDeliveryMeta& meta) {
              if (cam.header.station_id == predecessor) {
                cacc->on_leader_cam(cam, meta.source_position);
              }
            });
      }
    }
    units_.push_back(std::move(unit));
  }
}

void PlatoonScenario::cruise_tick(Unit& unit) {
  if (!unit.power_cut) {
    const double throttle =
        std::clamp(0.05 + 1.5 * (config_.speed_mps - unit.dynamics->speed_mps()), 0.0, 1.0);
    unit.dynamics->set_throttle(throttle);
  }
  unit.cruise_timer->arm_in(50_ms);
}

PlatoonResult PlatoonScenario::run_emergency_stop(sim::SimTime warmup, sim::SimTime timeout) {
  for (std::size_t i = 0; i < units_.size(); ++i) {
    auto& u = units_[i];
    u->dynamics->start();
    u->handler->start();
    if (u->cacc) {
      u->cacc->start();  // follower: gap regulation replaces cruise control
    } else {
      cruise_tick(*u);
    }
    (void)i;
  }
  sched_.run_until(sched_.now() + warmup);

  // The "detection": the infrastructure advertises a crossing collision
  // risk ahead of the platoon.
  const sim::SimTime t_trigger = sched_.now();
  its::DenmRequest request;
  request.event_type = its::EventType::of(
      its::Cause::CollisionRisk,
      static_cast<std::uint8_t>(its::CollisionRiskSubCause::CrossingCollisionRisk));
  request.information_quality = 5;
  request.event_position = config_.rsu_position;
  request.validity = 10_s;
  request.repetition_interval = config_.denm_repetition;
  request.repetition_duration = 5_s;
  request.destination_area = geo::GeoArea::circle(config_.rsu_position, 300.0);

  if (config_.leader_uses_cellular) {
    // RSU -> leader over the cellular network; the leader re-advertises on
    // 802.11p for the followers (multi-technology arrangement).
    auto& rsu_ep = cellular_->create_endpoint("rsu");
    auto& leader_ep = cellular_->create_endpoint("leader");
    (void)rsu_ep;
    leader_ep.set_receive_callback(
        [this, request](const std::vector<std::uint8_t>& payload, const std::string&) {
          its::Denm denm;
          try {
            denm = its::Denm::decode(payload);
          } catch (const asn1::DecodeError&) {
            return;
          }
          Unit& leader = *units_.front();
          if (!leader.power_cut) {
            leader.power_cut = true;
            leader.power_cut_at = sched_.now();
            leader.dynamics->cut_power();
          }
          leader.obu->den().trigger(request);  // re-broadcast on ITS-G5
        });
    its::Denm denm;
    denm.header.station_id = 900;
    denm.management.action_id = {900, 1};
    denm.management.detection_time = its::to_timestamp_its(sched_.now());
    denm.management.reference_time = its::to_timestamp_its(sched_.now());
    denm.management.station_type = its::StationType::RoadSideUnit;
    denm.situation = its::SituationContainer{.information_quality = 5,
                                             .event_type = request.event_type,
                                             .linked_cause = {}};
    cellular_->send("rsu", "leader", denm.encode());
  } else {
    rsu_->den().trigger(request);
  }

  const sim::SimTime deadline = sched_.now() + timeout;
  double min_gap = std::numeric_limits<double>::infinity();
  while (sched_.now() < deadline) {
    sched_.run_until(sched_.now() + 1_ms);
    // Bumper-to-bumper gaps between adjacent vehicles (rear-end check).
    for (std::size_t i = 1; i < units_.size(); ++i) {
      const double gap = units_[i - 1]->dynamics->position().y -
                         units_[i]->dynamics->position().y -
                         config_.vehicle_params.length_m;
      min_gap = std::min(min_gap, gap);
    }
    const bool all_stopped = std::all_of(units_.begin(), units_.end(), [](const auto& u) {
      return u->power_cut && u->dynamics->stopped();
    });
    if (all_stopped) break;
  }

  PlatoonResult result;
  result.min_gap_m = min_gap;
  result.all_stopped = true;
  for (int i = 0; i < static_cast<int>(units_.size()); ++i) {
    PlatoonVehicleResult v;
    v.index = i;
    v.stopped = units_[i]->power_cut && units_[i]->dynamics->stopped();
    if (units_[i]->power_cut) {
      v.detection_to_action_ms = (units_[i]->power_cut_at - t_trigger).to_milliseconds();
    }
    result.all_stopped = result.all_stopped && v.stopped;
    result.worst_detection_to_action_ms =
        std::max(result.worst_detection_to_action_ms, v.detection_to_action_ms);
    result.vehicles.push_back(v);
  }
  return result;
}

}  // namespace rst::core
