#include "rst/its/facilities/ca_basic_service.hpp"

#include <algorithm>
#include <cmath>

namespace rst::its {

CaBasicService::CaBasicService(sim::Scheduler& sched, GeoNetRouter& router, StationId station_id,
                               VehicleDataProvider provider, CaConfig config, Ldm* ldm,
                               sim::Trace* trace)
    : sched_{sched},
      router_{router},
      station_id_{station_id},
      provider_{std::move(provider)},
      config_{config},
      ldm_{ldm},
      trace_{trace},
      check_timer_{sched, [this] { check_generation(); }},
      t_gen_cam_{config.t_gen_cam_max} {}

void CaBasicService::start() {
  if (!check_timer_.armed()) check_timer_.arm_in(config_.t_gen_cam_min);
}

Cam CaBasicService::build_cam(bool include_lf) const {
  const CaVehicleData data = provider_();
  Cam cam;
  cam.header.station_id = station_id_;
  cam.header.message_id = MessageId::Cam;
  cam.generation_delta_time = generation_delta_time(to_timestamp_its(sched_.now()));

  cam.basic.station_type = config_.station_type;
  const geo::GeoPosition gp = router_.local_frame().to_geo(data.position);
  cam.basic.reference_position.latitude = geo::to_its_tenth_microdegree(gp.latitude_deg);
  cam.basic.reference_position.longitude = geo::to_its_tenth_microdegree(gp.longitude_deg);
  cam.basic.reference_position.confidence.semi_major_cm = 50;
  cam.basic.reference_position.confidence.semi_minor_cm = 50;
  cam.basic.reference_position.confidence.orientation_01deg = 0;

  double heading_deg = std::fmod(data.heading_rad * 180.0 / M_PI, 360.0);
  if (heading_deg < 0) heading_deg += 360.0;
  cam.high_frequency.heading.value_01deg = static_cast<std::uint16_t>(heading_deg * 10.0);
  cam.high_frequency.heading.confidence_01deg = 10;
  cam.high_frequency.speed = Speed::from_mps(data.speed_mps);
  cam.high_frequency.drive_direction = data.drive_direction;
  cam.high_frequency.vehicle_length_dm =
      static_cast<std::uint16_t>(std::clamp(config_.vehicle_length_m * 10.0, 1.0, 1022.0));
  cam.high_frequency.vehicle_width_dm =
      static_cast<std::uint8_t>(std::clamp(config_.vehicle_width_m * 10.0, 1.0, 61.0));
  cam.high_frequency.longitudinal_accel_dms2 =
      static_cast<std::int16_t>(std::clamp(data.longitudinal_accel_mps2 * 10.0, -160.0, 160.0));

  if (include_lf) {
    // Low-frequency container: exterior lights (not modelled: off) and the
    // path history as per-point deltas, most recent segment first.
    LowFrequencyContainer lf;
    const geo::LocalFrame& frame = router_.local_frame();
    geo::Vec2 anchor = data.position;
    for (const geo::Vec2& p : path_points_) {
      if (lf.path_history.points.size() >= config_.max_path_points) break;
      const geo::GeoPosition from = frame.to_geo(anchor);
      const geo::GeoPosition to = frame.to_geo(p);
      PathPoint point;
      point.delta_latitude = static_cast<std::int32_t>(
          std::clamp<std::int64_t>(geo::to_its_tenth_microdegree(to.latitude_deg) -
                                       geo::to_its_tenth_microdegree(from.latitude_deg),
                                   -131072, 131071));
      point.delta_longitude = static_cast<std::int32_t>(
          std::clamp<std::int64_t>(geo::to_its_tenth_microdegree(to.longitude_deg) -
                                       geo::to_its_tenth_microdegree(from.longitude_deg),
                                   -131072, 131071));
      lf.path_history.points.push_back(point);
      anchor = p;
    }
    cam.low_frequency = lf;
  }
  return cam;
}

void CaBasicService::check_generation() {
  const CaVehicleData data = provider_();
  bool trigger = false;
  bool dynamics = false;

  if (!last_sent_) {
    trigger = true;
  } else {
    const double dh =
        std::abs(std::remainder(data.heading_rad - last_sent_->heading_rad, 2.0 * M_PI)) * 180.0 / M_PI;
    const double dp = geo::distance(data.position, last_sent_->position);
    const double dv = std::abs(data.speed_mps - last_sent_->speed_mps);
    dynamics = dh > config_.heading_delta_deg || dp > config_.position_delta_m ||
               dv > config_.speed_delta_mps;
    const sim::SimTime since = sched_.now() - last_sent_time_;
    trigger = (dynamics && since >= config_.t_gen_cam_min) || since >= t_gen_cam_;
  }

  if (trigger) {
    if (dynamics) {
      // Dynamics-triggered: adopt the elapsed interval as the new T_GenCam
      // for the next N_GenCam messages (EN 302 637-2 §6.1.3).
      t_gen_cam_ = std::clamp(sched_.now() - last_sent_time_, config_.t_gen_cam_min,
                              config_.t_gen_cam_max);
      dynamic_cam_countdown_ = config_.n_gen_cam;
      ++stats_.dynamics_triggers;
    } else if (dynamic_cam_countdown_ > 0) {
      if (--dynamic_cam_countdown_ == 0) t_gen_cam_ = config_.t_gen_cam_max;
    }
    send_cam(data);
  }

  check_timer_.arm_in(config_.t_gen_cam_min);
}

void CaBasicService::send_cam(const CaVehicleData& data) {
  // Maintain the path history: record a point per travelled spacing.
  if (path_points_.empty() ||
      geo::distance(path_points_.front(), data.position) >= config_.path_point_spacing_m) {
    path_points_.push_front(data.position);
    while (path_points_.size() > config_.max_path_points + 1) path_points_.pop_back();
  }
  const bool include_lf = sched_.now() - last_lf_time_ >= config_.lf_container_interval;
  if (include_lf) last_lf_time_ = sched_.now();

  const Cam cam = build_cam(include_lf);
  BtpHeader btp{.destination_port = kBtpPortCam, .destination_port_info = 0};
  router_.send_shb(btp.prepend_to(cam.encode()), dot11p::AccessCategory::Video);
  last_sent_ = data;
  last_sent_time_ = sched_.now();
  ++stats_.cams_sent;
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::CamTx, station_id_, cam.generation_delta_time);
  }
}

void CaBasicService::on_btp_payload(std::span<const std::uint8_t> cam_bytes,
                                    const GnDeliveryMeta& meta) {
  Cam cam;
  try {
    cam = Cam::decode(cam_bytes);
  } catch (const asn1::DecodeError&) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.cams_received;
  if (ldm_) ldm_->update_from_cam(cam);
  if (trace_) {
    trace_->record_event(sched_.now(), sim::Stage::CamRx, station_id_, cam.header.station_id);
  }
  if (cam_cb_) cam_cb_(cam, meta);
}

}  // namespace rst::its
