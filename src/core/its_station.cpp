#include "rst/core/its_station.hpp"

namespace rst::core {

ItsStation::ItsStation(sim::Scheduler& sched, dot11p::Medium& medium, middleware::HttpLan& lan,
                       const geo::LocalFrame& frame, ItsStationConfig config,
                       its::GeoNetRouter::EgoProvider ego,
                       dot11p::Radio::PositionProvider antenna, sim::RandomStream rng,
                       sim::Trace* trace)
    : sched_{sched},
      config_{std::move(config)},
      rng_{rng.child("station." + config_.name)},
      trace_{trace} {
  radio_ = std::make_unique<dot11p::Radio>(medium, config_.radio, std::move(antenna),
                                           rng_.child("radio"), config_.name);
  router_ = std::make_unique<its::GeoNetRouter>(
      sched_, *radio_, frame, its::GnAddress::from_station(config_.station_id), ego,
      config_.geonet, rng_.child("gn"), trace_);
  ldm_ = std::make_unique<its::Ldm>(sched_, frame);
  // The CA service's provider is installed lazily via start_cam(); until
  // then a zeroed snapshot is produced (the service is not started).
  auto provider = std::make_shared<its::CaBasicService::VehicleDataProvider>(
      [] { return its::CaVehicleData{}; });
  its::CaConfig ca_config = config_.ca;
  ca_config.station_type = config_.station_type;
  ca_ = std::make_unique<its::CaBasicService>(
      sched_, *router_, config_.station_id,
      [provider] { return (*provider)(); }, ca_config, ldm_.get(), trace_);
  cam_provider_slot_ = provider;
  den_ = std::make_unique<its::DenBasicService>(sched_, *router_, config_.station_id, trace_,
                                                ldm_.get(), config_.den);
  if (config_.enable_cpm) {
    its::CpmConfig cpm_config = config_.cpm;
    cpm_config.station_type = config_.station_type;
    cpm_ = std::make_unique<its::CpmService>(sched_, *router_, config_.station_id, cpm_config,
                                             ldm_.get(), trace_);
  }
  if (config_.enable_dcc) {
    probe_ = std::make_unique<its::dcc::ChannelProbe>(sched_, *radio_);
    probe_->start();
    dcc_ = std::make_unique<its::dcc::ReactiveDcc>(sched_, *radio_, *probe_, config_.dcc, trace_,
                                                   config_.station_id);
    router_->set_send_hook(
        [this](dot11p::Frame frame) { dcc_->send(std::move(frame)); });
  }
  clock_ = std::make_unique<middleware::NtpClock>(sched_, rng_.child("clock"), config_.name,
                                                  config_.ntp);
  http_ = std::make_unique<middleware::HttpHost>(lan, config_.name);
  api_ = std::make_unique<middleware::OpenC2xApi>(*http_, frame, *den_, ldm_.get(), trace_,
                                                  ca_.get());

  mux_.register_port(its::kBtpPortCam,
                     [this](const std::vector<std::uint8_t>& payload,
                            const its::GnDeliveryMeta& meta) { ca_->on_btp_payload(payload, meta); });
  mux_.register_port(its::kBtpPortDenm,
                     [this](const std::vector<std::uint8_t>& payload,
                            const its::GnDeliveryMeta& meta) { den_->on_btp_payload(payload, meta); });
  if (cpm_) {
    mux_.register_port(its::kBtpPortCpm, [this](const std::vector<std::uint8_t>& payload,
                                                const its::GnDeliveryMeta& meta) {
      cpm_->on_btp_payload(payload, meta);
    });
  }

  http_->handle("/status",
                [this](const middleware::HttpRequest&) {
                  return middleware::HttpResponse{200, status_report()};
                });

  // OpenC2X-equivalent stack processing between radio delivery and the
  // facilities (decode + dispatch + queueing), then the BTP demux.
  router_->set_delivery_handler(
      [this](const Bytes& pdu, const its::GnDeliveryMeta& meta) {
        const auto latency =
            rng_.normal_time(config_.stack_rx_mean, config_.stack_rx_sigma, config_.stack_rx_min);
        // Capturing `pdu` shares the payload buffer; no copy per delivery.
        sched_.post_in(latency, [this, pdu, meta] {
          its::GnDeliveryMeta handoff_meta = meta;
          handoff_meta.delivered_at = sched_.now();
          mux_.on_gn_payload(pdu, handoff_meta);
        });
      });
}

void ItsStation::start_cam(its::CaBasicService::VehicleDataProvider provider) {
  *cam_provider_slot_ = std::move(provider);
  ca_->start();
}

std::string ItsStation::status_report() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof line, "station %u '%s' @ %s (wall %s)\n", config_.station_id,
                config_.name.c_str(), sched_.now().to_string().c_str(),
                clock_->now_wall().to_string().c_str());
  out += line;
  const auto& radio = radio_->stats();
  std::snprintf(line, sizeof line, "  radio: tx=%llu rx=%llu queue_drops=%llu busy=%s\n",
                static_cast<unsigned long long>(radio.tx_frames),
                static_cast<unsigned long long>(radio.rx_frames),
                static_cast<unsigned long long>(radio.queue_drops),
                radio_->cumulative_busy_time().to_string().c_str());
  out += line;
  const auto& gn = router_->stats();
  std::snprintf(line, sizeof line,
                "  geonet: originated=%llu delivered=%llu forwarded=%llu dup=%llu expired=%llu\n",
                static_cast<unsigned long long>(gn.originated),
                static_cast<unsigned long long>(gn.delivered_up),
                static_cast<unsigned long long>(gn.forwarded),
                static_cast<unsigned long long>(gn.duplicates_dropped),
                static_cast<unsigned long long>(gn.lifetime_expired_dropped));
  out += line;
  std::snprintf(line, sizeof line, "  btp: dispatched=%llu unknown_port=%llu parse_errors=%llu\n",
                static_cast<unsigned long long>(mux_.stats().dispatched),
                static_cast<unsigned long long>(mux_.stats().unknown_port),
                static_cast<unsigned long long>(mux_.stats().parse_errors));
  out += line;
  std::snprintf(line, sizeof line, "  ca: sent=%llu received=%llu t_gen_cam=%s\n",
                static_cast<unsigned long long>(ca_->stats().cams_sent),
                static_cast<unsigned long long>(ca_->stats().cams_received),
                ca_->current_t_gen_cam().to_string().c_str());
  out += line;
  std::snprintf(line, sizeof line, "  den: sent=%llu received=%llu repetitions=%llu kaf=%llu\n",
                static_cast<unsigned long long>(den_->stats().denms_sent),
                static_cast<unsigned long long>(den_->stats().denms_received),
                static_cast<unsigned long long>(den_->stats().repetitions),
                static_cast<unsigned long long>(den_->stats().kaf_retransmissions));
  out += line;
  if (cpm_) {
    std::snprintf(line, sizeof line,
                  "  cpm: sent=%llu received=%llu published=%llu fused=%llu deduped=%llu\n",
                  static_cast<unsigned long long>(cpm_->stats().cpms_sent),
                  static_cast<unsigned long long>(cpm_->stats().cpms_received),
                  static_cast<unsigned long long>(cpm_->stats().objects_published),
                  static_cast<unsigned long long>(cpm_->stats().objects_fused),
                  static_cast<unsigned long long>(cpm_->stats().objects_deduped));
    out += line;
  }
  return out;
}


}  // namespace rst::core
