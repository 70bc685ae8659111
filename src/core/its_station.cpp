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
  api_ = std::make_unique<middleware::OpenC2xApi>(lan, config_.name, *den_, trace_);

  mux_.register_port(its::kBtpPortCam,
                     [this](std::span<const std::uint8_t> payload,
                            const its::GnDeliveryMeta& meta) { ca_->on_btp_payload(payload, meta); });
  mux_.register_port(its::kBtpPortDenm,
                     [this](std::span<const std::uint8_t> payload,
                            const its::GnDeliveryMeta& meta) { den_->on_btp_payload(payload, meta); });
  if (cpm_) {
    mux_.register_port(its::kBtpPortCpm, [this](std::span<const std::uint8_t> payload,
                                                const its::GnDeliveryMeta& meta) {
      cpm_->on_btp_payload(payload, meta);
    });
  }

  // OpenC2X-equivalent stack processing between radio delivery and the
  // facilities (decode + dispatch + queueing), then the BTP demux.
  router_->set_delivery_handler(
      [this](const Bytes& pdu, const its::GnDeliveryMeta& meta) {
        const auto latency =
            rng_.normal_time(config_.stack_rx_mean, config_.stack_rx_sigma, config_.stack_rx_min);
        // The slot shares the payload buffer; no copy per delivery.
        std::uint32_t slot;
        if (free_handoffs_.empty()) {
          slot = static_cast<std::uint32_t>(handoffs_.size());
          handoffs_.push_back({pdu, meta});
        } else {
          slot = free_handoffs_.back();
          free_handoffs_.pop_back();
          handoffs_[slot] = {pdu, meta};
        }
        sched_.post_in(latency, [this, slot] { dispatch_handoff(slot); });
      });
}

void ItsStation::dispatch_handoff(std::uint32_t slot) {
  // Taken out before dispatch: the handlers may deliver again and grow
  // `handoffs_`.
  const Bytes pdu = std::move(handoffs_[slot].pdu);
  its::GnDeliveryMeta meta = handoffs_[slot].meta;
  free_handoffs_.push_back(slot);
  meta.delivered_at = sched_.now();
  mux_.on_gn_payload(pdu, meta);
}

void ItsStation::start_cam(its::CaBasicService::VehicleDataProvider provider) {
  *cam_provider_slot_ = std::move(provider);
  ca_->start();
}

}  // namespace rst::core
