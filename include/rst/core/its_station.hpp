#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/its/dcc/channel_probe.hpp"
#include "rst/its/dcc/reactive_dcc.hpp"
#include "rst/its/facilities/ca_basic_service.hpp"
#include "rst/its/facilities/cpm_service.hpp"
#include "rst/its/facilities/den_basic_service.hpp"
#include "rst/its/facilities/ldm.hpp"
#include "rst/its/network/btp.hpp"
#include "rst/its/network/btp_mux.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/middleware/http.hpp"
#include "rst/middleware/ntp.hpp"
#include "rst/middleware/openc2x_api.hpp"
#include "rst/sim/trace.hpp"

namespace rst::core {

/// Configuration of one OpenC2X-class ITS station (OBU or RSU).
struct ItsStationConfig {
  its::StationId station_id{1};
  its::StationType station_type{its::StationType::PassengerCar};
  /// Also the station's hostname on the HTTP LAN.
  std::string name{"station"};
  dot11p::RadioConfig radio{};
  its::GeoNetConfig geonet{};
  its::CaConfig ca{};
  its::DenConfig den{};
  /// Collective Perception service (opt-in; off keeps the stack and every
  /// default-path artifact byte-identical to a CPM-less build).
  bool enable_cpm{false};
  its::CpmConfig cpm{};
  /// Gate all transmissions through a reactive DCC (TS 102 687).
  bool enable_dcc{false};
  its::dcc::ReactiveDccConfig dcc{};
  middleware::NtpClock::Config ntp{};
  /// Stack processing between radio delivery and the facilities layer
  /// (decode, BTP dispatch, OpenC2X internal queueing).
  sim::SimTime stack_rx_mean{sim::SimTime::microseconds(800)};
  sim::SimTime stack_rx_sigma{sim::SimTime::microseconds(250)};
  sim::SimTime stack_rx_min{sim::SimTime::microseconds(300)};
};

/// A complete ETSI ITS station as the paper deploys it: an 802.11p radio
/// (PC Engines APU2 + WLE200NX class), GeoNetworking + BTP, the CA and DEN
/// basic services, an LDM, an NTP-disciplined wall clock, and the
/// OpenC2X-style HTTP API through which applications integrate.
class ItsStation {
 public:
  /// `ego` is what the station advertises (GN position vectors, GBC area
  /// checks); `antenna` is where its radio physically is, which the medium
  /// propagates from. They differ when the station advertises a GNSS fix.
  ItsStation(sim::Scheduler& sched, dot11p::Medium& medium, middleware::HttpLan& lan,
             const geo::LocalFrame& frame, ItsStationConfig config,
             its::GeoNetRouter::EgoProvider ego, dot11p::Radio::PositionProvider antenna,
             sim::RandomStream rng, sim::Trace* trace = nullptr);
  ItsStation(const ItsStation&) = delete;
  ItsStation& operator=(const ItsStation&) = delete;

  [[nodiscard]] its::StationId id() const { return config_.station_id; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

  [[nodiscard]] dot11p::Radio& radio() { return *radio_; }
  [[nodiscard]] its::GeoNetRouter& router() { return *router_; }
  /// BTP demux: applications may register additional ports next to the
  /// standard CAM/DENM services.
  [[nodiscard]] its::BtpMux& btp() { return mux_; }
  [[nodiscard]] its::CaBasicService& ca() { return *ca_; }
  [[nodiscard]] its::DenBasicService& den() { return *den_; }
  [[nodiscard]] its::Ldm& ldm() { return *ldm_; }
  [[nodiscard]] middleware::OpenC2xApi& api() { return *api_; }
  [[nodiscard]] middleware::NtpClock& clock() { return *clock_; }
  [[nodiscard]] const middleware::NtpClock& clock() const { return *clock_; }
  /// Non-null when enable_dcc is set.
  [[nodiscard]] its::dcc::ReactiveDcc* dcc() { return dcc_.get(); }
  /// Non-null when enable_cpm is set.
  [[nodiscard]] its::CpmService* cpm() { return cpm_.get(); }

  /// Sets the vehicle-data provider feeding the CA service and starts
  /// CAM generation.
  void start_cam(its::CaBasicService::VehicleDataProvider provider);

 private:
  /// A GN delivery waiting out its stack-processing latency. The pending
  /// event carries only the slot index, so it fits the scheduler's inline
  /// buffer and a delivery allocates nothing once the slots are warm.
  struct Handoff {
    Bytes pdu;
    its::GnDeliveryMeta meta;
  };
  /// Hands the delivery held in `slot` to the BTP demux and frees the slot.
  void dispatch_handoff(std::uint32_t slot);

  sim::Scheduler& sched_;
  ItsStationConfig config_;
  sim::RandomStream rng_;
  sim::Trace* trace_;

  std::unique_ptr<dot11p::Radio> radio_;
  std::unique_ptr<its::GeoNetRouter> router_;
  its::BtpMux mux_;
  std::unique_ptr<its::Ldm> ldm_;
  std::unique_ptr<its::CaBasicService> ca_;
  std::unique_ptr<its::DenBasicService> den_;
  std::unique_ptr<its::CpmService> cpm_;
  std::unique_ptr<its::dcc::ChannelProbe> probe_;
  std::unique_ptr<its::dcc::ReactiveDcc> dcc_;
  std::unique_ptr<middleware::NtpClock> clock_;
  std::unique_ptr<middleware::OpenC2xApi> api_;
  /// Slot the lazily-installed CAM vehicle-data provider is written into.
  std::shared_ptr<its::CaBasicService::VehicleDataProvider> cam_provider_slot_;
  std::vector<Handoff> handoffs_;
  std::vector<std::uint32_t> free_handoffs_;  // indices into handoffs_
};

}  // namespace rst::core
