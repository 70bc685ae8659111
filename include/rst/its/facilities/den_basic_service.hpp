#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>

#include "rst/its/facilities/ldm.hpp"
#include "rst/its/messages/denm.hpp"
#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/sim/trace.hpp"

namespace rst::its {

/// Application request to originate (or update) a DEN event
/// (EN 302 637-3 AppDENM_trigger / AppDENM_update interface).
struct DenmRequest {
  EventType event_type{};
  std::uint8_t information_quality{3};
  geo::Vec2 event_position{};
  sim::SimTime validity{sim::SimTime::seconds(600)};
  /// When set, the DENM is repeated at this interval for
  /// `repetition_duration` (repetition by the originator, §8.2.1.5).
  std::optional<sim::SimTime> repetition_interval{};
  sim::SimTime repetition_duration{sim::SimTime::zero()};
  geo::GeoArea destination_area{};
  std::optional<RelevanceDistance> relevance_distance{};
  std::optional<RelevanceTrafficDirection> relevance_traffic_direction{};
  std::optional<double> event_speed_mps{};
  std::optional<double> event_heading_rad{};
  std::optional<AlacarteContainer> alacarte{};
  StationType station_type{StationType::RoadSideUnit};
};

/// State the receiver keeps per known ActionID.
struct ReceivedDenmState {
  TimestampIts reference_time{0};
  TimestampIts detection_time{0};
  bool terminated{false};
  sim::SimTime expires{};
  /// Stored copy + scope for keep-alive forwarding.
  Denm last_denm{};
  std::optional<geo::GeoArea> area{};
};

/// DEN service configuration.
struct DenConfig {
  /// Keep-alive forwarding (EN 302 637-3 §8.2.2): a receiver inside the
  /// relevance area retransmits a stored DENM if no fresher copy is heard
  /// within the keep-alive interval, keeping long-lived events alive for
  /// late arrivals even after the originator left.
  bool enable_kaf{false};
  /// Fallback interval when the DENM carries no transmissionInterval.
  sim::SimTime kaf_default_interval{sim::SimTime::seconds(1)};
};

/// Decentralized Environmental Notification basic service: origination
/// (trigger/update/terminate with repetition), geo-broadcast transport and
/// reception state machine with novelty filtering (EN 302 637-3 §8).
class DenBasicService {
 public:
  /// `is_update` distinguishes first reception of an event from an update
  /// with a newer reference time; terminations arrive with
  /// denm.is_termination() true.
  using DenmCallback =
      std::function<void(const Denm&, const GnDeliveryMeta&, bool is_update)>;

  DenBasicService(sim::Scheduler& sched, GeoNetRouter& router, StationId station_id,
                  sim::Trace* trace = nullptr, Ldm* ldm = nullptr, DenConfig config = {});
  ~DenBasicService();
  DenBasicService(const DenBasicService&) = delete;
  DenBasicService& operator=(const DenBasicService&) = delete;

  /// AppDENM_trigger: creates the event and transmits its first DENM.
  /// Returns the allocated ActionID.
  ActionId trigger(const DenmRequest& request);
  /// AppDENM_update: re-announces an owned event with a new reference time.
  void update(ActionId id, const DenmRequest& request);
  /// AppDENM_termination: broadcasts a cancellation for an owned event.
  void terminate(ActionId id);

  /// Negation (EN 302 637-3: termination by a station *other than* the
  /// originator, e.g. the infrastructure clearing a stale hazard it can
  /// observe is gone). Requires the event to have been received; returns
  /// false when the ActionID (or its scope) is unknown.
  bool negate(ActionId id);

  /// Feed of BTP payloads arriving on port 2002 (wired by the station).
  void on_btp_payload(std::span<const std::uint8_t> denm_bytes, const GnDeliveryMeta& meta);

  void set_denm_callback(DenmCallback cb) { denm_cb_ = std::move(cb); }

  /// Invoked on every DENM this service transmits (trigger, repetition,
  /// update, termination) — lets alternative bearers (e.g. a cellular V2N
  /// downlink) carry a copy of the message.
  using TransmitHook = std::function<void(const Denm&)>;
  void set_transmit_hook(TransmitHook hook) { transmit_hook_ = std::move(hook); }

  [[nodiscard]] StationId station_id() const { return station_id_; }
  [[nodiscard]] bool owns(ActionId id) const { return originated_.contains(key(id)); }
  [[nodiscard]] std::optional<ReceivedDenmState> received_state(ActionId id) const;

  struct Stats {
    std::uint64_t denms_sent{0};
    std::uint64_t repetitions{0};
    std::uint64_t denms_received{0};
    std::uint64_t duplicates_discarded{0};
    std::uint64_t stale_discarded{0};
    std::uint64_t decode_errors{0};
    std::uint64_t kaf_retransmissions{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct OriginatedEvent {
    DenmRequest request;
    Denm current;
    sim::SimTime expires{};
    sim::SimTime repetition_ends{};
    sim::Scheduler::Ticket repetition_timer;
  };
  /// The service's own record of a received event: the state it hands out
  /// plus the keep-alive forwarding event, which stays private.
  struct ReceivedEvent : ReceivedDenmState {
    sim::Scheduler::Ticket kaf_timer;
  };

  [[nodiscard]] static std::pair<StationId, std::uint16_t> key(ActionId id) {
    return {id.originating_station, id.sequence_number};
  }
  [[nodiscard]] Denm build_denm(ActionId id, const DenmRequest& request,
                                TimestampIts detection_time) const;
  void transmit(const Denm& denm, const geo::GeoArea& area);
  void schedule_repetition(ActionId id);
  void schedule_kaf(ActionId id);
  /// Drops originated events whose validity elapsed (cancels repetition).
  void expire_originated();

  sim::Scheduler& sched_;
  GeoNetRouter& router_;
  StationId station_id_;
  sim::Trace* trace_;
  Ldm* ldm_;
  DenConfig config_;

  std::uint16_t next_sequence_{1};
  std::map<std::pair<StationId, std::uint16_t>, OriginatedEvent> originated_;
  std::map<std::pair<StationId, std::uint16_t>, ReceivedEvent> received_;
  DenmCallback denm_cb_;
  TransmitHook transmit_hook_;
  Stats stats_;
};

}  // namespace rst::its
