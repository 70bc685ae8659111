#pragma once

#include <cstdint>
#include <string_view>

#include "rst/sim/time.hpp"

namespace rst::sim {

/// Instrumented stages of the testbed, centred on the paper's Fig. 4
/// detection→actuation pipeline (camera frame → YOLO → hazard decision →
/// trigger_denm → RSU stack → air → OBU stack → poll → actuation) plus the
/// supporting V2X machinery (CAM traffic, GeoNet forwarding, keep-alive,
/// cellular bearer, on-board AEB).
enum class Stage : std::uint8_t {
  CameraFrame,      ///< roadside camera frame captured (span: capture→inference done)
  YoloDetection,    ///< YOLO inference output published to the edge bus
  HazardDecision,   ///< hazard service decided to warn (action point / CPA)
  TriggerDenm,      ///< edge node issued (or failed) the RSU /trigger_denm request
  DenmTx,           ///< DEN basic service transmitted a DENM
  DenmRx,           ///< DEN basic service received a DENM
  KafForward,       ///< keep-alive forwarding retransmission
  GnForward,        ///< GeoNet router re-broadcast a packet (greedy / CBF)
  DenmPoll,         ///< OBU app /request_denm poll (span: request→response)
  DenmFetch,        ///< OBU app fetched a DENM from a poll response
  InboxDrop,        ///< OpenC2X inbox overflow: oldest pending DENM dropped
  EmergencyStop,    ///< motion planner latched an emergency stop
  PowerCutCommand,  ///< ECU wrote the power-cut command to the actuators (step 5)
  PowerCutApplied,  ///< ESC applied the cut at the next PWM edge
  CamTx,            ///< CA basic service transmitted a CAM
  CamRx,            ///< CA basic service received a CAM
  ModemDenmRx,      ///< cellular bearer: DENM delivered to the vehicle modem
  AebTrigger,       ///< on-board AEB fallback fired
  FaultWindow,        ///< fault-plan clause window (span: activation→recovery)
  WatchdogDegraded,   ///< liveness watchdog lost infrastructure contact
  WatchdogRecovered,  ///< liveness watchdog saw polling resume
  CampaignAdmitted,   ///< campaign server admitted a valid campaign (a = campaign id)
  CampaignTrial,      ///< one campaign trial resolved (a = content key, detail: hit/miss)
  StoreCompaction,    ///< result-store compaction pass (value = bytes reclaimed)
  CpmTx,              ///< CP service transmitted a CPM (value = object count)
  CpmRx,              ///< CP service received a CPM (a = source station)
  CpmFusion,          ///< remote percept fused into the local LDM (a = object id)
  DccState,           ///< reactive DCC changed state (a = the new DccState)
};

/// Chrome trace-event phase of a typed record: a point event or one end of
/// a span (exported as async begin/end, matched by `TraceEvent::a`).
enum class Phase : std::uint8_t { Instant, Begin, End };

/// `TraceEvent::detail` values for Stage::HazardDecision.
inline constexpr std::uint16_t kHazardActionPoint = 0;  ///< value = estimated distance (m)
inline constexpr std::uint16_t kHazardCpaStation = 1;   ///< value = t_cpa (s)
inline constexpr std::uint16_t kHazardCpaObject = 2;    ///< value = t_cpa (s)
inline constexpr std::uint16_t kHazardFusedPercept = 3; ///< value = t_cpa (s), CPM-fused object
/// `TraceEvent::detail` values for Stage::TriggerDenm.
inline constexpr std::uint16_t kTriggerIssued = 0;
inline constexpr std::uint16_t kTriggerFailed = 1;
/// `TraceEvent::detail` bit for Stage::DenmTx / Stage::DenmRx.
inline constexpr std::uint16_t kDenmTermination = 1;
/// `TraceEvent::detail` values for Stage::CampaignTrial.
inline constexpr std::uint16_t kCampaignTrialMiss = 0;
inline constexpr std::uint16_t kCampaignTrialHit = 1;

/// One typed trace record: a small POD written into the Trace's pre-sized
/// ring buffer — no strings, no allocation on the recording path. The
/// stage identifies the emitting component; `station`/`a`/`value`/`detail`
/// are stage-specific payloads (see the call sites).
struct TraceEvent {
  SimTime when{};
  std::uint64_t a{0};      ///< packed ActionID / object id / frame number / …
  double value{0.0};       ///< distance (m) / t_cpa (s) / count / …
  std::uint32_t station{0};///< emitting station id (0 when not station-bound)
  std::uint16_t detail{0}; ///< stage-specific discriminator / flags
  Stage stage{Stage::CameraFrame};
  Phase phase{Phase::Instant};
};

/// Stable display name of a stage: the echo and Chrome trace event name.
[[nodiscard]] std::string_view stage_name(Stage stage);

/// Packs an ActionID into TraceEvent::a: (originating_station << 16) | seq.
[[nodiscard]] constexpr std::uint64_t pack_action(std::uint32_t originating_station,
                                                  std::uint16_t sequence_number) {
  return (static_cast<std::uint64_t>(originating_station) << 16) | sequence_number;
}
[[nodiscard]] constexpr std::uint32_t action_station(std::uint64_t packed) {
  return static_cast<std::uint32_t>(packed >> 16);
}
[[nodiscard]] constexpr std::uint16_t action_sequence(std::uint64_t packed) {
  return static_cast<std::uint16_t>(packed & 0xffff);
}

}  // namespace rst::sim
