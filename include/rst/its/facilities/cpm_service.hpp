#pragma once

#include <functional>
#include <span>
#include <vector>

#include "rst/its/facilities/ldm.hpp"
#include "rst/its/messages/cpm.hpp"
#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/sim/metrics.hpp"
#include "rst/sim/trace.hpp"

namespace rst::its {

/// Collective Perception service configuration (TS 103 324 style).
struct CpmConfig {
  /// T_GenCpm: fixed generation period (the standard runs 100 ms..1 s).
  sim::SimTime interval{sim::SimTime::milliseconds(250)};
  std::size_t max_objects{kCpmMaxPerceivedObjects};
  /// Redundancy mitigation: an own percept is skipped when another station
  /// announced an object within `redundancy_gating_m` of it less than
  /// `redundancy_window` ago (half-open window, like the LDM lifetime).
  sim::SimTime redundancy_window{sim::SimTime::milliseconds(500)};
  double redundancy_gating_m{0.9};
  /// Fusion dedup: a remote percept within this distance of a live LDM
  /// object is treated as the same physical object (the associator's
  /// gating-distance convention).
  double fusion_gating_m{0.9};
  /// Heading gate for the dedup match: when both the remote percept and
  /// the LDM candidate are moving, their velocity headings must agree to
  /// within this angle or they count as distinct objects.
  double fusion_heading_gate_rad{1.0472};  // 60 deg
  /// Speed below which an object counts as stationary for the heading gate.
  double fusion_moving_speed_mps{0.05};
  /// Remote percepts below this confidence are dropped at the fusion
  /// boundary (the testbed wires this to the hazard gate min_confidence).
  double fusion_min_confidence{0.0};
  /// Transport: SHB by default; GBC scoped to a circle around the sender
  /// when `use_gbc` is set (multi-hop dissemination).
  bool use_gbc{false};
  double destination_radius_m{150.0};
  StationType station_type{StationType::Unknown};
};

/// Collective Perception basic service: periodically publishes the
/// station's locally sensed LDM perceived objects as CPM perceived-object
/// containers, and fuses remote percepts from received CPMs back into the
/// LDM with provenance, dedup, and confidence gating — so hazard logic and
/// the collision predictor consume the fused picture.
class CpmService {
 public:
  /// Invoked for every remote percept accepted into the local LDM.
  using FusedCallback = std::function<void(const PerceivedObject&, const GnDeliveryMeta&)>;

  CpmService(sim::Scheduler& sched, GeoNetRouter& router, StationId station_id, CpmConfig config,
             Ldm* ldm = nullptr, sim::Trace* trace = nullptr);

  /// Begins periodic generation. Idempotent.
  void start();

  /// Sends one CPM immediately, outside the generation cadence. Returns
  /// the number of objects published (0 means nothing was sent).
  std::size_t send_now();

  /// Feed of BTP payloads arriving on port 2009 (wired by the station).
  void on_btp_payload(std::span<const std::uint8_t> cpm_bytes, const GnDeliveryMeta& meta);

  void set_fused_callback(FusedCallback cb) { fused_cb_ = std::move(cb); }
  /// Attaches cpm.* counters (objects published/fused/deduped/gated/
  /// redundancy-skipped/expired). Null detaches.
  void set_metrics(sim::MetricsRegistry* metrics);

  /// Builds the CPM that would be sent right now (exposed for tests);
  /// applies redundancy mitigation but records no stats.
  [[nodiscard]] Cpm build_cpm() const;

  /// Synthesises the LDM object id for a remote percept: high bit marks
  /// remote provenance, then the low 15 bits of the source station and the
  /// 16-bit wire object id, so percepts from distinct stations never clash
  /// with each other or with local sensing ids.
  [[nodiscard]] static std::uint32_t remote_object_id(StationId source, std::uint16_t wire_id) {
    return 0x80000000u | ((source & 0x7fffu) << 16) | wire_id;
  }

  struct Stats {
    std::uint64_t cpms_sent{0};
    std::uint64_t cpms_received{0};
    std::uint64_t decode_errors{0};
    std::uint64_t objects_published{0};
    std::uint64_t objects_redundancy_skipped{0};
    std::uint64_t objects_fused{0};
    std::uint64_t objects_deduped{0};
    std::uint64_t objects_gated{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const CpmConfig& config() const { return config_; }

 private:
  /// A perceived-object announcement heard from another station, kept for
  /// the redundancy-mitigation window.
  struct RemoteAnnouncement {
    geo::Vec2 position{};
    sim::SimTime heard{};
    StationId station{0};
  };

  void generate();
  Cpm build(std::uint64_t* redundancy_skipped) const;
  [[nodiscard]] bool recently_announced_by_peer(const geo::Vec2& position) const;
  void prune_announcements();
  void publish_expired_delta();

  sim::Scheduler& sched_;
  GeoNetRouter& router_;
  StationId station_id_;
  CpmConfig config_;
  Ldm* ldm_;
  sim::Trace* trace_;

  sim::Timer timer_;
  std::vector<RemoteAnnouncement> announcements_;
  FusedCallback fused_cb_;
  sim::MetricsRegistry* metrics_{nullptr};
  std::uint64_t expired_baseline_{0};
  Stats stats_;
};

}  // namespace rst::its
