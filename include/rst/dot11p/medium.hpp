#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rst/dot11p/channel.hpp"
#include "rst/dot11p/frame.hpp"
#include "rst/geo/spatial_grid.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::sim {
class FaultInjector;
}

namespace rst::dot11p {

class Radio;

/// The shared radio environment: propagation, interference and frame
/// delivery between all attached radios.
///
/// Model: when a radio transmits, the receive power at every other radio is
/// drawn once (path loss + log-normal shadowing) and reused both for
/// carrier-sense busy indications and for the reception decision at the end
/// of the airtime. Reception fails if the receiver transmitted during the
/// frame (half-duplex), if the power is below sensitivity, or by a
/// SINR-dependent packet error draw where interference is the sum of all
/// time-overlapping transmissions. Hidden terminals arise naturally from
/// per-receiver carrier sensing.
///
/// Two execution paths share that model:
///
///  - Legacy (default): receivers visited in attach order, stochastic draws
///    from two medium-wide streams in visit order, interference by linear
///    scan over in-flight transmissions. Bit-identical to the original
///    implementation.
///  - Per-link (`ChannelModel::per_link_streams`): draws come from
///    counter-based streams keyed on (tx MAC, rx MAC, tx sequence), links
///    whose deterministic budget is below `power_floor_dbm` are out of
///    range, interference is a per-receiver running accumulator (O(1) per
///    SINR evaluation), and deterministic link budgets are cached per
///    (tx, rx) slot pair under position epochs. With
///    `ChannelModel::spatial_index` also set, receivers are culled through
///    a uniform spatial hash grid, which cannot change any outcome — it
///    only skips links already below the power floor.
class Medium {
 public:
  Medium(sim::Scheduler& sched, sim::RandomStream rng, ChannelModel channel);
  ~Medium();

  void attach(Radio* radio);
  void detach(Radio* radio);

  /// Hands out locally-administered MAC addresses to attaching radios.
  /// Per-medium (not process-global) so concurrent scenarios in different
  /// threads never share mutable state and every scenario sees the same
  /// address sequence regardless of what ran before it in the process.
  [[nodiscard]] std::uint64_t allocate_mac() { return next_mac_++; }

  /// Called by Radio when its MAC wins channel access. `psdu_bytes` is the
  /// on-air PSDU size (payload + MAC overhead).
  void begin_transmission(Radio* tx, Frame frame, std::size_t psdu_bytes);

  /// Deterministic receive power (dBm) ignoring the shadowing draw; used by
  /// link-budget introspection and tests.
  [[nodiscard]] double mean_rx_power_dbm(const Radio& tx, const Radio& rx) const;

  /// Conservative hearing radius for `tx` in per-link mode: the distance at
  /// which the best-case link budget falls to the configured power floor
  /// (infinite when the path-loss model cannot bound it). Exposed for tests
  /// and capacity planning.
  [[nodiscard]] double cull_radius_m(const Radio& tx) const;

  struct Stats {
    std::uint64_t frames_transmitted{0};
    std::uint64_t deliveries{0};
    std::uint64_t dropped_half_duplex{0};
    std::uint64_t dropped_below_sensitivity{0};
    std::uint64_t dropped_error{0};
    /// Of dropped_below_sensitivity, how many links were never evaluated
    /// because their deterministic budget sat below the power floor
    /// (bulk-culled by the grid or floor-checked individually). Always 0 in
    /// legacy mode.
    std::uint64_t culled_below_floor{0};
    /// Link-budget cache performance (per-link mode only).
    std::uint64_t budget_cache_hits{0};
    std::uint64_t budget_cache_misses{0};
    /// Epoch-validated NLOS memo performance (legacy mode with an
    /// ObstacleShadowingModel only — the per-link path's budget cache
    /// already memoizes the full loss there). Both 0 otherwise.
    std::uint64_t nlos_memo_hits{0};
    std::uint64_t nlos_memo_misses{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const ChannelModel& channel() const { return channel_; }

  /// Subscribes the medium to a fault plan (injection point "medium":
  /// RadioBlackout / RadioAttenuation windows). Null detaches; the default
  /// path is a single pointer check per transmission. The extra attenuation
  /// is applied after the stochastic draws (legacy) / to the deterministic
  /// budget (per-link), so the draw sequence is unchanged by the hook.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

 private:
  struct Transmission {
    Radio* tx;
    std::uint32_t tx_slot{0};
    Frame frame;  // payload shared, not copied, across all receivers
    std::size_t psdu_bytes;
    Mcs mcs{Mcs::Qpsk12};  // snapshot: the sender may detach mid-flight
    std::uint64_t seq{0};  // transmitter's frame sequence (per-link stream key)
    sim::SimTime start;
    sim::SimTime end;
    /// Receiver snapshot taken at transmission start, parallel to
    /// `rx_power_dbm` (flat arrays instead of a per-transmission map).
    /// A detached radio's slot is nulled, never erased, so indices stay
    /// stable for the interference lookup.
    std::vector<Radio*> receivers;
    std::vector<double> rx_power_dbm;
    /// Per-link mode: receiver slot ids and the running interference tally
    /// (mW, excluding this transmission's own power) parallel to
    /// `receivers`. Legacy mode leaves these empty.
    std::vector<std::uint32_t> rx_slots;
    std::vector<double> interference_mw;
  };

  /// An in-flight transmission heard by a radio, indexed from the hearing
  /// radio's slot so detach and interference updates are O(in-flight).
  struct ActiveRx {
    Transmission* t;
    std::uint32_t index;  // into t->receivers / t->rx_power_dbm
  };

  /// Medium-side per-radio state. Slots are reused through a free list, so
  /// a slot index stays valid for the whole attach..detach lifetime.
  struct Slot {
    Radio* radio{nullptr};
    geo::Vec2 pos{};               // last recorded position
    std::uint32_t epoch{0};        // bumped whenever `pos` is re-recorded
    double interference_mw{0.0};   // running sum of in-flight rx powers here
    double cull_radius_m{-1.0};    // cached inverted budget as transmitter
    double cull_budget_db{0.0};    // budget the radius was derived from
    std::vector<ActiveRx> active;  // in-flight transmissions hearing us
    std::vector<Transmission*> own;  // our own in-flight transmissions
  };

  struct CachedBudget {
    std::uint32_t tx_epoch;
    std::uint32_t rx_epoch;
    double mean_dbm;
  };

  /// Legacy-path memo of an obstacle model evaluation for one (tx, rx) slot
  /// pair, valid while both slots' motion epochs are unchanged. Stores the
  /// *finished* total loss — re-associating a cached base with cached wall
  /// terms would change the floating-point sum and break bit-identity with
  /// the unmemoized walk.
  struct CachedNlos {
    std::uint32_t tx_epoch;
    std::uint32_t rx_epoch;
    double loss_db;
    std::uint32_t depth;
  };

  /// Verdict of one receiver's reception decision at the finish event.
  enum class RxVerdict : std::uint8_t {
    kSkip,  // detached mid-flight
    kBelowSensitivity,
    kHalfDuplex,
    kError,
    kDeliver,
  };

  void begin_transmission_legacy(const std::shared_ptr<Transmission>& t);
  void begin_transmission_per_link(const std::shared_ptr<Transmission>& t);
  void finish_transmission(const std::shared_ptr<Transmission>& t);
  void finish_transmission_legacy(const std::shared_ptr<Transmission>& t);
  void finish_transmission_per_link(const std::shared_ptr<Transmission>& t);
  [[nodiscard]] double interference_mw(const Transmission& t, Radio* rx) const;

  /// Re-reads a radio's position; bumps its epoch (and moves its grid bin)
  /// when it changed. Returns the slot's recorded position.
  geo::Vec2 refresh_slot(std::uint32_t slot_id);
  /// Amortised full reposition sweep: runs at most once per reindex period,
  /// from begin_transmission, so recorded positions are never staler than
  /// one period (covered by the speed-bound query padding).
  void maybe_reindex();
  /// Deterministic link budget via the epoch-validated (tx, rx) cache.
  [[nodiscard]] double cached_budget_dbm(std::uint32_t tx_slot, std::uint32_t rx_slot);
  /// Legacy-path deterministic receive power. When the channel carries an
  /// obstacle model, the wall walk is served through the epoch-validated
  /// NLOS memo so static tx/rx pairs never re-walk; otherwise identical to
  /// `mean_rx_power_dbm`.
  [[nodiscard]] double legacy_mean_dbm(Radio* tx, std::uint32_t tx_slot, Radio* rx,
                                       std::uint32_t rx_slot);
  /// Admits one receiver into transmission `t` (power draw, CS busy,
  /// interference accounting). Shared by the culled and full-fan-out
  /// per-link paths.
  void admit_receiver_per_link(const std::shared_ptr<Transmission>& t, std::uint32_t rx_slot);
  /// Stochastic per-link receive power: deterministic mean plus the
  /// counter-keyed shadowing/fading draws.
  [[nodiscard]] double draw_link_power_dbm(double mean_dbm, std::uint64_t tx_mac,
                                           std::uint64_t rx_mac, std::uint64_t seq) const;
  /// Side-effect half of receiver admission (interference seeding and
  /// tallies, snapshot pushes, carrier sense).
  void apply_admission(const std::shared_ptr<Transmission>& t, std::uint32_t rx_slot, double p);
  /// Reception decision for receiver `i` of `t`; reads shared state but
  /// never writes it.
  [[nodiscard]] RxVerdict compute_rx_verdict(const Transmission& t, std::size_t i,
                                             double noise_mw, double& sinr_db) const;
  void apply_rx_verdict(const std::shared_ptr<Transmission>& t, std::size_t i, RxVerdict v,
                        double sinr_db);
  [[nodiscard]] std::uint64_t link_key(std::uint64_t tx_mac, std::uint64_t rx_mac,
                                       std::uint64_t seq) const;
  void remove_active(Slot& slot, const Transmission* t, std::uint32_t index);
  [[nodiscard]] std::shared_ptr<Transmission> acquire_transmission();
  void release_transmission(const std::shared_ptr<Transmission>& t);
  void ensure_grid(const RadioConfig& first_cfg);
  [[nodiscard]] double invert_range_m(double budget_db) const;
  [[nodiscard]] double slot_cull_radius_m(Slot& slot);

  sim::Scheduler& sched_;
  sim::RandomStream shadow_rng_;
  sim::RandomStream per_rng_;
  sim::RandomStream link_rng_;
  ChannelModel channel_;
  bool per_link_;  // channel_.per_link_streams || channel_.spatial_index
  std::vector<Radio*> radios_;  // attach order; the legacy iteration order
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t attached_count_{0};
  std::vector<std::shared_ptr<Transmission>> transmissions_;  // legacy scan
  std::vector<std::shared_ptr<Transmission>> pool_;  // per-link reuse
  std::unordered_map<std::uint64_t, CachedBudget> budget_cache_;
  /// Legacy-path NLOS memo, keyed (tx_slot << 32) | rx_slot. Non-null
  /// obstacle_model_ (set once in the constructor) is its enable switch.
  const ObstacleShadowingModel* obstacle_model_{nullptr};
  std::unordered_map<std::uint64_t, CachedNlos> nlos_cache_;
  std::unique_ptr<geo::SpatialGrid> grid_;
  std::vector<std::uint32_t> scratch_candidates_;
  sim::SimTime last_reindex_{};
  sim::SimTime reindex_period_{};
  double max_antenna_gain_dbi_{0.0};
  sim::FaultInjector* faults_{nullptr};
  /// Fault attenuation (dB) snapshotted once per transmission start.
  double tx_fault_db_{0.0};
  Stats stats_;
  std::uint64_t next_mac_{0x020000000001ULL};  // locally administered
};

}  // namespace rst::dot11p
