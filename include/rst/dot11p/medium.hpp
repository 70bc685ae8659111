#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rst/dot11p/channel.hpp"
#include "rst/dot11p/frame.hpp"
#include "rst/geo/vec2.hpp"
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
/// Every stochastic draw comes from a counter-based stream keyed on (sender
/// MAC, receiver MAC, sender frame count), so outcomes do not depend on the
/// order receivers are visited in or on how many radios are attached. Links
/// whose deterministic budget is below `power_floor_dbm` are out of range,
/// interference is a per-receiver running accumulator (O(1) per SINR
/// evaluation), and deterministic link budgets are cached per (tx, rx) slot
/// pair under position epochs, next to the path-loss model's `CullHint` for
/// the pair.
///
/// A transmission visits the attached radios in ascending slot id. One
/// whose recorded position lies beyond the transmitter's cull radius (the
/// inverse of `PathLossModel::min_loss_db` at the power floor, padded by
/// the distance a station at `max_station_speed_mps` covers between two
/// position sweeps) is culled without re-reading its position; that cannot
/// change any outcome, since it only skips links already below the floor.
/// A model with no range bound gives an infinite radius, and then every
/// radio is evaluated.
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

  struct Stats {
    std::uint64_t frames_transmitted{0};
    std::uint64_t deliveries{0};
    std::uint64_t dropped_half_duplex{0};
    std::uint64_t dropped_below_sensitivity{0};
    std::uint64_t dropped_error{0};
    /// Of dropped_below_sensitivity, how many links were never evaluated
    /// because their deterministic budget sat below the power floor
    /// (culled by recorded distance or floor-checked individually).
    std::uint64_t culled_below_floor{0};
    /// Link-budget cache performance.
    std::uint64_t budget_cache_hits{0};
    std::uint64_t budget_cache_misses{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const ChannelModel& channel() const { return channel_; }

  /// Subscribes the medium to a fault plan (injection point "medium":
  /// RadioBlackout / RadioAttenuation windows). Null detaches; the default
  /// path is a single pointer check per transmission. The extra attenuation
  /// is applied to the deterministic budget; the counter-keyed draws are
  /// unchanged by the hook.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

 private:
  struct Transmission {
    Radio* tx;
    std::uint32_t tx_slot{0};
    /// Draw key, snapshotted at start: the sender's MAC and its frame count
    /// on this medium, so every frame draws afresh however it was handed
    /// over and the key survives the sender detaching mid-flight.
    std::uint64_t tx_mac{0};
    std::uint64_t seq{0};
    Frame frame;  // payload shared, not copied, across all receivers
    std::size_t psdu_bytes;
    Mcs mcs{Mcs::Qpsk12};  // snapshot: the sender may detach mid-flight
    sim::SimTime start;
    sim::SimTime end;
    /// Receiver snapshot taken at transmission start: parallel flat arrays
    /// of radio, slot id, receive power and the running interference tally
    /// (mW, excluding this transmission's own power). A detached radio's
    /// entry is nulled, never erased, so indices stay stable.
    std::vector<Radio*> receivers;
    std::vector<std::uint32_t> rx_slots;
    std::vector<double> rx_power_dbm;
    std::vector<double> interference_mw;
  };

  /// An in-flight transmission heard by a radio, indexed from the hearing
  /// radio's slot so detach and interference updates are O(in-flight).
  struct ActiveRx {
    Transmission* t;
    std::uint32_t index;  // into t->receivers / t->rx_power_dbm
  };

  struct CachedBudget {
    std::uint32_t tx_epoch;
    std::uint32_t rx_epoch;
    double mean_dbm;
  };

  /// A budget computed without the cache map, keyed like a map entry.
  struct UnmappedBudget {
    std::uint64_t key;
    CachedBudget budget;
  };

  /// Medium-side per-radio state. Slots are reused through a free list, so
  /// a slot index stays valid for the whole attach..detach lifetime.
  struct Slot {
    Radio* radio{nullptr};
    geo::Vec2 pos{};               // last recorded position
    std::uint32_t epoch{0};        // bumped whenever `pos` is re-recorded
    std::uint64_t moved_in{0};     // serial of the transmission whose setup last moved us
    std::uint64_t tx_frames{0};    // frames sent since attach (draw key)
    double interference_mw{0.0};   // running sum of in-flight rx powers here
    double cull_radius_m{-1.0};    // cached inverted budget as transmitter
    double cull_budget_db{0.0};    // budget the radius was derived from
    std::vector<ActiveRx> active;  // in-flight transmissions hearing us
    std::vector<Transmission*> own;  // our own in-flight transmissions
    /// Budgets of lookups that skipped the map because we had just moved;
    /// only valid until we move again, so every move clears them.
    std::vector<UnmappedBudget> unmapped;
    /// As transmitter: the path-loss model's hint per receiver slot, from
    /// the last budget computed for that pair. Allocated (one row of
    /// `slots_.size()`) by the first hint the model leaves; never cleared,
    /// since any hint is a valid input.
    std::vector<CullHint> cull_hints;
  };

  void finish_transmission(const std::shared_ptr<Transmission>& t);

  /// Re-reads a radio's position; bumps its epoch when it changed, and
  /// records that the current transmission moved it.
  /// Returns the slot's recorded position.
  geo::Vec2 refresh_slot(std::uint32_t slot_id);
  /// Amortised full reposition sweep: runs at most once per reindex period,
  /// from begin_transmission, so recorded positions are never staler than
  /// one period (covered by the speed-bound padding of the cull radius).
  void maybe_reindex();
  /// Deterministic link budget via the epoch-validated (tx, rx) cache. A
  /// pair with an endpoint that moved during this transmission's setup
  /// skips the map. Hits and misses are counted as if every lookup went
  /// through the map.
  [[nodiscard]] double cached_budget_dbm(std::uint32_t tx_slot, std::uint32_t rx_slot);
  /// The budget itself. The path loss is capped at the power floor, so a
  /// link the model gives up on reads -inf; every other budget is exact.
  /// Hands the model the pair's cull hint and keeps the one it leaves.
  [[nodiscard]] double link_budget_dbm(Slot& tx, std::uint32_t rx_slot);
  /// Admits one receiver into transmission `t`: floor check, counter-keyed
  /// power draw, interference accounting and carrier sense.
  void admit_receiver(const std::shared_ptr<Transmission>& t, std::uint32_t rx_slot);
  [[nodiscard]] std::uint64_t link_key(std::uint64_t tx_mac, std::uint64_t rx_mac,
                                       std::uint64_t seq) const;
  void remove_active(Slot& slot, const Transmission* t, std::uint32_t index);
  [[nodiscard]] std::shared_ptr<Transmission> acquire_transmission();
  void release_transmission(const std::shared_ptr<Transmission>& t);
  [[nodiscard]] double invert_range_m(double budget_db) const;
  [[nodiscard]] double slot_cull_radius_m(Slot& slot);

  sim::Scheduler& sched_;
  sim::RandomStream link_rng_;
  ChannelModel channel_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::shared_ptr<Transmission>> pool_;  // finished transmissions for reuse
  std::unordered_map<std::uint64_t, CachedBudget> budget_cache_;
  std::uint64_t tx_serial_{0};  // transmissions begun; Slot::moved_in refers to it
  sim::SimTime last_reindex_{};
  double max_antenna_gain_dbi_{0.0};
  sim::FaultInjector* faults_{nullptr};
  /// Fault attenuation (dB) snapshotted once per transmission start.
  double tx_fault_db_{0.0};
  Stats stats_;
  std::uint64_t next_mac_{0x020000000001ULL};  // locally administered
};

}  // namespace rst::dot11p
