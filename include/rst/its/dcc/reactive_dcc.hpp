#pragma once

#include <array>
#include <cstdint>
#include <deque>

#include "rst/dot11p/frame.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/its/dcc/channel_probe.hpp"
#include "rst/sim/trace.hpp"

namespace rst::its::dcc {

/// Reactive DCC states (ETSI TS 102 687 §5.3, reactive approach): the
/// measured channel load selects the state; each state prescribes a
/// minimum gap between own transmissions (T_off / packet rate limit).
enum class DccState : std::uint8_t { Relaxed = 0, Active1 = 1, Active2 = 2, Active3 = 3, Restrictive = 4 };

/// State table entry: CBR threshold to *enter* the state (from below) and
/// the minimum inter-transmission gap enforced while in it.
struct DccStateParams {
  double cbr_up_threshold;
  sim::SimTime min_gap;
};

/// Default reactive table (TS 102 687 v1.1.1 Annex A flavour).
[[nodiscard]] const std::array<DccStateParams, 5>& default_dcc_table();


struct ReactiveDccConfig {
  std::array<DccStateParams, 5> table = default_dcc_table();
  /// Consecutive below-threshold windows required to step the state down
  /// (up-transitions are immediate); avoids oscillation.
  int down_hysteresis_windows{5};
  std::size_t queue_capacity_per_profile{8};
  sim::SimTime queued_packet_lifetime{sim::SimTime::milliseconds(500)};
};

/// Reactive DCC gatekeeper: sits between the networking layer and the
/// radio, enforcing the per-state minimum gap. Four priority queues (DCC
/// profiles DP0..DP3, mapped from the access category) so that DENMs (DP0)
/// preempt CAMs when the channel is congested. Queued packets older than
/// their lifetime are dropped.
class ReactiveDcc {
 public:
  using Config = ReactiveDccConfig;

  /// State changes are traced as Stage::DccState events from `station_id`.
  ReactiveDcc(sim::Scheduler& sched, dot11p::Radio& radio, ChannelProbe& probe, Config config = {},
              sim::Trace* trace = nullptr, std::uint32_t station_id = 0);
  ReactiveDcc(const ReactiveDcc&) = delete;
  ReactiveDcc& operator=(const ReactiveDcc&) = delete;

  /// Submits a frame; transmitted immediately if the gate is open,
  /// otherwise queued by DCC profile.
  void send(dot11p::Frame frame);

  /// Channel-load feed driving the state machine; normally wired to the
  /// ChannelProbe at construction, exposed for direct testing.
  void on_channel_load(double cbr);

  [[nodiscard]] DccState state() const { return state_; }
  [[nodiscard]] sim::SimTime current_min_gap() const;

  struct Stats {
    std::uint64_t passed{0};
    std::uint64_t queued{0};
    std::uint64_t dropped_queue_full{0};
    std::uint64_t dropped_expired{0};
    std::uint64_t state_changes{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Pending {
    dot11p::Frame frame;
    sim::SimTime enqueued;
  };

  void try_dequeue();
  /// Counts a state change and traces the new state.
  void trace_state_change();
  [[nodiscard]] static std::size_t profile_of(dot11p::AccessCategory ac) {
    return static_cast<std::size_t>(ac);  // DP0..DP3 <-> AC_VO..AC_BK
  }

  sim::Scheduler& sched_;
  dot11p::Radio& radio_;
  Config config_;
  sim::Trace* trace_;
  std::uint32_t station_id_;

  DccState state_{DccState::Relaxed};
  int below_windows_{0};
  sim::SimTime last_tx_{-sim::SimTime::seconds(1)};
  std::array<std::deque<Pending>, 4> queues_{};
  sim::Timer gate_timer_;
  Stats stats_;
};

}  // namespace rst::its::dcc
