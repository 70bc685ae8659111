#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>

#include "rst/dot11p/frame.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/phy_params.hpp"
#include "rst/geo/vec2.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::dot11p {

/// An ITS-G5 radio: 802.11p PHY plus an EDCA (CSMA/CA) MAC in OCB mode.
///
/// Broadcast-only (matching CAM/DENM traffic): no RTS/CTS, no ACK, no
/// retransmission, contention window stays at CWmin. Four independent EDCA
/// queues contend; an internal collision resolves in favour of whichever
/// attempt fires first in the event queue (the standard's priority order is
/// preserved statistically through the shorter AIFS/CW of higher ACs).
class Radio {
 public:
  using ReceiveCallback = std::function<void(const Frame&, const RxInfo&)>;
  using PositionProvider = std::function<geo::Vec2()>;

  Radio(Medium& medium, RadioConfig config, PositionProvider position, sim::RandomStream rng,
        std::string name);
  ~Radio();
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  /// Queues a frame for transmission on its access category.
  void send(Frame frame);

  void set_receive_callback(ReceiveCallback cb) { receive_cb_ = std::move(cb); }

  /// Monitoring tap invoked for every successfully received frame, in
  /// addition to the receive callback (frame capture / sniffers).
  void set_promiscuous_tap(ReceiveCallback tap) { tap_ = std::move(tap); }

  [[nodiscard]] geo::Vec2 position() const { return position_(); }
  [[nodiscard]] const RadioConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t mac_address() const { return mac_; }
  [[nodiscard]] bool is_transmitting() const { return transmitting_; }

  struct Stats {
    std::uint64_t tx_frames{0};
    std::uint64_t rx_frames{0};
    std::uint64_t queue_len_peak{0};
    std::uint64_t queue_drops{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Total time the channel has been perceived busy (carrier sensed or own
  /// transmission) since construction. The DCC channel probe differentiates
  /// this to compute the channel busy ratio.
  [[nodiscard]] sim::SimTime cumulative_busy_time() const;

  // --- Medium-facing interface (not for application use) ---
  void on_cs_busy_delta(int delta);
  void on_tx_complete();
  void deliver(const Frame& frame, const RxInfo& info);
  /// True if this radio transmitted during any part of [start, end].
  [[nodiscard]] bool was_transmitting_during(sim::SimTime start, sim::SimTime end) const;
  /// Settles carrier-sense state when the medium detaches this radio while
  /// `cs_busy_decrements` in-flight frames still hold it busy. Adjusts the
  /// busy bookkeeping only — no countdown resumption, no new events — so it
  /// is safe to call from the destructor's detach.
  void settle_detach(int cs_busy_decrements);
  /// Slot index assigned by the medium at attach (stable until detach).
  void set_medium_slot(std::uint32_t slot) { medium_slot_ = slot; }
  [[nodiscard]] std::uint32_t medium_slot() const { return medium_slot_; }

 private:
  struct AcState {
    std::deque<Frame> queue;
    int backoff_slots{-1};
    sim::SimTime countdown_start{};
    sim::Scheduler::Ticket attempt;
  };

  [[nodiscard]] bool channel_busy() const { return busy_count_ > 0 || transmitting_; }
  void arm_attempt(AccessCategory ac);
  void cancel_countdowns();
  void resume_countdowns();
  void transmit(AccessCategory ac);

  Medium& medium_;
  RadioConfig config_;
  PositionProvider position_;
  sim::RandomStream rng_;
  std::string name_;
  std::uint64_t mac_;

  /// Busy-time bookkeeping shared by MAC and the DCC probe.
  void update_busy_accounting(bool busy_now);

  std::array<AcState, kAccessCategoryCount> acs_{};
  int busy_count_{0};
  bool transmitting_{false};
  sim::SimTime idle_since_{};
  sim::SimTime busy_accumulated_{};
  sim::SimTime busy_since_{};
  bool was_busy_{false};
  /// Recent tx intervals, fixed ring so the hot path never touches the heap.
  std::array<std::pair<sim::SimTime, sim::SimTime>, 16> tx_history_{};
  std::size_t tx_history_size_{0};
  std::size_t tx_history_next_{0};
  sim::SimTime current_tx_start_{};
  std::uint32_t medium_slot_{0};

  ReceiveCallback receive_cb_;
  ReceiveCallback tap_;
  Stats stats_;
};

}  // namespace rst::dot11p
