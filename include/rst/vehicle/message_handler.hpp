#pragma once

#include <string>
#include <vector>

#include "rst/its/messages/denm.hpp"
#include "rst/middleware/http.hpp"
#include "rst/middleware/ntp.hpp"
#include "rst/sim/trace.hpp"
#include "rst/vehicle/vehicle_bus.hpp"

namespace rst::vehicle {

struct MessageHandlerConfig {
  sim::SimTime poll_period{sim::SimTime::milliseconds(50)};
  std::string obu_hostname{"obu"};
  /// Local handling time between response arrival and the bus publish.
  sim::SimTime handling_latency{sim::SimTime::microseconds(600)};
  sim::SimTime handling_jitter{sim::SimTime::microseconds(400)};
  /// DENM/CAM-liveness watchdog: when no successful poll response has been
  /// seen for `watchdog_timeout`, publish WatchdogState{degraded=true} on
  /// the `watchdog` topic — the planner caps its speed at the failsafe and
  /// the on-board AEB is armed — and recover on the next good response.
  /// Off by default (the nominal chain is byte-identical with it off).
  bool watchdog{false};
  sim::SimTime watchdog_timeout{sim::SimTime::milliseconds(400)};
};

/// The paper's OBU-polling script: "a Python script running at the Jetson
/// TX2 is constantly communicating with the OpenC2X HTTP API hosted at the
/// OBU, through POST requests sent to /request_denm" (§III-D2).
///
/// Polls at a fixed period; when a DENM comes back, it is interpreted and,
/// for hazard-class cause codes, an emergency stop is published to the
/// Motion Planner. The polling period dominates the paper's step 4->5
/// interval and is ablated in bench_ablation_polling.
class MessageHandler {
 public:
  using Config = MessageHandlerConfig;

  MessageHandler(sim::Scheduler& sched, VehicleBus& bus, middleware::HttpLan& lan,
                 sim::RandomStream rng, Config config = {}, sim::Trace* trace = nullptr);
  MessageHandler(const MessageHandler&) = delete;
  MessageHandler& operator=(const MessageHandler&) = delete;

  void start();

  /// True when the DENM's cause code demands an emergency stop.
  [[nodiscard]] static bool is_emergency(const its::Denm& denm);

  struct Stats {
    std::uint64_t polls{0};
    std::uint64_t denms_fetched{0};
    std::uint64_t emergencies{0};
    /// Poll responses that came back failed (lost request / non-200).
    std::uint64_t failed_polls{0};
    /// Polls issued while the previous response had failed — the fixed
    /// cadence doubles as the retry/backoff loop.
    std::uint64_t retries{0};
    std::uint64_t watchdog_degradations{0};
    std::uint64_t watchdog_recoveries{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// True while the liveness watchdog considers infrastructure contact lost.
  [[nodiscard]] bool degraded() const { return degraded_; }

 private:
  void poll();
  void on_response(int status, const std::vector<its::Denm>& denms);
  void handle_denm(const its::Denm& denm);
  void set_degraded(bool degraded);

  sim::Scheduler& sched_;
  VehicleBus& bus_;
  middleware::HttpLan& lan_;
  sim::RandomStream rng_;
  Config config_;
  sim::Trace* trace_;
  bool last_poll_failed_{false};
  bool degraded_{false};
  sim::SimTime last_contact_{};
  sim::Timer poll_timer_;
  Stats stats_;
};

}  // namespace rst::vehicle
