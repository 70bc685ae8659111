#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rst/its/facilities/den_basic_service.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::sim {
class FaultInjector;
}

namespace rst::middleware {

struct HttpLanConfig {
  sim::SimTime one_way_latency{sim::SimTime::microseconds(250)};
  sim::SimTime one_way_jitter{sim::SimTime::microseconds(150)};
  sim::SimTime server_processing{sim::SimTime::microseconds(400)};
  sim::SimTime server_processing_jitter{sim::SimTime::microseconds(300)};
  /// A lost request (HttpLoss, NodeDown) answers status 0 this long after
  /// it was sent.
  sim::SimTime loss_timeout{sim::SimTime::milliseconds(100)};
};

/// The two OpenC2X calls a host serves on the LAN (§III-D2). `OpenC2xApi`
/// serves them for a station; a test may stand in for one.
class OpenC2xEndpoint {
 public:
  /// POST /trigger_denm: originates a DENM.
  virtual its::ActionId trigger_denm(const its::DenmRequest& request) = 0;
  /// POST /request_denm: the DENMs received since the last call, oldest
  /// first.
  virtual std::vector<its::Denm> request_denm() = 0;
};

/// A small switched LAN carrying the testbed's HTTP traffic: the Jetson
/// polls the OBU with POST /request_denm and the edge node triggers the
/// RSU with POST /trigger_denm (§III-D2). The calls are typed; the LAN
/// models their timing only: one-way latency each way plus server-side
/// handling, drawn when the request is sent. The caller's
/// `done(status, result)` runs when the response arrives, with status 200,
/// 404 for a host nothing serves, or 0 for a lost request.
class HttpLan {
 public:
  using Config = HttpLanConfig;

  HttpLan(sim::Scheduler& sched, sim::RandomStream rng, Config config = {});

  /// Serves `endpoint` under `hostname` until `detach(hostname)`.
  void attach(const std::string& hostname, OpenC2xEndpoint& endpoint);
  void detach(const std::string& hostname);

  /// POST /trigger_denm to `hostname`; `done(int status, its::ActionId)`.
  template <typename Done>
  void trigger_denm(const std::string& hostname, its::DenmRequest request, Done done) {
    exchange(
        hostname,
        [request = std::move(request)](OpenC2xEndpoint& api) { return api.trigger_denm(request); },
        std::move(done));
  }

  /// POST /request_denm to `hostname`;
  /// `done(int status, std::vector<its::Denm>)`.
  template <typename Done>
  void request_denm(const std::string& hostname, Done done) {
    exchange(
        hostname, [](OpenC2xEndpoint& api) { return api.request_denm(); }, std::move(done));
  }

  /// Subscribes the LAN to a fault plan. Injection points: HttpLoss /
  /// HttpStall match target "lan" (or wildcard); NodeDown matches the
  /// destination hostname — a downed host loses every request addressed to
  /// it until the window closes (crash → restart). NodeDown is evaluated
  /// both at request time and again at dispatch time, so a window that
  /// opens while a request is in flight still crashes the exchange (the
  /// host never dispatches; the caller sees the loss-timeout status-0
  /// response and the loss is counted). An HttpLoss clause draws from the
  /// LAN's own stream, only while it is active.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  [[nodiscard]] std::uint64_t requests_sent() const { return requests_; }
  /// Requests that vanished (HttpLoss or NodeDown); the caller sees status
  /// 0 after `loss_timeout`.
  [[nodiscard]] std::uint64_t requests_lost() const { return requests_lost_; }

 private:
  /// A hostname the LAN has seen, with what serves it (null: nothing).
  /// Entries are never erased, so a request in flight can hold one.
  using Host = std::pair<const std::string, OpenC2xEndpoint*>;

  /// One exchange's call and the caller's continuation. The poll's `Serve`
  /// is empty and takes no room, so both events of a poll fit the
  /// scheduler's inline callback buffer.
  template <typename Serve, typename Done>
  struct Call {
    [[no_unique_address]] Serve serve;
    Done done;
  };

  /// When the request reaches the host, and how long its response takes.
  struct Legs {
    sim::SimTime elapsed;
    sim::SimTime downlink;
  };

  template <typename Serve, typename Done>
  void exchange(const std::string& hostname, Serve serve, Done done);
  template <typename Done, typename Result>
  void respond(sim::SimTime delay, Done done, int status, Result result) {
    sched_.post_in(delay, [done = std::move(done), result = std::move(result), status]() mutable {
      done(status, std::move(result));
    });
  }

  [[nodiscard]] Host& host(const std::string& hostname);
  /// Counts a request; true (and counted as lost) when a downed host or an
  /// HttpLoss draw loses it.
  [[nodiscard]] bool lost_on_send(const std::string& hostname);
  /// Draws processing, uplink and downlink, in that order; nullopt when a
  /// stall would carry the response past the end of the clock, which
  /// holds the request for good.
  [[nodiscard]] std::optional<Legs> draw_legs();
  /// True (and counted as lost) when the host went down while the request
  /// was in flight.
  [[nodiscard]] bool lost_at_dispatch(const std::string& hostname);

  sim::Scheduler& sched_;
  sim::RandomStream rng_;
  Config config_;
  std::map<std::string, OpenC2xEndpoint*> hosts_;
  sim::FaultInjector* faults_{nullptr};
  std::uint64_t requests_{0};
  std::uint64_t requests_lost_{0};
};

template <typename Serve, typename Done>
void HttpLan::exchange(const std::string& hostname, Serve serve, Done done) {
  using Result = std::invoke_result_t<Serve&, OpenC2xEndpoint&>;
  Host& to = host(hostname);
  if (lost_on_send(to.first)) {
    respond(config_.loss_timeout, std::move(done), 0, Result{});
    return;
  }
  const std::optional<Legs> drawn = draw_legs();
  if (!drawn) return;
  const Legs legs = *drawn;
  sched_.post_in(legs.elapsed, [this, &to, legs,
                                call = Call<Serve, Done>{std::move(serve), std::move(done)}]() mutable {
    if (lost_at_dispatch(to.first)) {
      // The host crashed before it could serve: status 0 at `loss_timeout`
      // after the request, at once if the crash is discovered later.
      const auto remaining = config_.loss_timeout > legs.elapsed
                                 ? config_.loss_timeout - legs.elapsed
                                 : sim::SimTime::zero();
      respond(remaining, std::move(call.done), 0, Result{});
    } else if (!to.second) {
      respond(legs.downlink, std::move(call.done), 404, Result{});
    } else {
      respond(legs.downlink, std::move(call.done), 200, call.serve(*to.second));
    }
  });
}

}  // namespace rst::middleware
