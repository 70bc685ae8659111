#pragma once

#include <functional>
#include <map>
#include <string>

#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::sim {
class FaultInjector;
}

namespace rst::middleware {

struct HttpRequest {
  std::string path;
  std::string body;
};

struct HttpResponse {
  int status{200};
  std::string body;
};

class HttpHost;

struct HttpLanConfig {
  sim::SimTime one_way_latency{sim::SimTime::microseconds(250)};
  sim::SimTime one_way_jitter{sim::SimTime::microseconds(150)};
  sim::SimTime server_processing{sim::SimTime::microseconds(400)};
  sim::SimTime server_processing_jitter{sim::SimTime::microseconds(300)};
  /// Probability that a request is lost (connection reset); callers see
  /// status 0 after a timeout.
  double loss_probability{0.0};
  sim::SimTime loss_timeout{sim::SimTime::milliseconds(100)};
};

/// A small switched LAN carrying the testbed's HTTP traffic (the paper's
/// applications talk to the OpenC2X stack over its HTTP API: the Jetson
/// polls the OBU with POST /request_denm; the edge node triggers the RSU
/// with POST /trigger_denm).
///
/// Requests experience one-way network latency in each direction plus
/// server-side handling time, all configurable; the response is delivered
/// asynchronously to the caller's callback.
class HttpLan {
 public:
  using Config = HttpLanConfig;

  HttpLan(sim::Scheduler& sched, sim::RandomStream rng, Config config = {});

  void attach(HttpHost& host);
  void detach(const std::string& hostname);

  using ResponseCallback = std::function<void(const HttpResponse&)>;
  /// Issues a request from any attached context to `hostname`.
  void request(const std::string& hostname, HttpRequest req, ResponseCallback cb);

  /// Subscribes the LAN to a fault plan. Injection points: HttpLoss /
  /// HttpStall match target "lan" (or wildcard); NodeDown matches the
  /// destination hostname — a downed host loses every request addressed to
  /// it until the window closes (crash → restart). NodeDown is evaluated
  /// both at request time and again at dispatch time, so a window that
  /// opens while a request is in flight still crashes the exchange (the
  /// host never dispatches; the caller sees the loss-timeout status-0
  /// response and the loss is counted). An HttpLoss clause draws
  /// from the LAN's own stream, worst-of-composed with the legacy
  /// `loss_probability` knob, so a whole-run clause is draw-for-draw
  /// equivalent to setting the knob.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] std::uint64_t requests_sent() const { return requests_; }
  /// Requests that vanished (legacy loss knob, HttpLoss or NodeDown); the
  /// caller sees status 0 after `loss_timeout`.
  [[nodiscard]] std::uint64_t requests_lost() const { return requests_lost_; }

 private:
  [[nodiscard]] bool lose_request(const std::string& hostname);

  sim::Scheduler& sched_;
  sim::RandomStream rng_;
  Config config_;
  std::map<std::string, HttpHost*> hosts_;
  sim::FaultInjector* faults_{nullptr};
  std::uint64_t requests_{0};
  std::uint64_t requests_lost_{0};
};

/// One HTTP server on the LAN; handlers are registered per path.
class HttpHost {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpHost(HttpLan& lan, std::string hostname);
  ~HttpHost();
  HttpHost(const HttpHost&) = delete;
  HttpHost& operator=(const HttpHost&) = delete;

  void handle(const std::string& path, Handler handler);
  [[nodiscard]] const std::string& hostname() const { return hostname_; }

  /// Convenience client call originating from this host.
  void post(const std::string& hostname, const std::string& path, std::string body,
            HttpLan::ResponseCallback cb);

  // LAN-facing.
  [[nodiscard]] HttpResponse dispatch(const HttpRequest& req) const;

 private:
  HttpLan& lan_;
  std::string hostname_;
  std::map<std::string, Handler> handlers_;
};

}  // namespace rst::middleware
