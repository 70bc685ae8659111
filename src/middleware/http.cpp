#include "rst/middleware/http.hpp"

#include "rst/sim/fault_plan.hpp"

namespace rst::middleware {

HttpLan::HttpLan(sim::Scheduler& sched, sim::RandomStream rng, Config config)
    : sched_{sched}, rng_{rng.child("http")}, config_{config} {}

void HttpLan::attach(const std::string& hostname, OpenC2xEndpoint& endpoint) {
  host(hostname).second = &endpoint;
}

void HttpLan::detach(const std::string& hostname) {
  if (const auto it = hosts_.find(hostname); it != hosts_.end()) it->second = nullptr;
}

HttpLan::Host& HttpLan::host(const std::string& hostname) {
  return *hosts_.try_emplace(hostname, nullptr).first;
}

bool HttpLan::lost_on_send(const std::string& hostname) {
  ++requests_;
  // A downed destination loses the request outright (no RNG draw: the host
  // is gone, not flaky). Otherwise an active HttpLoss clause draws from the
  // LAN's own stream.
  bool lost = faults_ && faults_->active(sim::FaultKind::NodeDown, hostname);
  if (!lost && faults_) {
    const double p = faults_->severity(sim::FaultKind::HttpLoss, "lan");
    lost = p > 0 && rng_.bernoulli(p);
  }
  if (lost) ++requests_lost_;
  return lost;
}

std::optional<HttpLan::Legs> HttpLan::draw_legs() {
  const auto leg = [this] {
    return config_.one_way_latency + rng_.uniform_time(sim::SimTime::zero(), config_.one_way_jitter);
  };
  const auto processing = config_.server_processing +
                          rng_.uniform_time(sim::SimTime::zero(), config_.server_processing_jitter);
  // Stall windows hold the response on the server for `severity` ms.
  const auto stall = faults_ ? sim::SimTime::from_milliseconds(
                                   faults_->severity(sim::FaultKind::HttpStall, "lan"))
                             : sim::SimTime::zero();
  const auto uplink = leg();
  const auto downlink = leg();
  if (stall > sim::SimTime::max() - sched_.now() - uplink - processing - downlink) {
    return std::nullopt;
  }
  return Legs{uplink + (processing + stall), downlink};
}

bool HttpLan::lost_at_dispatch(const std::string& hostname) {
  const bool lost = faults_ && faults_->active(sim::FaultKind::NodeDown, hostname);
  if (lost) ++requests_lost_;
  return lost;
}

}  // namespace rst::middleware
