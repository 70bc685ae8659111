#include "rst/cellular/cellular_link.hpp"

#include <stdexcept>

namespace rst::cellular {

CellularConfig CellularConfig::urllc() {
  CellularConfig c;
  c.uplink_mean = sim::SimTime::milliseconds(1);
  c.uplink_sigma = sim::SimTime::microseconds(300);
  c.core_mean = sim::SimTime::milliseconds(1);
  c.core_sigma = sim::SimTime::microseconds(200);
  c.downlink_mean = sim::SimTime::milliseconds(1);
  c.downlink_sigma = sim::SimTime::microseconds(300);
  c.loss_probability = 1e-5;
  return c;
}

CellularNetwork::CellularNetwork(sim::Scheduler& sched, sim::RandomStream rng, CellularConfig config)
    : sched_{sched}, rng_{rng.child("cellular")}, config_{config} {}

CellularEndpoint& CellularNetwork::create_endpoint(const std::string& name) {
  auto [it, inserted] =
      endpoints_.emplace(name, std::unique_ptr<CellularEndpoint>(new CellularEndpoint{*this, name}));
  if (!inserted) throw std::invalid_argument{"CellularNetwork: duplicate endpoint " + name};
  return *it->second;
}

void CellularNetwork::send(const std::string& from, const std::string& to,
                           std::vector<std::uint8_t> payload) {
  ++stats_.sent;
  // A destination that does not exist (or cannot receive) is unreachable,
  // not lost in transit: no loss draw, no latency sample, no network event.
  // Without this check such a payload would count as `sent` but neither
  // `lost` nor `delivered`, and its latency would still pollute the sample.
  const auto dest = endpoints_.find(to);
  if (dest == endpoints_.end() || !dest->second->receive_) {
    ++stats_.undeliverable;
    return;
  }
  if (rng_.bernoulli(config_.loss_probability)) {
    ++stats_.lost;
    return;
  }
  const auto component = [this](sim::SimTime mean, sim::SimTime sigma) {
    return rng_.normal_time(mean, sigma, config_.component_floor);
  };
  const auto latency = component(config_.uplink_mean, config_.uplink_sigma) +
                       component(config_.core_mean, config_.core_sigma) +
                       component(config_.downlink_mean, config_.downlink_sigma);
  sched_.post_in(latency, [this, from, to, latency, payload = std::move(payload)] {
    // The endpoint (or its callback) may have gone away while the payload
    // was in flight; account for it so sent == delivered + lost +
    // undeliverable holds at any quiescent point. Latency is sampled only
    // here, on completed deliveries.
    const auto it = endpoints_.find(to);
    if (it == endpoints_.end() || !it->second->receive_) {
      ++stats_.undeliverable;
      return;
    }
    ++stats_.delivered;
    stats_.latency_ms.add(latency.to_milliseconds());
    it->second->receive_(payload, from);
  });
}

}  // namespace rst::cellular
