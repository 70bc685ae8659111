#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"
#include "rst/sim/stats.hpp"

namespace rst::cellular {

/// Latency/loss model of a cellular (5G-like) access + core network.
///
/// The paper's future work installs a 5G module on the robotic vehicle "to
/// compare the same detection-to-action delay over a different interface
/// and network". This model captures the structural difference from
/// 802.11p ad-hoc broadcast: scheduled uplink access, a core-network
/// traversal, and scheduled downlink delivery — each with its own latency
/// distribution.
struct CellularConfig {
  /// Uplink scheduling + transmission (UE -> gNB).
  sim::SimTime uplink_mean{sim::SimTime::milliseconds(9)};
  sim::SimTime uplink_sigma{sim::SimTime::milliseconds(3)};
  /// Core / edge routing.
  sim::SimTime core_mean{sim::SimTime::milliseconds(4)};
  sim::SimTime core_sigma{sim::SimTime::milliseconds(1)};
  /// Downlink scheduling + transmission (gNB -> UE).
  sim::SimTime downlink_mean{sim::SimTime::milliseconds(7)};
  sim::SimTime downlink_sigma{sim::SimTime::milliseconds(2)};
  /// Hard floor on each component (propagation + minimum processing).
  sim::SimTime component_floor{sim::SimTime::microseconds(500)};
  double loss_probability{0.001};

  /// A URLLC-grade profile (configured grants, edge breakout).
  [[nodiscard]] static CellularConfig urllc();
};

class CellularNetwork;

/// One attached UE / application server.
class CellularEndpoint {
 public:
  using ReceiveCallback =
      std::function<void(const std::vector<std::uint8_t>& payload, const std::string& from)>;

  void set_receive_callback(ReceiveCallback cb) { receive_ = std::move(cb); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class CellularNetwork;
  CellularEndpoint(CellularNetwork& net, std::string name) : net_{&net}, name_{std::move(name)} {}
  CellularNetwork* net_;
  std::string name_;
  ReceiveCallback receive_;
};

/// The network: creates endpoints and carries unicast datagrams between
/// them with uplink+core+downlink latency and loss.
class CellularNetwork {
 public:
  CellularNetwork(sim::Scheduler& sched, sim::RandomStream rng, CellularConfig config = {});

  CellularEndpoint& create_endpoint(const std::string& name);

  /// Sends `payload` from `from` to `to`; drops silently on loss or when
  /// `to` is unknown / has no receive callback (see Stats::undeliverable).
  void send(const std::string& from, const std::string& to, std::vector<std::uint8_t> payload);

  /// Delivery accounting. At any quiescent point (no payload in flight)
  /// `sent == delivered + lost + undeliverable`; `latency_ms` samples only
  /// completed deliveries (never lost or undeliverable payloads).
  struct Stats {
    std::uint64_t sent{0};
    std::uint64_t delivered{0};
    std::uint64_t lost{0};
    /// Addressed to a missing endpoint or one without a receive callback
    /// (checked at send time and again at delivery time).
    std::uint64_t undeliverable{0};
    sim::RunningStats latency_ms{};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  sim::Scheduler& sched_;
  sim::RandomStream rng_;
  CellularConfig config_;
  std::map<std::string, std::unique_ptr<CellularEndpoint>> endpoints_;
  Stats stats_;
};

}  // namespace rst::cellular
