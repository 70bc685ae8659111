#pragma once

#include <string>
#include <vector>

#include "rst/its/facilities/den_basic_service.hpp"
#include "rst/middleware/http.hpp"
#include "rst/sim/trace.hpp"

namespace rst::middleware {

/// OpenC2X-style API bound to a station's DEN basic service, attached to
/// the HTTP LAN under the station's hostname for its lifetime.
///
/// Mirrors the integration points the paper uses (§III-D2):
///  * `POST /trigger_denm` — the road-side edge node calls this on the RSU
///    to originate a DENM.
///  * `POST /request_denm` — the vehicle's Python-script equivalent polls
///    this on the OBU for the DENMs received since its last poll.
class OpenC2xApi final : public OpenC2xEndpoint {
 public:
  OpenC2xApi(HttpLan& lan, std::string hostname, its::DenBasicService& den,
             sim::Trace* trace = nullptr, std::size_t max_inbox = 16);
  ~OpenC2xApi();
  OpenC2xApi(const OpenC2xApi&) = delete;
  OpenC2xApi& operator=(const OpenC2xApi&) = delete;

  its::ActionId trigger_denm(const its::DenmRequest& request) override;
  /// Drains the whole inbox: with the inbox bounded, a one-message-per-poll
  /// reply could fall behind a bursty sender forever.
  std::vector<its::Denm> request_denm() override;

  /// Number of received DENMs not yet fetched via /request_denm.
  [[nodiscard]] std::size_t pending_denms() const { return inbox_.size(); }

  struct Stats {
    /// DENMs evicted (oldest first) because the inbox was full when a new
    /// one arrived between polls.
    std::uint64_t denms_dropped{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  HttpLan& lan_;
  std::string hostname_;
  its::DenBasicService& den_;
  sim::Trace* trace_;
  std::vector<its::Denm> inbox_;
  std::size_t max_inbox_;
  Stats stats_;
};

}  // namespace rst::middleware
