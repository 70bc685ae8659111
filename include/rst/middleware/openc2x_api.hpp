#pragma once

#include <deque>
#include <string>

#include "rst/its/facilities/ca_basic_service.hpp"
#include "rst/its/facilities/den_basic_service.hpp"
#include "rst/its/facilities/ldm.hpp"
#include "rst/middleware/http.hpp"
#include "rst/middleware/kv.hpp"
#include "rst/sim/trace.hpp"

namespace rst::middleware {

/// OpenC2X-style HTTP API bound to a station's facilities layer.
///
/// Mirrors the integration points the paper uses (§III-D2):
///  * `POST /trigger_denm` — the road-side edge node calls this on the RSU
///    to originate a DENM. Body: kv with cause/subcause/x/y/… fields.
///  * `POST /request_denm` — the vehicle's Python-script equivalent polls
///    this on the OBU. Returns HTTP 200 with an empty body when no DENM is
///    pending, or the oldest undelivered DENM hex-encoded.
///  * `GET  /ldm` — textual dump of the LDM (the Web Interface stand-in).
///  * `POST /trigger_cam` — manual CAM transmission (web-interface button).
///  * `GET  /cam_table` — the CAM-derived station table of the LDM.
class OpenC2xApi {
 public:
  OpenC2xApi(HttpHost& host, const geo::LocalFrame& frame, its::DenBasicService& den,
             its::Ldm* ldm = nullptr, sim::Trace* trace = nullptr,
             its::CaBasicService* ca = nullptr, std::size_t max_inbox = 16);

  /// Number of received DENMs not yet fetched via /request_denm.
  [[nodiscard]] std::size_t pending_denms() const { return inbox_.size(); }

  struct Stats {
    /// DENMs evicted (oldest first) because the inbox was full when a new
    /// one arrived between polls.
    std::uint64_t denms_dropped{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Parses a /trigger_denm body into a DenmRequest (exposed for tests).
  [[nodiscard]] its::DenmRequest parse_trigger_body(const std::string& body) const;

 private:
  HttpResponse handle_trigger_denm(const HttpRequest& req);
  HttpResponse handle_request_denm(const HttpRequest& req);

  const geo::LocalFrame& frame_;
  its::DenBasicService& den_;
  its::CaBasicService* ca_;
  its::Ldm* ldm_;
  sim::Trace* trace_;
  struct InboxEntry {
    its::Denm denm;
    sim::SimTime received;
  };
  std::deque<InboxEntry> inbox_;
  std::size_t max_inbox_;
  Stats stats_;
};

}  // namespace rst::middleware
