#pragma once

#include <functional>
#include <string>

#include "rst/server/campaign_engine.hpp"

namespace rst::server {

/// Line-delimited campaign protocol, one session per connection. The same
/// state machine serves the in-process transport (tests feed lines and
/// capture the emitted response lines directly — no sockets, fully
/// deterministic) and the examples/campaign_server TCP front-end.
///
/// Client → server:
///   PING                          liveness probe
///   STATS                         one-line engine counters snapshot:
///                                 STATS admitted=<n> cache_hits=<n>
///                                 cache_misses=<n> executed=<n>
///                                 store_records=<n>
///   COMPACT                       compact the result store
///   CAMPAIGN trials=<n> seed=<s>  open a submission; subsequent lines are
///     <spec lines…>               the config_io `key = value` spec
///   END                           close the submission and run it
///   QUIT                          end the session
///
/// Server → client, for a CAMPAIGN…END submission:
///   OK id=<hex16> trials=<n>
///   <artifact lines…>             TRIAL records + Table II/III, streamed
///   ENDARTIFACT
///   STATS hits=<h> misses=<m> executed=<e>
///   DONE
/// or `ERROR <message>` followed by DONE when the header or the spec is
/// invalid. A session's requests run one at a time, in order; there is no
/// queue and no overload response. The artifact block between OK and
/// ENDARTIFACT is the byte-stable portion: identical across worker counts
/// and cold vs cache-hit runs.
class LineSession {
 public:
  using LineSink = std::function<void(const std::string& line)>;

  explicit LineSession(CampaignEngine& engine) : engine_{&engine} {}

  /// Feeds one input line (without its newline); response lines are pushed
  /// through `emit` (also newline-free). Returns false once the session is
  /// over (QUIT) — the transport should close the connection.
  bool consume_line(const std::string& line, const LineSink& emit);

  /// Convenience for in-process use: feeds every line of `request_text`
  /// and returns the concatenated response ("\n"-terminated lines).
  [[nodiscard]] std::string handle_text(const std::string& request_text);

 private:
  void finish_campaign(const LineSink& emit);

  CampaignEngine* engine_;
  bool collecting_{false};
  CampaignRequest pending_{};
};

/// Renders a CampaignRequest as protocol lines (CAMPAIGN header, spec
/// body, END) — what campaign_client sends over the socket.
[[nodiscard]] std::string format_campaign_request(const CampaignRequest& request);

}  // namespace rst::server
