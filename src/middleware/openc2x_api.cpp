#include "rst/middleware/openc2x_api.hpp"

#include <utility>

namespace rst::middleware {

OpenC2xApi::OpenC2xApi(HttpLan& lan, std::string hostname, its::DenBasicService& den,
                       sim::Trace* trace, std::size_t max_inbox)
    : lan_{lan},
      hostname_{std::move(hostname)},
      den_{den},
      trace_{trace},
      max_inbox_{max_inbox == 0 ? 1 : max_inbox} {
  den_.set_denm_callback([this](const its::Denm& denm, const its::GnDeliveryMeta& meta, bool) {
    // Bounded inbox: a slow (or dead) poller must not let undelivered DENMs
    // accumulate without limit. Drop the OLDEST — the newest message holds
    // the freshest event state.
    while (inbox_.size() >= max_inbox_) {
      const its::ActionId dropped = inbox_.front().management.action_id;
      inbox_.erase(inbox_.begin());
      ++stats_.denms_dropped;
      if (trace_) {
        trace_->record_event(meta.delivered_at, sim::Stage::InboxDrop, den_.station_id(),
                             sim::pack_action(dropped.originating_station,
                                              dropped.sequence_number));
      }
    }
    inbox_.push_back(denm);
  });
  lan_.attach(hostname_, *this);
}

OpenC2xApi::~OpenC2xApi() { lan_.detach(hostname_); }

its::ActionId OpenC2xApi::trigger_denm(const its::DenmRequest& request) {
  return den_.trigger(request);
}

std::vector<its::Denm> OpenC2xApi::request_denm() { return std::exchange(inbox_, {}); }

}  // namespace rst::middleware
