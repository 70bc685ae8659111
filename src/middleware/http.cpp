#include "rst/middleware/http.hpp"

#include <algorithm>

#include "rst/sim/fault_plan.hpp"

namespace rst::middleware {

HttpLan::HttpLan(sim::Scheduler& sched, sim::RandomStream rng, Config config)
    : sched_{sched}, rng_{rng.child("http")}, config_{config} {}

void HttpLan::attach(HttpHost& host) { hosts_[host.hostname()] = &host; }

void HttpLan::detach(const std::string& hostname) { hosts_.erase(hostname); }

bool HttpLan::lose_request(const std::string& hostname) {
  // A downed destination loses the request outright (no RNG draw: the host
  // is gone, not flaky). Otherwise the loss probability is the worst of the
  // legacy knob and any active HttpLoss clause, drawn from the LAN's own
  // stream — a whole-run clause reproduces the knob draw-for-draw.
  if (faults_ && faults_->active(sim::FaultKind::NodeDown, hostname)) return true;
  double p = config_.loss_probability;
  if (faults_) p = std::max(p, faults_->severity(sim::FaultKind::HttpLoss, "lan"));
  return p > 0 && rng_.bernoulli(p);
}

void HttpLan::request(const std::string& hostname, HttpRequest req, ResponseCallback cb) {
  ++requests_;
  if (lose_request(hostname)) {
    ++requests_lost_;
    sched_.post_in(config_.loss_timeout, [cb] { cb(HttpResponse{0, {}}); });
    return;
  }
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
  // A stall that would carry the response past the end of the clock holds
  // the request for good: it is never served, and nothing is scheduled.
  if (stall > sim::SimTime::max() - sched_.now() - uplink - processing - downlink) return;

  const auto elapsed = uplink + (processing + stall);
  sched_.post_in(elapsed, [this, hostname, req = std::move(req), cb, downlink, elapsed] {
    // Re-check node faults at dispatch time: a NodeDown window that opened
    // while the request was in flight means the host crashed before it
    // could serve — the caller sees the same loss-timeout semantics as a
    // request-time loss (status 0 at `loss_timeout` after the request,
    // immediately if the crash is discovered later than that).
    if (faults_ && faults_->active(sim::FaultKind::NodeDown, hostname)) {
      ++requests_lost_;
      const auto remaining = config_.loss_timeout > elapsed ? config_.loss_timeout - elapsed
                                                            : sim::SimTime::zero();
      sched_.post_in(remaining, [cb] { cb(HttpResponse{0, {}}); });
      return;
    }
    const auto it = hosts_.find(hostname);
    HttpResponse resp = it == hosts_.end() ? HttpResponse{404, "no such host"}
                                           : it->second->dispatch(req);
    sched_.post_in(downlink, [cb, resp = std::move(resp)] { cb(resp); });
  });
}

HttpHost::HttpHost(HttpLan& lan, std::string hostname) : lan_{lan}, hostname_{std::move(hostname)} {
  lan_.attach(*this);
}

HttpHost::~HttpHost() { lan_.detach(hostname_); }

void HttpHost::handle(const std::string& path, Handler handler) {
  handlers_[path] = std::move(handler);
}

void HttpHost::post(const std::string& hostname, const std::string& path, std::string body,
                    HttpLan::ResponseCallback cb) {
  lan_.request(hostname, HttpRequest{path, std::move(body)}, std::move(cb));
}

HttpResponse HttpHost::dispatch(const HttpRequest& req) const {
  const auto it = handlers_.find(req.path);
  if (it == handlers_.end()) return {404, "no handler for " + req.path};
  return it->second(req);
}

}  // namespace rst::middleware
