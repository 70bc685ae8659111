// Regression tests for two delivery-accounting bugs:
//
//  * CellularNetwork::send counted payloads addressed to a missing endpoint
//    (or one without a receive callback) as `sent` but neither `delivered`
//    nor `lost`, and still recorded a latency sample for a payload that
//    never traversed the network — so the stats never balanced.
//  * HttpLan only evaluated NodeDown at request time; a window opening
//    while the request was in flight let a crashed host serve it anyway.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rst/cellular/cellular_link.hpp"
#include "rst/middleware/http.hpp"
#include "rst/sim/fault_plan.hpp"

namespace rst {
namespace {

using namespace rst::sim::literals;

// --- CellularNetwork conservation -----------------------------------------

TEST(CellularAccounting, UnknownEndpointIsUndeliverableNotSilent) {
  sim::Scheduler sched;
  cellular::CellularNetwork net{sched, sim::RandomStream{1, "cell"}};
  net.create_endpoint("a");
  net.send("a", "ghost", {1, 2, 3});
  sched.run();
  const auto& s = net.stats();
  EXPECT_EQ(s.sent, 1u);
  EXPECT_EQ(s.undeliverable, 1u);
  EXPECT_EQ(s.delivered, 0u);
  EXPECT_EQ(s.lost, 0u);
  EXPECT_EQ(s.latency_ms.count(), 0u);  // never traversed the network
}

TEST(CellularAccounting, EndpointWithoutCallbackIsUndeliverable) {
  sim::Scheduler sched;
  cellular::CellularNetwork net{sched, sim::RandomStream{2, "cell"}};
  net.create_endpoint("a");
  net.create_endpoint("mute");  // exists but never installs a callback
  net.send("a", "mute", {1});
  sched.run();
  EXPECT_EQ(net.stats().undeliverable, 1u);
  EXPECT_EQ(net.stats().sent, net.stats().delivered + net.stats().lost +
                                  net.stats().undeliverable);
}

TEST(CellularAccounting, CallbackRemovedInFlightCountsUndeliverableAtDelivery) {
  sim::Scheduler sched;
  cellular::CellularNetwork net{sched, sim::RandomStream{3, "cell"}};
  net.create_endpoint("a");
  auto& b = net.create_endpoint("b");
  b.set_receive_callback([](const std::vector<std::uint8_t>&, const std::string&) {});
  net.send("a", "b", {1});
  // The payload passed the send-time check and is now in flight; the
  // endpoint drops its callback before it lands.
  b.set_receive_callback(nullptr);
  sched.run();
  const auto& s = net.stats();
  EXPECT_EQ(s.sent, 1u);
  EXPECT_EQ(s.delivered, 0u);
  EXPECT_EQ(s.undeliverable, 1u);
}

TEST(CellularAccounting, RandomSendMatrixConserves) {
  sim::Scheduler sched;
  cellular::CellularConfig config;
  config.loss_probability = 0.3;  // exercise all three outcomes
  cellular::CellularNetwork net{sched, sim::RandomStream{4, "cell"}, config};
  std::uint64_t received = 0;
  for (const char* name : {"a", "b", "c"}) {
    net.create_endpoint(name).set_receive_callback(
        [&](const std::vector<std::uint8_t>&, const std::string&) { ++received; });
  }
  net.create_endpoint("mute");
  const std::vector<std::string> dests{"a", "b", "c", "mute", "ghost"};
  sim::RandomStream pick{5, "pick"};
  for (int i = 0; i < 300; ++i) {
    const auto& to = dests[static_cast<std::size_t>(pick.uniform_int(0, 4))];
    net.send("a", to, {static_cast<std::uint8_t>(i)});
  }
  sched.run();
  const auto& s = net.stats();
  EXPECT_EQ(s.sent, 300u);
  EXPECT_EQ(s.sent, s.delivered + s.lost + s.undeliverable);
  EXPECT_EQ(s.delivered, received);
  EXPECT_EQ(s.latency_ms.count(), s.delivered);
  // All three outcome classes must actually occur for this to regress well.
  EXPECT_GT(s.delivered, 0u);
  EXPECT_GT(s.lost, 0u);
  EXPECT_GT(s.undeliverable, 0u);
}

// --- HttpLan NodeDown at dispatch time ------------------------------------

middleware::HttpLanConfig quiet_lan() {
  middleware::HttpLanConfig config;
  config.one_way_jitter = sim::SimTime::zero();
  config.server_processing_jitter = sim::SimTime::zero();
  return config;  // deterministic: dispatch at exactly 250us + 400us
}

/// Serves empty polls and acknowledges triggers, like an idle station.
struct IdleApi final : middleware::OpenC2xEndpoint {
  its::ActionId trigger_denm(const its::DenmRequest&) override { return {900, 1}; }
  std::vector<its::Denm> request_denm() override { return {}; }
};

TEST(HttpNodeDown, WindowOpeningInFlightLosesRequest) {
  sim::Scheduler sched;
  middleware::HttpLan lan{sched, sim::RandomStream{6, "lan"}, quiet_lan()};
  IdleApi host;
  lan.attach("obu", host);
  // Host crashes at 400us — after the request leaves, before it dispatches.
  sim::FaultPlan plan;
  plan.clauses.push_back({sim::FaultKind::NodeDown, "obu", sim::SimTime::microseconds(400),
                          sim::SimTime::milliseconds(50), 1.0});
  sim::FaultInjector faults{sched, sim::RandomStream{7, "faults"}, plan};
  lan.set_fault_injector(&faults);

  int status = -1;
  sim::SimTime responded_at;
  lan.request_denm("obu", [&](int s, const std::vector<its::Denm>&) {
    status = s;
    responded_at = sched.now();
  });
  sched.run();
  EXPECT_EQ(status, 0);
  EXPECT_EQ(lan.requests_lost(), 1u);
  // Same caller-visible timing as a request-time loss: status 0 exactly
  // loss_timeout after the request was issued.
  EXPECT_EQ(responded_at, sim::SimTime::milliseconds(100));
}

TEST(HttpNodeDown, WindowClosedBeforeDispatchServes) {
  sim::Scheduler sched;
  middleware::HttpLan lan{sched, sim::RandomStream{8, "lan"}, quiet_lan()};
  IdleApi host;
  lan.attach("obu", host);
  // A blip that is over by dispatch time (650us): the host restarted in
  // time to serve the request.
  sim::FaultPlan plan;
  plan.clauses.push_back({sim::FaultKind::NodeDown, "obu", sim::SimTime::microseconds(100),
                          sim::SimTime::microseconds(300), 1.0});
  sim::FaultInjector faults{sched, sim::RandomStream{9, "faults"}, plan};
  lan.set_fault_injector(&faults);

  int status = -1;
  sched.post_at(sim::SimTime::microseconds(350), [&] {
    lan.request_denm("obu", [&](int s, const std::vector<its::Denm>&) { status = s; });
  });
  sched.run();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(lan.requests_lost(), 0u);
}

TEST(HttpNodeDown, ChaosWindowMidRunLosesOnlyCoveredRequests) {
  // Requests issued every 10ms against a 25ms..55ms NodeDown window: the
  // ones dispatching inside the window (crash discovered at request OR
  // dispatch time) are lost, the rest are served.
  sim::Scheduler sched;
  middleware::HttpLan lan{sched, sim::RandomStream{10, "lan"}, quiet_lan()};
  IdleApi host;
  lan.attach("rsu", host);
  sim::FaultPlan plan;
  plan.clauses.push_back({sim::FaultKind::NodeDown, "rsu", sim::SimTime::milliseconds(25),
                          sim::SimTime::milliseconds(55), 1.0});
  sim::FaultInjector faults{sched, sim::RandomStream{11, "faults"}, plan};
  lan.set_fault_injector(&faults);

  int served = 0;
  int lost = 0;
  for (int i = 0; i < 10; ++i) {
    sched.post_at(sim::SimTime::milliseconds(10 * i), [&] {
      lan.trigger_denm("rsu", its::DenmRequest{}, [&](int status, its::ActionId) {
        (status == 200 ? served : lost) += 1;
      });
    });
  }
  sched.run();
  // Requests at 30, 40, 50 ms fall inside the window; all others dispatch
  // at t + 650us, clear of it.
  EXPECT_EQ(lost, 3);
  EXPECT_EQ(served, 7);
  EXPECT_EQ(lan.requests_lost(), 3u);
  EXPECT_EQ(lan.requests_sent(), 10u);
}

}  // namespace
}  // namespace rst
