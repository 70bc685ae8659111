#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rst/middleware/http.hpp"
#include "rst/middleware/message_bus.hpp"
#include "rst/middleware/ntp.hpp"
#include "rst/sim/fault_plan.hpp"

namespace rst::middleware {
namespace {

using namespace rst::sim::literals;

/// `prefix` followed by the decimal digits of `n`. Appending to the prefix,
/// rather than `"r" + std::to_string(n)`, keeps GCC 12's -Wrestrict false
/// positive in libstdc++'s string insert out of Release builds.
std::string numbered(const char* prefix, long long n) {
  std::string out{prefix};
  out += std::to_string(n);
  return out;
}

/// A bus declares its topics once, as members next to their message types.
struct TestBus : MessageBus {
  using MessageBus::MessageBus;
  Topic<int> numbers{*this};
  Topic<std::string> words{*this};
  Topic<double> readings{*this};
};

TEST(MessageBus, DeliversAfterLatency) {
  sim::Scheduler sched;
  TestBus bus{sched, sim::RandomStream{1, "bus"}};
  int value = 0;
  sim::SimTime delivered_at;
  bus.numbers.subscribe([&](const int& v) {
    value = v;
    delivered_at = sched.now();
  });
  bus.numbers.publish(42);
  EXPECT_EQ(value, 0);  // asynchronous
  sched.run();
  EXPECT_EQ(value, 42);
  EXPECT_GT(delivered_at, sim::SimTime::zero());
  EXPECT_LT(delivered_at, 2_ms);
}

TEST(MessageBus, MultipleSubscribersEachGetACopy) {
  sim::Scheduler sched;
  TestBus bus{sched, sim::RandomStream{2, "bus"}};
  int count = 0;
  bus.words.subscribe([&](const std::string& s) { count += s == "x"; });
  bus.words.subscribe([&](const std::string& s) { count += s == "x"; });
  bus.words.publish(std::string{"x"});
  sched.run();
  EXPECT_EQ(count, 2);
}

TEST(MessageBus, NoSubscribersIsFine) {
  sim::Scheduler sched;
  TestBus bus{sched, sim::RandomStream{5, "bus"}};
  bus.numbers.publish(7);
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(Topic, LatencyDrawsFollowPublishThenSubscriptionOrder) {
  sim::Scheduler sched;
  TestBus bus{sched, sim::RandomStream{11, "topics"}};
  std::map<std::string, sim::SimTime> delivered;
  bus.numbers.subscribe([&](const int& v) { delivered[numbered("a", v)] = sched.now(); });
  bus.numbers.subscribe([&](const int& v) { delivered[numbered("b", v)] = sched.now(); });
  bus.words.subscribe([&](const std::string& w) { delivered["c" + w] = sched.now(); });

  bus.numbers.publish(1);
  bus.readings.publish(2.5);  // no subscriber: no delivery, no draw
  bus.words.publish("x");
  bus.numbers.publish(3);
  sched.run_until(1_ms);
  bus.words.publish("y");
  bus.numbers.publish(4);
  sched.run();

  // Every delivery is 300 us + U(0, 200 us) after its publish, drawn from the
  // bus's one stream in publish order, then subscription order.
  sim::RandomStream draws = sim::RandomStream{11, "topics"}.child("bus");
  const auto latency = [&] { return 300_us + draws.uniform_time(sim::SimTime::zero(), 200_us); };
  std::map<std::string, sim::SimTime> expected;
  for (const char* key : {"a1", "b1", "cx", "a3", "b3"}) expected[key] = latency();
  for (const char* key : {"cy", "a4", "b4"}) expected[key] = 1_ms + latency();
  EXPECT_EQ(delivered, expected);
}

TEST(Topic, SubscribingWhileADeliveryIsPendingKeepsIt) {
  sim::Scheduler sched;
  TestBus bus{sched, sim::RandomStream{12, "topics"}};
  std::vector<int> calls(33, 0);
  bus.numbers.subscribe([&](const int&) { ++calls[0]; });
  bus.numbers.publish(1);
  // Enough later subscribers to reallocate the subscriber list.
  for (std::size_t i = 1; i < calls.size(); ++i) {
    bus.numbers.subscribe([&calls, i](const int&) { ++calls[i]; });
  }
  sched.run();
  EXPECT_EQ(calls[0], 1);
  for (std::size_t i = 1; i < calls.size(); ++i) EXPECT_EQ(calls[i], 0);
}

/// Stands in for a station's OpenC2X API: serves a canned inbox and numbers
/// the DENMs it is asked to trigger.
struct FakeApi final : OpenC2xEndpoint {
  std::vector<its::Denm> inbox;
  std::vector<its::DenmRequest> triggered;

  its::ActionId trigger_denm(const its::DenmRequest& request) override {
    triggered.push_back(request);
    return {42, static_cast<std::uint16_t>(triggered.size())};
  }
  std::vector<its::Denm> request_denm() override { return std::exchange(inbox, {}); }
};

TEST(Http, RequestResponseRoundTrip) {
  sim::Scheduler sched;
  HttpLan lan{sched, sim::RandomStream{6, "lan"}};
  FakeApi server;
  server.inbox.emplace_back().management.action_id = {7, 3};
  lan.attach("obu", server);
  int status = 0;
  std::vector<its::Denm> denms;
  sim::SimTime responded_at;
  lan.request_denm("obu", [&](int s, std::vector<its::Denm> d) {
    status = s;
    denms = std::move(d);
    responded_at = sched.now();
  });
  sched.run();
  EXPECT_EQ(status, 200);
  ASSERT_EQ(denms.size(), 1u);
  EXPECT_EQ(denms[0].management.action_id.sequence_number, 3);
  EXPECT_TRUE(server.inbox.empty());
  // Two legs + processing: sub-ms to a few ms on the LAN.
  EXPECT_GT(responded_at, 500_us);
  EXPECT_LT(responded_at, 5_ms);
}

TEST(Http, UnknownHostGives404) {
  sim::Scheduler sched;
  HttpLan lan{sched, sim::RandomStream{7, "lan"}};
  int status = -1;
  lan.request_denm("ghost", [&](int s, const std::vector<its::Denm>&) { status = s; });
  sched.run();
  EXPECT_EQ(status, 404);
}

TEST(Http, LossyLanTimesOutWithStatusZero) {
  sim::Scheduler sched;
  HttpLanConfig config;
  config.loss_timeout = 50_ms;
  HttpLan lan{sched, sim::RandomStream{9, "lan"}, config};
  sim::FaultPlan plan;
  plan.clauses.push_back({sim::FaultKind::HttpLoss, "lan", 0_ms, 3'600'000_ms, 1.0});
  sim::FaultInjector faults{sched, sim::RandomStream{9, "faults"}, plan};
  lan.set_fault_injector(&faults);
  FakeApi server;
  lan.attach("obu", server);
  int status = -1;
  sim::SimTime responded_at;
  lan.request_denm("obu", [&](int s, const std::vector<its::Denm>&) {
    status = s;
    responded_at = sched.now();
  });
  sched.run();
  EXPECT_EQ(status, 0);
  // The injector's window-boundary events run the clock on past the reply.
  EXPECT_EQ(responded_at, 50_ms);
}

TEST(Http, ExchangeTimesFollowTheLanDrawOrder) {
  // Polls to the OBU and triggers to the RSU, interleaved; one pair inside
  // an http-loss window, one trigger while the RSU is down.
  const sim::FaultClause loss{sim::FaultKind::HttpLoss, "lan", 10_ms, 20_ms, 0.5};
  const sim::FaultClause rsu_down{sim::FaultKind::NodeDown, "rsu", 30_ms, 40_ms, 1.0};
  struct Call {
    sim::SimTime at;
    bool trigger;
  };
  const std::vector<Call> calls{{0_ms, false}, {2_ms, true},  {12_ms, false}, {13_ms, true},
                                {15_ms, false}, {32_ms, true}, {33_ms, false}, {45_ms, true}};

  sim::Scheduler sched;
  HttpLan lan{sched, sim::RandomStream{12, "lan"}};
  sim::FaultInjector faults{sched, sim::RandomStream{12, "faults"}, sim::FaultPlan{{loss, rsu_down}}};
  lan.set_fault_injector(&faults);
  FakeApi obu;
  FakeApi rsu;
  lan.attach("obu", obu);
  lan.attach("rsu", rsu);
  std::vector<std::pair<int, sim::SimTime>> done(calls.size(), {-1, {}});
  for (std::size_t i = 0; i < calls.size(); ++i) {
    sched.post_at(calls[i].at, [&, i] {
      if (calls[i].trigger) {
        lan.trigger_denm("rsu", its::DenmRequest{}, [&, i](int status, its::ActionId) {
          done[i] = {status, sched.now()};
        });
      } else {
        lan.request_denm("obu", [&, i](int status, const std::vector<its::Denm>&) {
          done[i] = {status, sched.now()};
        });
      }
    });
  }
  sched.run();

  // Today's order on a fresh stream: the loss draw (only while the clause
  // is active), then processing, uplink and downlink.
  const HttpLanConfig config;
  sim::RandomStream draws = sim::RandomStream{12, "lan"}.child("http");
  const auto draw = [&](sim::SimTime base, sim::SimTime jitter) {
    return base + draws.uniform_time(sim::SimTime::zero(), jitter);
  };
  std::vector<std::pair<int, sim::SimTime>> expected;
  for (const Call& call : calls) {
    const bool down = call.trigger && call.at >= rsu_down.start && call.at < rsu_down.end;
    const bool lossy = call.at >= loss.start && call.at < loss.end;
    if (down || (lossy && draws.bernoulli(loss.severity))) {
      expected.emplace_back(0, call.at + config.loss_timeout);
      continue;
    }
    const auto processing = draw(config.server_processing, config.server_processing_jitter);
    const auto uplink = draw(config.one_way_latency, config.one_way_jitter);
    const auto downlink = draw(config.one_way_latency, config.one_way_jitter);
    expected.emplace_back(200, call.at + uplink + processing + downlink);
  }
  EXPECT_EQ(done, expected);
  std::size_t lost = 0;
  std::size_t served_triggers = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    lost += expected[i].first == 0;
    served_triggers += calls[i].trigger && expected[i].first == 200;
  }
  EXPECT_EQ(lost, 2u);  // the window loses one of its three, the downed RSU one
  EXPECT_EQ(lan.requests_sent(), calls.size());
  EXPECT_EQ(lan.requests_lost(), lost);
  EXPECT_EQ(rsu.triggered.size(), served_triggers);
}

TEST(Ntp, UndisciplinedClockDrifts) {
  sim::Scheduler sched;
  NtpClockConfig config;
  config.enable_sync = false;
  config.drift_ppm = 100.0;
  config.initial_offset = 1_ms;
  NtpClock clock{sched, sim::RandomStream{11, "ntp"}, "node", config};
  EXPECT_EQ(clock.offset(), 1_ms);
  sched.run_until(100_s);
  // 100 ppm over 100 s = 10 ms drift on top of the initial 1 ms.
  EXPECT_NEAR(clock.offset().to_milliseconds(), 11.0, 0.01);
  EXPECT_EQ(clock.now_wall() - sched.now(), clock.offset());
}

TEST(Ntp, SyncBoundsTheOffset) {
  sim::Scheduler sched;
  NtpClockConfig config;
  config.drift_ppm = 50.0;
  config.initial_offset = 500_ms;
  config.sync_interval = 4_s;
  config.sync_error_sigma = 300_us;
  NtpClock clock{sched, sim::RandomStream{12, "ntp"}, "node", config};
  sched.run_until(60_s);
  EXPECT_GE(clock.sync_count(), 10u);
  // After discipline, the offset stays within a few ms (drift between syncs
  // is 50 ppm * ~4.5 s ~ 0.23 ms, residual sigma 0.3 ms).
  EXPECT_LT(std::abs(clock.offset().to_milliseconds()), 3.0);
}

TEST(Ntp, TwoClocksDisagreeSlightly) {
  sim::Scheduler sched;
  NtpClock a{sched, sim::RandomStream{13, "ntp"}, "a", {}};
  NtpClock b{sched, sim::RandomStream{14, "ntp"}, "b", {}};
  sched.run_until(60_s);
  const double delta = std::abs((a.now_wall() - b.now_wall()).to_milliseconds());
  EXPECT_GT(delta, 0.0);  // never perfectly aligned
  EXPECT_LT(delta, 5.0);  // but NTP keeps them close (paper's assumption)
}

}  // namespace
}  // namespace rst::middleware
