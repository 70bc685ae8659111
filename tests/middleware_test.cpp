#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "rst/middleware/http.hpp"
#include "rst/middleware/kv.hpp"
#include "rst/middleware/message_bus.hpp"
#include "rst/middleware/ntp.hpp"

namespace rst::middleware {
namespace {

using namespace rst::sim::literals;

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
  bus.numbers.subscribe([&](const int& v) { delivered["a" + std::to_string(v)] = sched.now(); });
  bus.numbers.subscribe([&](const int& v) { delivered["b" + std::to_string(v)] = sched.now(); });
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

TEST(Http, RequestResponseRoundTrip) {
  sim::Scheduler sched;
  HttpLan lan{sched, sim::RandomStream{6, "lan"}};
  HttpHost server{lan, "obu"};
  HttpHost client{lan, "jetson"};
  server.handle("/request_denm", [](const HttpRequest& req) {
    return HttpResponse{200, "payload:" + req.body};
  });
  int status = 0;
  std::string body;
  sim::SimTime responded_at;
  client.post("obu", "/request_denm", "hello", [&](const HttpResponse& r) {
    status = r.status;
    body = r.body;
    responded_at = sched.now();
  });
  sched.run();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "payload:hello");
  // Two legs + processing: sub-ms to a few ms on the LAN.
  EXPECT_GT(responded_at, 500_us);
  EXPECT_LT(responded_at, 5_ms);
}

TEST(Http, UnknownHostGives404) {
  sim::Scheduler sched;
  HttpLan lan{sched, sim::RandomStream{7, "lan"}};
  HttpHost client{lan, "jetson"};
  int status = -1;
  client.post("ghost", "/x", "", [&](const HttpResponse& r) { status = r.status; });
  sched.run();
  EXPECT_EQ(status, 404);
}

TEST(Http, UnknownPathGives404) {
  sim::Scheduler sched;
  HttpLan lan{sched, sim::RandomStream{8, "lan"}};
  HttpHost server{lan, "obu"};
  HttpHost client{lan, "jetson"};
  int status = -1;
  client.post("obu", "/nope", "", [&](const HttpResponse& r) { status = r.status; });
  sched.run();
  EXPECT_EQ(status, 404);
}

TEST(Http, LossyLanTimesOutWithStatusZero) {
  sim::Scheduler sched;
  HttpLanConfig config;
  config.loss_probability = 1.0;
  config.loss_timeout = 50_ms;
  HttpLan lan{sched, sim::RandomStream{9, "lan"}, config};
  HttpHost server{lan, "obu"};
  HttpHost client{lan, "jetson"};
  server.handle("/x", [](const HttpRequest&) { return HttpResponse{200, {}}; });
  int status = -1;
  client.post("obu", "/x", "", [&](const HttpResponse& r) { status = r.status; });
  sched.run();
  EXPECT_EQ(status, 0);
  EXPECT_EQ(sched.now(), 50_ms);
}

TEST(Http, HostDetachOnDestruction) {
  sim::Scheduler sched;
  HttpLan lan{sched, sim::RandomStream{10, "lan"}};
  HttpHost client{lan, "jetson"};
  int status = -1;
  {
    HttpHost server{lan, "obu"};
    server.handle("/x", [](const HttpRequest&) { return HttpResponse{200, {}}; });
  }
  client.post("obu", "/x", "", [&](const HttpResponse& r) { status = r.status; });
  sched.run();
  EXPECT_EQ(status, 404);
}

TEST(Kv, ParseSerializeRoundTrip) {
  KvBody kv;
  kv.set("denm", "deadbeef");
  kv.set_int("cause", 97);
  kv.set_double("x", 1.52);
  const KvBody parsed = KvBody::parse(kv.serialize());
  EXPECT_EQ(parsed.get("denm"), "deadbeef");
  EXPECT_EQ(parsed.get_int("cause"), 97);
  EXPECT_NEAR(*parsed.get_double("x"), 1.52, 1e-9);
  EXPECT_FALSE(parsed.get("missing").has_value());
}

TEST(Kv, MalformedFragmentsSkipped) {
  const KvBody kv = KvBody::parse("a=1;;garbage;=nokey;b=2;");
  EXPECT_EQ(kv.get_int("a"), 1);
  EXPECT_EQ(kv.get_int("b"), 2);
  EXPECT_FALSE(kv.get("garbage").has_value());
}

TEST(Kv, NonNumericValuesReturnNullopt) {
  const KvBody kv = KvBody::parse("a=xyz");
  EXPECT_FALSE(kv.get_int("a").has_value());
  EXPECT_FALSE(kv.get_double("a").has_value());
  EXPECT_EQ(kv.get("a"), "xyz");
}

TEST(Hex, EncodeDecodeRoundTrip) {
  const std::vector<std::uint8_t> data{0x00, 0xff, 0xde, 0xad, 0x12};
  EXPECT_EQ(hex_encode(data), "00ffdead12");
  EXPECT_EQ(hex_decode("00ffdead12"), data);
  EXPECT_EQ(hex_decode("00FFDEAD12"), data);  // uppercase accepted
  EXPECT_THROW((void)hex_decode("abc"), std::invalid_argument);
  EXPECT_THROW((void)hex_decode("zz"), std::invalid_argument);
  EXPECT_TRUE(hex_decode("").empty());
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
