#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "rst/its/facilities/den_basic_service.hpp"
#include "rst/middleware/openc2x_api.hpp"

namespace rst::middleware {
namespace {

using namespace rst::sim::literals;

/// One full station worth of plumbing to host the API.
struct ApiRig {
  sim::Scheduler sched;
  sim::RandomStream rng{61, "api"};
  geo::LocalFrame frame{{41.1780, -8.6080}};
  std::unique_ptr<dot11p::Medium> medium;
  std::unique_ptr<dot11p::Radio> radio;
  std::unique_ptr<its::GeoNetRouter> router;
  std::unique_ptr<its::DenBasicService> den;
  HttpLan lan{sched, rng.child("lan")};
  std::unique_ptr<OpenC2xApi> api;

  explicit ApiRig(sim::Trace* trace = nullptr, std::size_t max_inbox = 16) {
    dot11p::ChannelModel channel;
    channel.path_loss =
        std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.0));
    medium = std::make_unique<dot11p::Medium>(sched, rng.child("m"), channel);
    radio = std::make_unique<dot11p::Radio>(
        *medium, dot11p::RadioConfig{}, [] { return geo::Vec2{0, 0}; }, rng.child("r"), "r");
    router = std::make_unique<its::GeoNetRouter>(
        sched, *radio, frame, its::GnAddress::from_station(42),
        [] { return its::EgoState{{0, 0}, 0, 0}; }, its::GeoNetConfig{}, rng.child("g"));
    den = std::make_unique<its::DenBasicService>(sched, *router, 42);
    api = std::make_unique<OpenC2xApi>(lan, "obu", *den, trace, max_inbox);
  }

  /// Receives a DENM with sequence number `seq` the way the radio path does.
  void receive(std::uint16_t seq) {
    its::Denm denm;
    denm.management.action_id = {7, seq};
    its::GnDeliveryMeta meta;
    meta.delivered_at = sched.now();
    den->on_btp_payload(denm.encode(), meta);
  }

  /// Polls the API over the LAN and waits for the response.
  std::vector<its::Denm> poll() {
    std::vector<its::Denm> out;
    lan.request_denm("obu", [&](int status, std::vector<its::Denm> denms) {
      EXPECT_EQ(status, 200);
      out = std::move(denms);
    });
    sched.run();
    return out;
  }
};

TEST(OpenC2xApi, TriggerDenmReturnsActionId) {
  ApiRig rig;
  its::DenmRequest request;
  request.event_type = its::EventType::of(its::Cause::CollisionRisk, 2);
  its::ActionId id{};
  rig.lan.trigger_denm("obu", request, [&](int status, its::ActionId got) {
    EXPECT_EQ(status, 200);
    id = got;
  });
  rig.sched.run();
  EXPECT_EQ(id.originating_station, 42u);
  EXPECT_EQ(id.sequence_number, 1);
  EXPECT_EQ(rig.den->stats().denms_sent, 1u);
}

TEST(OpenC2xApi, RequestDenmDrainsInboxFifo) {
  ApiRig rig;
  rig.receive(1);
  rig.receive(2);
  EXPECT_EQ(rig.api->pending_denms(), 2u);

  // One poll drains the whole inbox, oldest first; the next finds it empty.
  const auto first = rig.poll();
  const auto second = rig.poll();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].management.action_id.sequence_number, 1);
  EXPECT_EQ(first[1].management.action_id.sequence_number, 2);
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(rig.api->pending_denms(), 0u);
}

TEST(OpenC2xApi, InboxBoundDropsOldest) {
  sim::Trace trace;
  // A tiny inbox so the bound is exercised quickly.
  ApiRig rig{&trace, /*max_inbox=*/4};
  for (std::uint16_t seq = 1; seq <= 6; ++seq) rig.receive(seq);
  // Bounded at 4: the two oldest (seq 1, 2) were evicted and counted.
  EXPECT_EQ(rig.api->pending_denms(), 4u);
  EXPECT_EQ(rig.api->stats().denms_dropped, 2u);
  EXPECT_EQ(std::count_if(trace.events().begin(), trace.events().end(),
                          [](const auto& e) { return e.stage == sim::Stage::InboxDrop; }),
            2);

  // The survivors drain in FIFO order: seq 3..6.
  const auto denms = rig.poll();
  ASSERT_EQ(denms.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(denms[i].management.action_id.sequence_number, i + 3);
}

TEST(Http, HostDetachOnDestruction) {
  ApiRig rig;
  rig.api.reset();
  int status = -1;
  rig.lan.request_denm("obu", [&](int s, const std::vector<its::Denm>&) { status = s; });
  rig.sched.run();
  EXPECT_EQ(status, 404);
}

}  // namespace
}  // namespace rst::middleware
