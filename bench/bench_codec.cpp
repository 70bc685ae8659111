// A8: microbenchmarks of the wire codecs (google-benchmark). The ETSI
// stack encodes every CAM/DENM with the UPER-style codec; these benches
// establish that serialization is nowhere near the ms-scale latency budget.

#include <benchmark/benchmark.h>

#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/its/messages/cam.hpp"
#include "rst/its/messages/denm.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/core/testbed.hpp"
#include "rst/sim/scheduler.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

namespace {

using namespace rst::its;

Cam sample_cam() {
  Cam cam;
  cam.header.station_id = 42;
  cam.generation_delta_time = 1234;
  cam.basic.station_type = StationType::PassengerCar;
  cam.basic.reference_position.latitude = 411780000;
  cam.basic.reference_position.longitude = -86080000;
  cam.high_frequency.heading = Heading{900, 10};
  cam.high_frequency.speed = Speed::from_mps(1.2);
  LowFrequencyContainer lf;
  lf.path_history.points.assign(10, PathPoint{100, -100, 10});
  cam.low_frequency = lf;
  return cam;
}

Denm sample_denm() {
  Denm denm;
  denm.header.station_id = 900;
  denm.management.action_id = {900, 7};
  denm.management.detection_time = kSimEpochItsMs + 5000;
  denm.management.reference_time = kSimEpochItsMs + 5001;
  denm.management.event_position.latitude = 411780500;
  denm.management.event_position.longitude = -86079500;
  denm.management.station_type = StationType::RoadSideUnit;
  denm.situation = SituationContainer{.information_quality = 5,
                                      .event_type = EventType::of(Cause::CollisionRisk, 2),
                                      .linked_cause = {}};
  LocationContainer loc;
  loc.event_speed = Speed::from_mps(1.0);
  loc.traces.push_back(PathHistory{{{10, 10, 5}, {20, 20, 5}, {30, 30, 5}}});
  denm.location = loc;
  return denm;
}

void BM_CamEncode(benchmark::State& state) {
  const Cam cam = sample_cam();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam.encode());
  }
}
BENCHMARK(BM_CamEncode);

void BM_CamDecode(benchmark::State& state) {
  const auto bytes = sample_cam().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Cam::decode(bytes));
  }
}
BENCHMARK(BM_CamDecode);

void BM_DenmEncode(benchmark::State& state) {
  const Denm denm = sample_denm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(denm.encode());
  }
}
BENCHMARK(BM_DenmEncode);

void BM_DenmDecode(benchmark::State& state) {
  const auto bytes = sample_denm().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Denm::decode(bytes));
  }
}
BENCHMARK(BM_DenmDecode);

void BM_GnPacketRoundTrip(benchmark::State& state) {
  GnPacket pkt;
  pkt.type = GnPacketType::Gbc;
  pkt.sequence_number = 5;
  pkt.source.address = GnAddress::from_station(900);
  pkt.forwarder = pkt.source;
  pkt.destination_area = WireGeoArea{411780000, -86080000, 100, 100, 0, 0};
  pkt.payload = sample_denm().encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GnPacket::decode(pkt.encode()));
  }
}
BENCHMARK(BM_GnPacketRoundTrip);

void BM_PerConstrainedInts(benchmark::State& state) {
  for (auto _ : state) {
    rst::asn1::PerEncoder e;
    for (int i = 0; i < 100; ++i) e.constrained(i, 0, 4096);
    benchmark::DoNotOptimize(e.finish());
  }
}
BENCHMARK(BM_PerConstrainedInts);

void BM_SchedulerThroughput(benchmark::State& state) {
  // Events per second of the discrete-event core: chained self-scheduling
  // of never-cancelled events, the dominant pattern in the testbed. The
  // callback captures 32 bytes (a `this` pointer plus a few scalars, like
  // the radio/medium/service timers do). Drops the ticket post_in
  // returns, as callers that never cancel do.
  struct Tick {
    rst::sim::Scheduler* sched;
    int* remaining;
    std::uint64_t ballast[2];  // typical extra captured state
    void operator()() const {
      benchmark::DoNotOptimize(ballast[0] + ballast[1]);
      if (--*remaining > 0) {
        sched->post_in(rst::sim::SimTime::microseconds(10), *this);
      }
    }
  };
  for (auto _ : state) {
    rst::sim::Scheduler sched;
    int remaining = 10000;
    sched.post_in(rst::sim::SimTime::microseconds(10), Tick{&sched, &remaining, {1, 2}});
    sched.run();
    benchmark::DoNotOptimize(sched.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // The DCC/CBF pattern: most scheduled events are cancelled and
  // rescheduled before they fire. Exercises ticket cancels, which mark
  // slots, and cancelled-entry purging at the heap top.
  for (auto _ : state) {
    rst::sim::Scheduler sched;
    std::vector<rst::sim::Scheduler::Ticket> tickets;
    tickets.reserve(64);
    int fired = 0;
    for (int round = 0; round < 100; ++round) {
      for (int i = 0; i < 64; ++i) {
        tickets.push_back(sched.post_in(
            rst::sim::SimTime::microseconds(100 + i), [&fired] { ++fired; }));
      }
      // Cancel all but one, then drain up to the survivor.
      for (std::size_t i = 0; i + 1 < tickets.size(); ++i) sched.cancel(tickets[i]);
      sched.run();
      tickets.clear();
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 100 * 64);
}
BENCHMARK(BM_SchedulerCancelHeavy);

void BM_MediumBroadcast(benchmark::State& state) {
  // Cost of one 802.11p broadcast delivered to N receivers, end to end
  // through the MAC/PHY pipeline. With the shared-payload Frame this is
  // free of per-receiver payload copies.
  const auto n_receivers = static_cast<std::size_t>(state.range(0));
  rst::sim::Scheduler sched;
  rst::sim::RandomStream rng{1234, "bench_broadcast"};
  rst::dot11p::ChannelModel channel;
  channel.path_loss = std::make_shared<rst::dot11p::LogDistanceModel>(
      rst::dot11p::LogDistanceModel::its_g5(2.0));
  channel.shadowing_sigma_db = 0.0;
  rst::dot11p::Medium medium{sched, rng.child("medium"), channel};

  std::vector<std::unique_ptr<rst::dot11p::Radio>> radios;
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i <= n_receivers; ++i) {
    // Sender at the origin, receivers on a 10 m circle (all in range).
    const double angle = 6.283185307179586 * static_cast<double>(i) /
                         static_cast<double>(n_receivers + 1);
    const rst::geo::Vec2 pos = i == 0 ? rst::geo::Vec2{0.0, 0.0}
                                      : rst::geo::Vec2{10.0 * std::cos(angle), 10.0 * std::sin(angle)};
    radios.push_back(std::make_unique<rst::dot11p::Radio>(
        medium, rst::dot11p::RadioConfig{}, [pos] { return pos; },
        rng.child("radio" + std::to_string(i)), "radio" + std::to_string(i)));
    if (i > 0) {
      radios.back()->set_receive_callback(
          [&delivered](const rst::dot11p::Frame& f, const rst::dot11p::RxInfo&) {
            delivered += f.payload.size();
          });
    }
  }

  rst::dot11p::Frame frame;
  frame.payload.assign(300, 0xAB);
  for (auto _ : state) {
    radios[0]->send(frame);
    sched.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * n_receivers);
}
BENCHMARK(BM_MediumBroadcast)->Arg(2)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ObstacleLoss(benchmark::State& state) {
  // One ObstacleShadowingModel::loss_db evaluation over a square building
  // grid (four walls per building). Args: wall count in {16, 256, 4096},
  // indexed (1) vs brute-force (0), deep-NLOS diagonal (1) vs short LOS
  // street ray (0). The indexed/brute answers are bit-identical (checked
  // here per run); only the wall-clock should move.
  const auto n_walls = static_cast<std::size_t>(state.range(0));
  const bool indexed = state.range(1) != 0;
  const bool deep_nlos = state.range(2) != 0;

  const std::size_t buildings = n_walls / 4;
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(buildings))));
  std::vector<rst::dot11p::Wall> walls;
  walls.reserve(n_walls);
  for (std::size_t b = 0; b < buildings; ++b) {
    const double x0 = static_cast<double>(b % side) * 100.0 + 20.0;
    const double y0 = static_cast<double>(b / side) * 100.0 + 20.0;
    const double x1 = x0 + 60.0;
    const double y1 = y0 + 60.0;
    walls.push_back({{x0, y0}, {x1, y0}, 12.0});
    walls.push_back({{x1, y0}, {x1, y1}, 12.0});
    walls.push_back({{x1, y1}, {x0, y1}, 12.0});
    walls.push_back({{x0, y1}, {x0, y0}, 12.0});
  }
  const double extent = static_cast<double>(side) * 100.0;

  auto base = std::make_unique<rst::dot11p::LogDistanceModel>(
      rst::dot11p::LogDistanceModel::its_g5(2.8));
  const rst::dot11p::ObstacleShadowingModel model{std::move(base), walls, indexed};
  auto check_base = std::make_unique<rst::dot11p::LogDistanceModel>(
      rst::dot11p::LogDistanceModel::its_g5(2.8));
  const rst::dot11p::ObstacleShadowingModel check{std::move(check_base), std::move(walls),
                                                  !indexed};

  // Deep NLOS: the full-map diagonal crosses every building row. LOS: a
  // short hop along the open street between building rows.
  const rst::geo::Vec2 tx = deep_nlos ? rst::geo::Vec2{0.0, 0.0} : rst::geo::Vec2{0.0, 5.0};
  const rst::geo::Vec2 rx =
      deep_nlos ? rst::geo::Vec2{extent, extent} : rst::geo::Vec2{90.0, 5.0};
  if (model.loss_db(tx, rx) != check.loss_db(tx, rx)) {
    state.SkipWithError("indexed/brute obstacle loss diverged");
    return;
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(model.loss_db(tx, rx));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObstacleLoss)
    ->ArgsProduct({{16, 256, 4096}, {0, 1}, {0, 1}})
    ->ArgNames({"walls", "indexed", "nlos"});

void BM_TraceRecordTyped(benchmark::State& state) {
  // Steady-state cost of one typed trace event (the instrumentation tax on
  // every pipeline stage): a POD write into the pre-sized ring, no strings.
  rst::sim::Trace trace;
  trace.set_event_capacity(1 << 20);
  std::uint64_t i = 0;
  for (auto _ : state) {
    trace.record_event(rst::sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)),
                       rst::sim::Stage::DenmTx, 900, rst::sim::pack_action(900, 1));
    if (++i == (1 << 20)) {
      state.PauseTiming();
      trace.clear();
      i = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordTyped);

void BM_FullTrialEndToEnd(benchmark::State& state) {
  // Wall-clock cost of simulating one complete emergency-braking trial
  // (~6 s of simulated time across the whole stack).
  std::uint64_t seed = 1;
  for (auto _ : state) {
    rst::core::TestbedConfig config;
    config.seed = seed++;
    rst::core::TestbedScenario scenario{config};
    benchmark::DoNotOptimize(scenario.run_emergency_brake_trial());
  }
}
BENCHMARK(BM_FullTrialEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
