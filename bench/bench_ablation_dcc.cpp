// Ablation A9: channel load and Decentralized Congestion Control. The
// paper's §IV-C outlook calls for modelling interference; here a crowd of
// background ITS stations floods the control channel with high-rate CAMs
// and we measure (a) the channel busy ratio, (b) the DENM warning latency
// RSU->OBU, with the background stations' DCC gatekeeping off vs on
// (ETSI TS 102 687 reactive).

#include <cstdio>
#include <memory>
#include <vector>

#include "rst/core/its_station.hpp"
#include "rst/its/dcc/adaptive_dcc.hpp"
#include "rst/its/dcc/channel_probe.hpp"
#include "rst/its/dcc/reactive_dcc.hpp"
#include "rst/sim/stats.hpp"

namespace {

using namespace rst;
using namespace rst::sim::literals;

struct Result {
  double cbr{0};
  double denm_delivery{0};
  sim::RunningStats denm_latency_ms{};
  std::uint64_t background_frames{0};
};

enum class Policy { Off, Reactive, Adaptive };

const char* to_label(Policy p) {
  switch (p) {
    case Policy::Off: return "off";
    case Policy::Reactive: return "react";
    case Policy::Adaptive: return "adapt";
  }
  return "?";
}

Result run_load(int n_background, Policy with_dcc, std::uint64_t seed) {
  sim::Scheduler sched;
  sim::RandomStream rng{seed, "dcc_bench"};
  geo::LocalFrame frame{{41.1780, -8.6080}};

  dot11p::ChannelModel channel;
  channel.path_loss =
      std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.1));
  dot11p::Medium medium{sched, rng.child("medium"), channel};
  middleware::HttpLan lan{sched, rng.child("lan")};

  // RSU and the protagonist OBU, 30 m apart.
  core::ItsStationConfig rsu_config;
  rsu_config.station_id = 900;
  rsu_config.station_type = its::StationType::RoadSideUnit;
  rsu_config.name = "rsu";
  core::ItsStation rsu{sched,        medium, lan, frame, rsu_config,
                       [] { return its::EgoState{{0, 0}, 0, 0}; },
                       [] { return geo::Vec2{0, 0}; },
                       rng.child("rsu"), nullptr};
  core::ItsStationConfig obu_config;
  obu_config.station_id = 42;
  obu_config.name = "obu";
  core::ItsStation obu{sched,        medium, lan, frame, obu_config,
                       [] { return its::EgoState{{30, 0}, 0, 0}; },
                       [] { return geo::Vec2{30, 0}; },
                       rng.child("obu"), nullptr};

  // Background stations: 10 Hz CAMs each, scattered within ~80 m.
  struct Background {
    std::unique_ptr<dot11p::Radio> radio;
    std::unique_ptr<its::GeoNetRouter> router;
    std::unique_ptr<its::CaBasicService> ca;
    std::unique_ptr<its::dcc::ChannelProbe> probe;
    std::unique_ptr<its::dcc::ReactiveDcc> dcc;
    std::unique_ptr<its::dcc::AdaptiveDcc> adaptive;
  };
  std::vector<std::unique_ptr<Background>> crowd;
  for (int i = 0; i < n_background; ++i) {
    auto bg = std::make_unique<Background>();
    auto bg_rng = rng.child("bg" + std::to_string(i));
    const geo::Vec2 pos{bg_rng.uniform(-40, 40), bg_rng.uniform(5, 80)};
    bg->radio = std::make_unique<dot11p::Radio>(
        medium, dot11p::RadioConfig{}, [pos] { return pos; }, bg_rng.child("radio"),
        "bg" + std::to_string(i));
    bg->router = std::make_unique<its::GeoNetRouter>(
        sched, *bg->radio, frame, its::GnAddress::from_station(1000 + i),
        [pos] { return its::EgoState{pos, 8.0, 0.0}; }, its::GeoNetConfig{}, bg_rng.child("gn"));
    its::CaConfig ca_config;
    // Deliberately abusive offered load (50 Hz "CAMs"): the point of the
    // ablation is to saturate the channel so congestion control matters.
    ca_config.t_gen_cam_min = 20_ms;
    ca_config.t_gen_cam_max = 20_ms;
    bg->ca = std::make_unique<its::CaBasicService>(
        sched, *bg->router, 1000 + i, [pos] { return its::CaVehicleData{.position = pos}; },
        ca_config);
    if (with_dcc != Policy::Off) {
      bg->probe = std::make_unique<its::dcc::ChannelProbe>(sched, *bg->radio);
      bg->probe->start();
      if (with_dcc == Policy::Reactive) {
        bg->dcc = std::make_unique<its::dcc::ReactiveDcc>(sched, *bg->radio, *bg->probe);
        bg->router->set_send_hook(
            [dcc = bg->dcc.get()](dot11p::Frame f) { dcc->send(std::move(f)); });
      } else {
        bg->adaptive = std::make_unique<its::dcc::AdaptiveDcc>(sched, *bg->radio, *bg->probe);
        bg->router->set_send_hook(
            [dcc = bg->adaptive.get()](dot11p::Frame f) { dcc->send(std::move(f)); });
      }
    }
    bg->ca->start();
    crowd.push_back(std::move(bg));
  }

  // CBR measured at the protagonist OBU.
  its::dcc::ChannelProbe obu_probe{sched, obu.radio()};
  obu_probe.start();

  // DENM stream RSU -> OBU, one warning every 200 ms.
  constexpr int kDenms = 50;
  std::vector<sim::SimTime> sent(kDenms + 1);
  Result result;
  int received = 0;
  obu.den().set_denm_callback([&](const its::Denm& denm, const its::GnDeliveryMeta& meta, bool) {
    const auto seq = denm.management.action_id.sequence_number;
    if (seq == 0 || seq > kDenms) return;
    ++received;
    result.denm_latency_ms.add((meta.delivered_at - sent[seq]).to_milliseconds());
  });
  for (int i = 0; i < kDenms; ++i) {
    sched.post_at(1_s + 200_ms * i, [&, i] {
      its::DenmRequest request;
      request.event_type = its::EventType::of(its::Cause::CollisionRisk, 2);
      request.event_position = {0, 0};
      request.destination_area = geo::GeoArea::circle({0, 0}, 200.0);
      sent[i + 1] = sched.now();
      (void)rsu.den().trigger(request);
    });
  }
  sched.run_until(1_s + 200_ms * kDenms + 1_s);

  result.cbr = obu_probe.cbr();
  result.denm_delivery = static_cast<double>(received) / kDenms;
  for (const auto& bg : crowd) result.background_frames += bg->radio->stats().tx_frames;
  return result;
}

}  // namespace

int main() {
  std::printf("Channel load vs DENM warning performance (50 DENMs, RSU->OBU at 30 m)\n\n");
  std::printf("  stations  DCC   CBR    bg frames   DENM delivery   DENM latency mean/max (ms)\n");

  Result baseline;
  Result congested_off;
  Result congested_on;
  Result congested_adaptive;
  for (int n : {0, 20, 60}) {
    for (Policy dcc : {Policy::Off, Policy::Reactive, Policy::Adaptive}) {
      if (n == 0 && dcc != Policy::Off) continue;
      const Result r = run_load(n, dcc, 77);
      std::printf("  %8d  %-5s %4.2f  %9llu   %12.0f%%   %8.2f / %.2f\n", n, to_label(dcc),
                  r.cbr, static_cast<unsigned long long>(r.background_frames),
                  100.0 * r.denm_delivery,
                  r.denm_latency_ms.count() ? r.denm_latency_ms.mean() : 0.0,
                  r.denm_latency_ms.count() ? r.denm_latency_ms.max() : 0.0);
      if (n == 0) baseline = r;
      if (n == 60 && dcc == Policy::Off) congested_off = r;
      if (n == 60 && dcc == Policy::Reactive) congested_on = r;
      if (n == 60 && dcc == Policy::Adaptive) congested_adaptive = r;
    }
  }

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };
  std::printf("\n=== Shape checks ===\n");
  check("idle channel delivers every DENM in ~1-2 ms",
        baseline.denm_delivery == 1.0 && baseline.denm_latency_ms.mean() < 4.0);
  check("60 x 10 Hz CAM load raises CBR substantially", congested_off.cbr > 0.25);
  // Note: one might expect congestion to inflate the warning latency, but
  // the DENM rides AC_VO (AIFSN 2, CWmin 3) while the CAM flood rides
  // AC_VI — EDCA's priority access keeps the safety hop near-constant even
  // at CBR ~0.7. DCC is what protects the *CAM* service itself.
  check("AC_VO keeps the warning hop under 3 ms even at high CBR",
        congested_off.denm_latency_ms.mean() < 3.0);
  check("DCC sheds background load (fewer frames on air)",
        congested_on.background_frames < congested_off.background_frames / 2);
  check("DCC lowers the measured CBR", congested_on.cbr < congested_off.cbr);
  check("warnings still delivered under DCC", congested_on.denm_delivery > 0.95);
  check("adaptive DCC also bounds the load", congested_adaptive.cbr < congested_off.cbr);
  check("adaptive DCC converges near (not far above) the 0.68 target",
        congested_adaptive.cbr < 0.8);
  return ok ? 0 : 1;
}
