#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "rst/its/dcc/channel_probe.hpp"
#include "rst/its/dcc/adaptive_dcc.hpp"
#include "rst/its/dcc/reactive_dcc.hpp"

namespace rst::its::dcc {
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

struct Rig {
  sim::Scheduler sched;
  sim::RandomStream rng{3131, "dcc_test"};
  std::unique_ptr<dot11p::Medium> medium;
  std::vector<std::unique_ptr<dot11p::Radio>> radios;

  Rig() {
    dot11p::ChannelModel channel;
    channel.path_loss =
        std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.0));
    medium = std::make_unique<dot11p::Medium>(sched, rng.child("medium"), channel);
  }

  dot11p::Radio& add_radio(geo::Vec2 pos) {
    const auto i = static_cast<long long>(radios.size());
    radios.push_back(std::make_unique<dot11p::Radio>(
        *medium, dot11p::RadioConfig{}, [pos] { return pos; }, rng.child(numbered("r", i)),
        numbered("r", i)));
    return *radios.back();
  }
};

dot11p::Frame frame_of(std::size_t n, dot11p::AccessCategory ac = dot11p::AccessCategory::Video) {
  dot11p::Frame f;
  f.payload.assign(n, 0x55);
  f.ac = ac;
  return f;
}

TEST(BusyTime, AccumulatesDuringOwnTransmissions) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  auto& rx = rig.add_radio({20, 0});
  EXPECT_EQ(tx.cumulative_busy_time(), sim::SimTime::zero());
  tx.send(frame_of(400));
  rig.sched.run();
  const auto airtime = dot11p::frame_airtime(400 + dot11p::kMacOverheadBytes, dot11p::Mcs::Qpsk12);
  EXPECT_EQ(tx.cumulative_busy_time(), airtime);
  // The receiver sensed the channel busy for the same duration.
  EXPECT_EQ(rx.cumulative_busy_time(), airtime);
}

TEST(ChannelProbe, MeasuresKnownDutyCycle) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  auto& rx = rig.add_radio({20, 0});
  ChannelProbe probe{rig.sched, rx};
  probe.start();
  // One 400-byte frame (~0.59 ms airtime) every 5 ms -> ~12% duty cycle.
  for (int i = 0; i < 400; ++i) {
    rig.sched.post_at(5_ms * i, [&] { tx.send(frame_of(400)); });
  }
  rig.sched.run_until(2_s);
  const auto airtime = dot11p::frame_airtime(400 + dot11p::kMacOverheadBytes, dot11p::Mcs::Qpsk12);
  const double expected = airtime.to_seconds() / 5e-3;
  EXPECT_NEAR(probe.cbr(), expected, 0.03);
  EXPECT_GE(probe.windows_measured(), 18u);
}

TEST(ChannelProbe, IdleChannelIsZero) {
  Rig rig;
  auto& rx = rig.add_radio({0, 0});
  ChannelProbe probe{rig.sched, rx};
  probe.start();
  rig.sched.run_until(1_s);
  EXPECT_DOUBLE_EQ(probe.cbr(), 0.0);
}

TEST(DccTable, DefaultTableIsMonotone) {
  const auto& table = default_dcc_table();
  for (std::size_t i = 1; i < table.size(); ++i) {
    EXPECT_GT(table[i].cbr_up_threshold, table[i - 1].cbr_up_threshold);
    EXPECT_GT(table[i].min_gap, table[i - 1].min_gap);
  }
}

TEST(ReactiveDcc, StateGoesUpImmediatelyAndDownWithHysteresis) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  ChannelProbe probe{rig.sched, radio};
  ReactiveDccConfig config;
  config.down_hysteresis_windows = 3;
  ReactiveDcc dcc{rig.sched, radio, probe, config};

  EXPECT_EQ(dcc.state(), DccState::Relaxed);
  // Sudden congestion: jumps straight to the matching state.
  dcc.on_channel_load(0.55);
  EXPECT_EQ(dcc.state(), DccState::Active3);
  dcc.on_channel_load(0.70);
  EXPECT_EQ(dcc.state(), DccState::Restrictive);

  // Load clears: needs `down_hysteresis_windows` quiet windows per step.
  dcc.on_channel_load(0.05);
  dcc.on_channel_load(0.05);
  EXPECT_EQ(dcc.state(), DccState::Restrictive);
  dcc.on_channel_load(0.05);
  EXPECT_EQ(dcc.state(), DccState::Active3);
  // A congested window resets the hysteresis counter.
  dcc.on_channel_load(0.05);
  dcc.on_channel_load(0.55);
  dcc.on_channel_load(0.05);
  dcc.on_channel_load(0.05);
  EXPECT_EQ(dcc.state(), DccState::Active3);
  dcc.on_channel_load(0.05);
  EXPECT_EQ(dcc.state(), DccState::Active2);
}

TEST(ReactiveDcc, TracesEveryStateChangeAsATypedEvent) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  ChannelProbe probe{rig.sched, radio};
  ReactiveDccConfig config;
  config.down_hysteresis_windows = 1;
  sim::Trace trace;
  ReactiveDcc dcc{rig.sched, radio, probe, config, &trace, 77};

  dcc.on_channel_load(0.45);  // up to Active2
  dcc.on_channel_load(0.45);  // unchanged: no event
  dcc.on_channel_load(0.70);  // up to Restrictive
  dcc.on_channel_load(0.05);  // one step down per window
  dcc.on_channel_load(0.05);

  const std::vector<DccState> expected{DccState::Active2, DccState::Restrictive,
                                       DccState::Active3, DccState::Active2};
  ASSERT_EQ(trace.events().size(), expected.size());
  EXPECT_EQ(trace.events().size(), dcc.stats().state_changes);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const sim::TraceEvent& ev = trace.events()[i];
    EXPECT_EQ(ev.stage, sim::Stage::DccState);
    EXPECT_EQ(ev.station, 77u);
    EXPECT_EQ(ev.a, static_cast<std::uint64_t>(expected[i])) << "event " << i;
  }
}

TEST(ReactiveDcc, MinGapFollowsState) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  ChannelProbe probe{rig.sched, radio};
  ReactiveDcc dcc{rig.sched, radio, probe, {}};
  EXPECT_EQ(dcc.current_min_gap(), 60_ms);
  dcc.on_channel_load(0.45);
  EXPECT_EQ(dcc.current_min_gap(), 180_ms);
  dcc.on_channel_load(0.95);
  EXPECT_EQ(dcc.current_min_gap(), 460_ms);
}

TEST(ReactiveDcc, GateSpacingInRelaxedState) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  auto& rx = rig.add_radio({20, 0});
  std::vector<sim::SimTime> rx_times;
  rx.set_receive_callback([&](const dot11p::Frame&, const dot11p::RxInfo& info) {
    rx_times.push_back(info.rx_time);
  });
  ChannelProbe probe{rig.sched, radio};
  ReactiveDcc dcc{rig.sched, radio, probe, {}};
  // Burst of 5 frames: Relaxed state enforces >= 60 ms between them.
  for (int i = 0; i < 5; ++i) dcc.send(frame_of(100));
  rig.sched.run_until(2_s);
  ASSERT_EQ(rx_times.size(), 5u);
  for (std::size_t i = 1; i < rx_times.size(); ++i) {
    EXPECT_GE(rx_times[i] - rx_times[i - 1], 59_ms);
  }
  EXPECT_EQ(dcc.stats().passed, 5u);
  EXPECT_EQ(dcc.stats().queued, 4u);
}

TEST(ReactiveDcc, HighPriorityProfileDequeuesFirst) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  auto& rx = rig.add_radio({20, 0});
  std::vector<dot11p::AccessCategory> order;
  rx.set_receive_callback([&](const dot11p::Frame& f, const dot11p::RxInfo&) {
    order.push_back(f.ac);
  });
  ChannelProbe probe{rig.sched, radio};
  ReactiveDcc dcc{rig.sched, radio, probe, {}};
  dcc.send(frame_of(100, dot11p::AccessCategory::Video));       // passes (gate open)
  dcc.send(frame_of(100, dot11p::AccessCategory::Background));  // queued DP3
  dcc.send(frame_of(100, dot11p::AccessCategory::Voice));       // queued DP0
  rig.sched.run_until(1_s);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], dot11p::AccessCategory::Voice);       // DENM-class first
  EXPECT_EQ(order[2], dot11p::AccessCategory::Background);
}

TEST(ReactiveDcc, QueueOverflowDropsOldest) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  rig.add_radio({20, 0});
  ChannelProbe probe{rig.sched, radio};
  ReactiveDccConfig config;
  config.queue_capacity_per_profile = 2;
  ReactiveDcc dcc{rig.sched, radio, probe, config};
  for (int i = 0; i < 6; ++i) dcc.send(frame_of(100));
  EXPECT_GT(dcc.stats().dropped_queue_full, 0u);
  EXPECT_LE(dcc.queue_depth(), 2u);
}

TEST(ReactiveDcc, ExpiredQueuedPacketsAreDropped) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  auto& rx = rig.add_radio({20, 0});
  int received = 0;
  rx.set_receive_callback([&](const dot11p::Frame&, const dot11p::RxInfo&) { ++received; });
  ChannelProbe probe{rig.sched, radio};
  ReactiveDccConfig config;
  config.queued_packet_lifetime = 10_ms;  // shorter than the 60 ms gate
  ReactiveDcc dcc{rig.sched, radio, probe, config};
  dcc.send(frame_of(100));  // passes
  dcc.send(frame_of(100));  // queued, will expire before the gate reopens
  rig.sched.run_until(1_s);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(dcc.stats().dropped_expired, 1u);
}

TEST(AdaptiveDcc, RateControllerMovesTowardTargetCbr) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  ChannelProbe probe{rig.sched, radio};
  AdaptiveDcc dcc{rig.sched, radio, probe};
  EXPECT_DOUBLE_EQ(dcc.rate_hz(), 25.0);  // starts at the cap
  // Overloaded channel: the rate must fall.
  for (int i = 0; i < 200; ++i) dcc.on_channel_load(0.95);
  EXPECT_LT(dcc.rate_hz(), 5.0);
  const double low = dcc.rate_hz();
  // Channel clears: the rate recovers.
  for (int i = 0; i < 400; ++i) dcc.on_channel_load(0.1);
  EXPECT_GT(dcc.rate_hz(), low * 2);
  EXPECT_LE(dcc.rate_hz(), 25.0);
}

TEST(AdaptiveDcc, GateSpacingFollowsTheRate) {
  Rig rig;
  auto& radio = rig.add_radio({0, 0});
  auto& rx = rig.add_radio({20, 0});
  std::vector<sim::SimTime> rx_times;
  rx.set_receive_callback([&](const dot11p::Frame&, const dot11p::RxInfo& info) {
    rx_times.push_back(info.rx_time);
  });
  ChannelProbe probe{rig.sched, radio};
  AdaptiveDccConfig config;
  config.queued_packet_lifetime = 60_s;
  AdaptiveDcc dcc{rig.sched, radio, probe, config};
  // Pin the rate low (heavy load reported).
  for (int i = 0; i < 300; ++i) dcc.on_channel_load(0.95);
  const auto gap = dcc.current_min_gap();
  ASSERT_GT(gap, 100_ms);
  for (int i = 0; i < 5; ++i) dcc.send(frame_of(100));
  rig.sched.run_until(30_s);
  ASSERT_EQ(rx_times.size(), 5u);
  for (std::size_t i = 1; i < rx_times.size(); ++i) {
    EXPECT_GE(rx_times[i] - rx_times[i - 1], gap - 1_ms);
  }
}

TEST(AdaptiveDcc, PopulationConvergesFairly) {
  // Several saturating stations sharing one channel: LIMERIC's fixed point
  // gives every station roughly the same rate and a bounded total load.
  Rig rig;
  struct Station {
    dot11p::Radio* radio;
    std::unique_ptr<ChannelProbe> probe;
    std::unique_ptr<AdaptiveDcc> dcc;
  };
  std::vector<Station> stations;
  for (int i = 0; i < 4; ++i) {
    Station st;
    st.radio = &rig.add_radio({5.0 * i, 0});
    st.probe = std::make_unique<ChannelProbe>(rig.sched, *st.radio);
    st.probe->start();
    st.dcc = std::make_unique<AdaptiveDcc>(rig.sched, *st.radio, *st.probe);
    stations.push_back(std::move(st));
  }
  // Saturating offer: every station wants 50 Hz of 800-byte frames. The
  // self-rescheduling closures capture a raw self-pointer (an owning
  // capture would be a shared_ptr cycle); `offers` keeps them alive.
  std::vector<std::unique_ptr<std::function<void()>>> offers;
  for (auto& st : stations) {
    auto offer = std::make_unique<std::function<void()>>();
    *offer = [&rig, dcc = st.dcc.get(), self = offer.get()] {
      dcc->send(frame_of(800));
      rig.sched.post_in(20_ms, *self);
    };
    rig.sched.post_in(20_ms, *offer);
    offers.push_back(std::move(offer));
  }
  rig.sched.run_until(60_s);

  double min_rate = 1e9;
  double max_rate = 0;
  for (auto& st : stations) {
    min_rate = std::min(min_rate, st.dcc->rate_hz());
    max_rate = std::max(max_rate, st.dcc->rate_hz());
  }
  // Fairness: rates within a factor ~2 of each other after convergence.
  EXPECT_LT(max_rate / min_rate, 2.0);
  // And the channel is not saturated: measured CBR near or below target.
  EXPECT_LT(stations[0].probe->cbr(), 0.8);
}

TEST(ReactiveDcc, CongestionRaisesStateAndThrottles) {
  Rig rig;
  // One DCC-managed station plus three offered-load stations saturating
  // the channel with back-to-back traffic.
  auto& managed = rig.add_radio({0, 0});
  ChannelProbe probe{rig.sched, managed};
  probe.start();
  ReactiveDcc dcc{rig.sched, managed, probe};

  std::vector<dot11p::Radio*> loaders;
  for (int i = 0; i < 3; ++i) {
    loaders.push_back(&rig.add_radio({5.0 * (i + 1), 0}));
  }
  // Saturating load: each loader sends a 500-byte frame every 1.5 ms.
  for (int i = 0; i < 2000; ++i) {
    rig.sched.post_at(1500_us * i, [&rig, &loaders, i] {
      loaders[i % loaders.size()]->send(frame_of(500));
    });
  }
  // The managed station offers CAM-like traffic through the DCC.
  for (int i = 0; i < 30; ++i) {
    rig.sched.post_at(100_ms * i, [&dcc] { dcc.send(frame_of(300)); });
  }
  rig.sched.run_until(3_s);
  EXPECT_GT(probe.cbr(), 0.3);
  EXPECT_GT(dcc.state(), DccState::Relaxed);
  EXPECT_GT(dcc.stats().state_changes, 0u);
  // Throttled: the gate now requires more than the Relaxed 60 ms.
  EXPECT_GE(dcc.current_min_gap(), 100_ms);
}

}  // namespace
}  // namespace rst::its::dcc
