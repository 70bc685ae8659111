#include <gtest/gtest.h>

#include <memory>

#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"

namespace rst::dot11p {
namespace {

using namespace rst::sim::literals;

struct Rig {
  sim::Scheduler sched;
  sim::RandomStream rng{1234, "mac_test"};
  std::unique_ptr<Medium> medium;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::vector<std::pair<Frame, RxInfo>>> received;

  explicit Rig(double shadowing_sigma = 0.0, double exponent = 2.0) {
    ChannelModel channel;
    channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(exponent));
    channel.shadowing_sigma_db = shadowing_sigma;
    medium = std::make_unique<Medium>(sched, rng.child("medium"), channel);
  }

  Radio& add_radio(geo::Vec2 pos, RadioConfig config = {}) {
    const auto index = radios.size();
    received.emplace_back();
    radios.push_back(std::make_unique<Radio>(
        *medium, config, [pos] { return pos; }, rng.child("radio" + std::to_string(index)),
        "radio" + std::to_string(index)));
    radios.back()->set_receive_callback([this, index](const Frame& f, const RxInfo& info) {
      received[index].emplace_back(f, info);
    });
    return *radios.back();
  }
};

Frame make_frame(std::size_t payload_size = 100, AccessCategory ac = AccessCategory::Video) {
  Frame f;
  f.payload.assign(payload_size, 0xAB);
  f.ac = ac;
  return f;
}

TEST(Mac, BroadcastReachesAllNearbyRadios) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({10, 0});
  rig.add_radio({0, 20});
  tx.send(make_frame());
  rig.sched.run();
  EXPECT_EQ(rig.received[1].size(), 1u);
  EXPECT_EQ(rig.received[2].size(), 1u);
  EXPECT_EQ(rig.received[0].size(), 0u);  // no self-reception
  EXPECT_EQ(rig.received[1][0].first.payload.size(), 100u);
  EXPECT_EQ(rig.received[1][0].second.src_mac, tx.mac_address());
}

TEST(Mac, ImmediateAccessAfterIdleAifs) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({5, 0});
  // Idle since t=0; enqueue at t=1ms (idle >> AIFS) -> immediate tx.
  rig.sched.post_at(1_ms, [&] { tx.send(make_frame()); });
  rig.sched.run();
  ASSERT_EQ(rig.received[1].size(), 1u);
  const auto airtime = frame_airtime(100 + kMacOverheadBytes, Mcs::Qpsk12);
  EXPECT_EQ(rig.received[1][0].second.rx_time, 1_ms + airtime);
}

TEST(Mac, RssiReflectsDistance) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({5, 0});
  rig.add_radio({50, 0});
  tx.send(make_frame());
  rig.sched.run();
  ASSERT_EQ(rig.received[1].size(), 1u);
  ASSERT_EQ(rig.received[2].size(), 1u);
  EXPECT_GT(rig.received[1][0].second.rssi_dbm, rig.received[2][0].second.rssi_dbm);
  // Closer receiver also reports healthy SINR.
  EXPECT_GT(rig.received[1][0].second.sinr_db, 20.0);
}

TEST(Mac, OutOfRangeRadioHearsNothing) {
  Rig rig{0.0, 3.5};  // harsh propagation
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({4000, 0});
  tx.send(make_frame());
  rig.sched.run();
  EXPECT_TRUE(rig.received[1].empty());
  EXPECT_EQ(rig.medium->stats().dropped_below_sensitivity, 1u);
}

TEST(Mac, HalfDuplexDropsConcurrentTransmitters) {
  // a and b sit in the window between carrier-sense threshold (-85 dBm)
  // and receive sensitivity (-95 dBm): they can decode each other's frames
  // but do not defer to each other, so overlapping transmissions happen.
  Rig rig;
  RadioConfig weak;
  weak.tx_power_dbm = 0.0;
  auto& a = rig.add_radio({0, 0}, weak);
  auto& b = rig.add_radio({200, 0}, weak);
  const double p = rig.medium->mean_rx_power_dbm(a, b);
  ASSERT_LT(p, weak.cs_threshold_dbm);
  ASSERT_GT(p, weak.rx_sensitivity_dbm);

  a.send(make_frame());
  rig.sched.post_at(100_us, [&] { b.send(make_frame()); });  // during a's airtime
  rig.sched.run();
  // Each radio was transmitting during the other's frame: half-duplex loss.
  EXPECT_TRUE(rig.received[0].empty());
  EXPECT_TRUE(rig.received[1].empty());
  EXPECT_EQ(rig.medium->stats().dropped_half_duplex, 2u);
}

TEST(Mac, CarrierSenseDefersSecondTransmitter) {
  Rig rig;
  auto& a = rig.add_radio({0, 0});
  auto& b = rig.add_radio({5, 0});
  rig.add_radio({2.5, 5});
  a.send(make_frame(400));
  // b's frame arrives while a is on air: b must defer, both frames get through.
  rig.sched.post_at(100_us, [&] { b.send(make_frame(400)); });
  rig.sched.run();
  ASSERT_EQ(rig.received[2].size(), 2u);
  // No collision drops.
  EXPECT_EQ(rig.medium->stats().dropped_error, 0u);
  EXPECT_EQ(rig.medium->stats().dropped_half_duplex, 0u);
  // The second frame is delayed until after the first completes.
  EXPECT_GT(rig.received[2][1].second.rx_time,
            rig.received[2][0].second.rx_time + frame_airtime(400 + kMacOverheadBytes, Mcs::Qpsk12) -
                1_ms);
}

TEST(Mac, HiddenTerminalsCollideAtTheMiddleReceiver) {
  // a and c are out of carrier-sense range of each other but both reach b.
  Rig rig{0.0, 2.5};
  RadioConfig weak;
  weak.tx_power_dbm = 20.0;
  weak.cs_threshold_dbm = -80.0;
  auto& a = rig.add_radio({0, 0}, weak);
  rig.add_radio({150, 0}, weak);  // b in the middle
  auto& c = rig.add_radio({300, 0}, weak);

  // Sanity: a cannot carrier-sense c.
  EXPECT_LT(rig.medium->mean_rx_power_dbm(a, c), weak.cs_threshold_dbm);

  int delivered_to_b = 0;
  for (int i = 0; i < 50; ++i) {
    rig.sched.post_at(10_ms * i, [&] { a.send(make_frame(400)); });
    rig.sched.post_at(10_ms * i + 50_us, [&] { c.send(make_frame(400)); });
  }
  rig.sched.run();
  delivered_to_b = static_cast<int>(rig.received[1].size());
  // Overlapping transmissions at comparable power: most should be lost.
  EXPECT_LT(delivered_to_b, 50);
  EXPECT_GT(rig.medium->stats().dropped_error, 10u);
}

TEST(Mac, EdcaQueuesDrainInBurst) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({10, 0});
  for (int i = 0; i < 20; ++i) tx.send(make_frame(200));
  rig.sched.run();
  EXPECT_EQ(rig.received[1].size(), 20u);
  EXPECT_EQ(tx.stats().tx_frames, 20u);
  // Post-tx backoff spaces the frames by at least AIFS.
  for (std::size_t i = 1; i < rig.received[1].size(); ++i) {
    const auto gap = rig.received[1][i].second.rx_time - rig.received[1][i - 1].second.rx_time;
    EXPECT_GE(gap, frame_airtime(200 + kMacOverheadBytes, Mcs::Qpsk12) + aifs(AccessCategory::Video));
  }
}

TEST(Mac, HigherPriorityAcWinsStatistically) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({10, 0});
  // Saturate both AC_VO and AC_BK, then count which drains first.
  for (int i = 0; i < 10; ++i) {
    tx.send(make_frame(100, AccessCategory::Background));
    tx.send(make_frame(100, AccessCategory::Voice));
  }
  rig.sched.run();
  ASSERT_EQ(rig.received[1].size(), 20u);
  // The first several deliveries should be dominated by AC_VO frames.
  int voice_in_first_half = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (rig.received[1][i].first.ac == AccessCategory::Voice) ++voice_in_first_half;
  }
  EXPECT_GE(voice_in_first_half, 7);
}

TEST(Mac, ShadowingIntroducesLossAtMarginalRange) {
  Rig rig{8.0, 2.8};
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({380, 0});  // marginal link under n=2.8
  for (int i = 0; i < 100; ++i) {
    rig.sched.post_at(5_ms * i, [&] { tx.send(make_frame()); });
  }
  rig.sched.run();
  // Some but not all frames arrive: the shadowing draw matters.
  EXPECT_GT(rig.received[1].size(), 5u);
  EXPECT_LT(rig.received[1].size(), 100u);
}

TEST(Mac, NakagamiFadingCausesLossOnMarginalLink) {
  // Same marginal link, with and without small-scale fading: fading must
  // introduce additional losses (deep fades) at equal mean power.
  const auto run = [](bool fading) {
    Rig rig{0.0, 2.8};
    rig.medium = nullptr;  // rebuild the medium with the fading flag
    ChannelModel channel;
    channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.8));
    channel.fading = fading ? FadingModel::Nakagami : FadingModel::None;
    channel.nakagami_m = 1.0;  // Rayleigh: harshest
    rig.medium = std::make_unique<Medium>(rig.sched, rig.rng.child("m2"), channel);
    auto& tx = rig.add_radio({0, 0});
    rig.add_radio({330, 0});
    for (int i = 0; i < 200; ++i) {
      rig.sched.post_at(5_ms * i, [&] { tx.send(make_frame()); });
    }
    rig.sched.run();
    return rig.received[1].size();
  };
  const auto without = run(false);
  const auto with = run(true);
  EXPECT_GT(without, 175u);        // near-solid link without fading
  EXPECT_LT(with, without - 20);   // Rayleigh fades kill noticeably more
  EXPECT_GT(with, 50u);            // but most still get through
}

TEST(Mac, TransmitQueueBoundedDropsOldest) {
  Rig rig;
  RadioConfig config;
  config.max_queue_per_ac = 4;
  auto& tx = rig.add_radio({0, 0}, config);
  auto& blocker = rig.add_radio({5, 0});
  rig.add_radio({10, 0});
  // Occupy the channel with a long frame so tx cannot drain its queue.
  blocker.send(make_frame(2000));
  rig.sched.run(1);  // blocker starts transmitting
  for (int i = 0; i < 10; ++i) tx.send(make_frame(100));
  EXPECT_EQ(tx.stats().queue_drops, 6u);  // 10 offered, 4 kept
  rig.sched.run();
  // Exactly the 4 surviving frames go out.
  EXPECT_EQ(tx.stats().tx_frames, 4u);
}

TEST(Mac, RadioDestroyedDuringBackoffNeverFires) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  auto& blocker = rig.add_radio({5, 0});
  blocker.send(make_frame(2000));
  rig.sched.run(1);  // blocker starts transmitting
  const sim::SimTime blocker_start = rig.sched.now();
  tx.send(make_frame(100));  // channel busy: tx defers
  // The channel goes idle at the end of the blocker's frame; tx then counts
  // down AIFS plus its backoff.
  const auto airtime = frame_airtime(2000 + kMacOverheadBytes, Mcs::Qpsk12);
  rig.sched.run_until(blocker_start + airtime + 1_us);
  ASSERT_GT(rig.sched.pending_events(), 0u);  // tx's access attempt
  rig.radios[0].reset();
  const auto executed = rig.sched.executed_events();
  rig.sched.run();
  EXPECT_EQ(rig.sched.executed_events(), executed);
  EXPECT_EQ(blocker.stats().tx_frames, 1u);
}

TEST(Mac, DetachedRadioStopsReceiving) {
  Rig rig;
  auto& tx = rig.add_radio({0, 0});
  rig.add_radio({10, 0});
  tx.send(make_frame());
  rig.sched.run();
  ASSERT_EQ(rig.received[1].size(), 1u);
  rig.radios[1].reset();  // detaches from the medium
  tx.send(make_frame());
  rig.sched.run();
  EXPECT_EQ(rig.received[1].size(), 1u);
}

}  // namespace
}  // namespace rst::dot11p
