#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "rst/dot11p/channel.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/phy_params.hpp"
#include "rst/dot11p/radio.hpp"

namespace rst::dot11p {
namespace {

using namespace rst::sim::literals;

TEST(PhyParams, DataRatesMatch80211pAt10Mhz) {
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Bpsk12), 3.0);
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Bpsk34), 4.5);
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Qpsk12), 6.0);
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Qpsk34), 9.0);
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Qam16_12), 12.0);
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Qam16_34), 18.0);
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Qam64_23), 24.0);
  EXPECT_DOUBLE_EQ(data_rate_mbps(Mcs::Qam64_34), 27.0);
}

TEST(PhyParams, FrameAirtimeStructure) {
  // 0-byte PSDU still needs preamble + SIGNAL + 1 symbol (service+tail).
  EXPECT_EQ(frame_airtime(0, Mcs::Qpsk12), kPreambleDuration + kSignalDuration + kSymbolDuration);
  // 100-byte PSDU at 6 Mbit/s: 16+800+6=822 bits / 48 = 17.125 -> 18 symbols.
  EXPECT_EQ(frame_airtime(100, Mcs::Qpsk12),
            kPreambleDuration + kSignalDuration + 18 * kSymbolDuration);
}

TEST(PhyParams, AirtimeMonotoneInLengthAndRate) {
  for (std::size_t len = 0; len < 1000; len += 50) {
    EXPECT_LE(frame_airtime(len, Mcs::Qpsk12), frame_airtime(len + 50, Mcs::Qpsk12));
    EXPECT_LE(frame_airtime(len, Mcs::Qam64_34), frame_airtime(len, Mcs::Qpsk12));
  }
}

TEST(PhyParams, EdcaParametersOrderedByPriority) {
  // Higher-priority ACs get shorter AIFS and smaller contention windows.
  EXPECT_LT(aifs(AccessCategory::Voice), aifs(AccessCategory::Video));
  EXPECT_LT(aifs(AccessCategory::Video), aifs(AccessCategory::BestEffort));
  EXPECT_LT(aifs(AccessCategory::BestEffort), aifs(AccessCategory::Background));
  EXPECT_LE(edca_params(AccessCategory::Voice).cw_min, edca_params(AccessCategory::Video).cw_min);
  EXPECT_LE(edca_params(AccessCategory::Video).cw_min,
            edca_params(AccessCategory::BestEffort).cw_min);
}

TEST(PhyParams, AifsFormula) {
  // AIFS = SIFS + AIFSN * slot; AC_VO has AIFSN 2 on the G5-CCH.
  EXPECT_EQ(aifs(AccessCategory::Voice), kSifs + 2 * kSlotTime);
  EXPECT_EQ(aifs(AccessCategory::Background), kSifs + 9 * kSlotTime);
}

TEST(PhyParams, NoiseFloor) {
  // kTB for 10 MHz is -104 dBm; a 6 dB NF receiver sees -98 dBm.
  EXPECT_NEAR(noise_floor_dbm(0.0), -104.0, 0.1);
  EXPECT_NEAR(noise_floor_dbm(6.0), -98.0, 0.1);
}

TEST(PhyParams, DbmConversionsRoundTrip) {
  for (double dbm : {-100.0, -50.0, 0.0, 23.0}) {
    EXPECT_NEAR(mw_to_dbm(dbm_to_mw(dbm)), dbm, 1e-9);
  }
  EXPECT_DOUBLE_EQ(dbm_to_mw(0.0), 1.0);
  EXPECT_DOUBLE_EQ(dbm_to_mw(10.0), 10.0);
}

TEST(PhyParams, PacketErrorRateLimits) {
  // Very high SINR: essentially error-free. Very low SINR: certain loss.
  EXPECT_LT(packet_error_rate(30.0, 100, Mcs::Qpsk12), 1e-6);
  EXPECT_GT(packet_error_rate(-5.0, 100, Mcs::Qpsk12), 0.99);
}

TEST(PhyParams, PacketErrorRateMonotone) {
  double prev = 1.0;
  for (double sinr = -5.0; sinr <= 30.0; sinr += 1.0) {
    const double per = packet_error_rate(sinr, 200, Mcs::Qpsk12);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
  // Longer frames are more fragile at equal SINR.
  EXPECT_GT(packet_error_rate(7.0, 1000, Mcs::Qpsk12), packet_error_rate(7.0, 50, Mcs::Qpsk12));
  // Denser constellations are more fragile at equal SINR.
  EXPECT_GT(packet_error_rate(10.0, 200, Mcs::Qam64_34),
            packet_error_rate(10.0, 200, Mcs::Bpsk12));
}

TEST(Channel, FreeSpaceMatchesFriis) {
  FreeSpaceModel model;  // 5.9 GHz
  // FSPL(100 m, 5.9 GHz) = 32.44 + 20log10(0.1 km) + 20log10(5900 MHz) ~ 87.9 dB
  EXPECT_NEAR(model.loss_db({0, 0}, {100, 0}), 87.86, 0.1);
  // +20 dB per decade.
  EXPECT_NEAR(model.loss_db({0, 0}, {1000, 0}) - model.loss_db({0, 0}, {100, 0}), 20.0, 1e-6);
}

TEST(Channel, LogDistanceExponent) {
  const auto model = LogDistanceModel::its_g5(3.0);
  EXPECT_NEAR(model.loss_db({0, 0}, {100, 0}) - model.loss_db({0, 0}, {10, 0}), 30.0, 1e-9);
  // At the 1 m reference it matches free space.
  FreeSpaceModel fs;
  EXPECT_NEAR(model.loss_db({0, 0}, {1, 0}), fs.loss_db({0, 0}, {1, 0}), 1e-6);
}

TEST(Channel, ClampsNearZeroDistance) {
  FreeSpaceModel model;
  EXPECT_TRUE(std::isfinite(model.loss_db({0, 0}, {0, 0})));
}

TEST(Channel, SegmentIntersection) {
  // Crossing.
  EXPECT_TRUE(segments_intersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
  // Parallel non-touching.
  EXPECT_FALSE(segments_intersect({0, 0}, {2, 0}, {0, 1}, {2, 1}));
  // Shared endpoint counts.
  EXPECT_TRUE(segments_intersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
  // Collinear overlapping.
  EXPECT_TRUE(segments_intersect({0, 0}, {3, 0}, {1, 0}, {2, 0}));
  // Collinear disjoint.
  EXPECT_FALSE(segments_intersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));
  // T-shape touch.
  EXPECT_TRUE(segments_intersect({0, 0}, {2, 0}, {1, -1}, {1, 0}));
}

TEST(Channel, DualSlopeContinuousAtBreakpoint) {
  const auto model = DualSlopeModel::its_g5(2.0, 3.8, 100.0);
  const double just_before = model.loss_db({0, 0}, {99.999, 0});
  const double just_after = model.loss_db({0, 0}, {100.001, 0});
  EXPECT_NEAR(just_before, just_after, 0.01);
  // Slopes: +20 dB/decade before, +38 dB/decade after.
  EXPECT_NEAR(model.loss_db({0, 0}, {100, 0}) - model.loss_db({0, 0}, {10, 0}), 20.0, 0.01);
  EXPECT_NEAR(model.loss_db({0, 0}, {1000, 0}) - model.loss_db({0, 0}, {100, 0}), 38.0, 0.01);
}

TEST(Channel, DualSlopeMatchesSingleSlopeBelowBreakpoint) {
  const auto dual = DualSlopeModel::its_g5(2.1, 3.8, 100.0);
  const auto single = LogDistanceModel::its_g5(2.1);
  for (double d : {1.0, 10.0, 50.0, 99.0}) {
    EXPECT_NEAR(dual.loss_db({0, 0}, {d, 0}), single.loss_db({0, 0}, {d, 0}), 1e-9);
  }
}

TEST(Channel, ObstacleShadowingAddsWallLoss) {
  auto base = std::make_unique<LogDistanceModel>(LogDistanceModel::its_g5(2.0));
  const double base_loss = base->loss_db({0, 0}, {10, 0});
  ObstacleShadowingModel model{std::move(base), {{.a = {5, -5}, .b = {5, 5}, .obstruction_loss_db = 20.0}}};
  EXPECT_TRUE(model.is_nlos({0, 0}, {10, 0}));
  EXPECT_NEAR(model.loss_db({0, 0}, {10, 0}), base_loss + 20.0, 1e-9);
  // A path that dodges the wall pays no penalty.
  EXPECT_FALSE(model.is_nlos({0, 0}, {0, 10}));
}

TEST(Channel, MultipleWallsAccumulate) {
  auto base = std::make_unique<LogDistanceModel>(LogDistanceModel::its_g5(2.0));
  const double base_loss = base->loss_db({0, 0}, {10, 0});
  ObstacleShadowingModel model{std::move(base),
                               {{.a = {3, -5}, .b = {3, 5}, .obstruction_loss_db = 10.0},
                                {.a = {6, -5}, .b = {6, 5}, .obstruction_loss_db = 15.0}}};
  EXPECT_NEAR(model.loss_db({0, 0}, {10, 0}), base_loss + 25.0, 1e-9);
}

// A lone link near the sensitivity edge, run end to end through the medium,
// must deliver the fraction of frames the channel model predicts in closed
// form: E[1{P >= sens} (1 - PER(P - N0 - NF))] with P = m + sigma Z, Z ~ N(0,1).
// This pins the stochastic draws' distribution (shadowing and PER), not a
// particular byte stream, so it holds across any change of draw order. The
// frames reach the medium either through the MAC (Radio::send) or straight
// through Medium::begin_transmission: the medium owns the draw key, so both
// must draw afresh for every frame.
constexpr int kAnalyticFrames = 4000;
constexpr std::size_t kAnalyticPsdu = 300;
constexpr double kAnalyticSigmaDb = 3.0;

double analytic_delivery_ratio(double mean_dbm, const RadioConfig& rx) {
  // Midpoint rule over +-8 sigma: the quadrature error is orders of
  // magnitude below the binomial noise of 4000 frames.
  constexpr int kSteps = 16000;
  constexpr double kSpan = 8.0;
  const double dz = 2.0 * kSpan / kSteps;
  double sum = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const double z = -kSpan + (i + 0.5) * dz;
    const double p = mean_dbm + kAnalyticSigmaDb * z;
    if (p < rx.rx_sensitivity_dbm) continue;
    const double sinr_db = p - noise_floor_dbm(0.0) - rx.noise_figure_db;
    sum += std::exp(-0.5 * z * z) * (1.0 - packet_error_rate(sinr_db, kAnalyticPsdu, rx.mcs));
  }
  return sum * dz / std::sqrt(2.0 * M_PI);
}

enum class Drive { kRadioSend, kDirect };

class AnalyticDelivery : public ::testing::TestWithParam<std::tuple<Drive, double>> {};

TEST_P(AnalyticDelivery, DeliveryRatioMatchesClosedForm) {
  const auto [drive, distance_m] = GetParam();
  sim::Scheduler sched;
  sim::RandomStream rng{static_cast<std::uint64_t>(distance_m), "analytic_delivery"};
  ChannelModel channel;
  channel.path_loss = std::make_shared<LogDistanceModel>(LogDistanceModel::its_g5(2.1));
  channel.shadowing_sigma_db = kAnalyticSigmaDb;
  Medium medium{sched, rng.child("medium"), channel};
  Radio tx{medium, RadioConfig{}, [] { return geo::Vec2{0.0, 0.0}; }, rng.child("tx"), "tx"};
  Radio rx{medium, RadioConfig{}, [d = distance_m] { return geo::Vec2{d, 0.0}; },
           rng.child("rx"), "rx"};
  int delivered = 0;
  rx.set_receive_callback([&delivered](const Frame&, const RxInfo&) { ++delivered; });

  // 1 ms apart: each 300-byte frame is off the air long before the next.
  for (int i = 0; i < kAnalyticFrames; ++i) {
    sched.post_at(1_ms * (i + 1), [&tx, &medium, drive = drive] {
      Frame f;
      f.ac = AccessCategory::BestEffort;
      if (drive == Drive::kRadioSend) {
        f.payload.assign(kAnalyticPsdu - kMacOverheadBytes, 0xA5);
        tx.send(std::move(f));
      } else {
        medium.begin_transmission(&tx, std::move(f), kAnalyticPsdu);
      }
    });
  }
  sched.run();
  ASSERT_EQ(medium.stats().frames_transmitted, static_cast<std::uint64_t>(kAnalyticFrames));

  const double expected = analytic_delivery_ratio(medium.mean_rx_power_dbm(tx, rx), rx.config());
  const double observed = static_cast<double>(delivered) / kAnalyticFrames;
  const double se = std::sqrt(expected * (1.0 - expected) / kAnalyticFrames);
  ASSERT_GT(se, 0.0) << "distance too far from the sensitivity edge to test anything";
  EXPECT_LE(std::abs(observed - expected), 4.0 * se)
      << "observed " << observed << " expected " << expected << " z "
      << (observed - expected) / se;
}

INSTANTIATE_TEST_SUITE_P(EdgeDistances, AnalyticDelivery,
                         ::testing::Combine(::testing::Values(Drive::kRadioSend, Drive::kDirect),
                                            ::testing::Values(2500.0, 3000.0, 3500.0, 4000.0,
                                                              4500.0)),
                         [](const auto& info) {
                           const bool send = std::get<0>(info.param) == Drive::kRadioSend;
                           const int metres = static_cast<int>(std::get<1>(info.param));
                           return std::string{send ? "RadioSend_" : "Direct_"} +
                                  std::to_string(metres) + "m";
                         });

}  // namespace
}  // namespace rst::dot11p
