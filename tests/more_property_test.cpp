// Second parameterized property-sweep batch: NTP discipline across drift
// magnitudes, DCC gate spacing across load states, wire round-trips of the
// GeoNetworking area encoding and KAF behaviour across validity spans.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "rst/its/dcc/reactive_dcc.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/middleware/ntp.hpp"
#include "rst/sim/random.hpp"

namespace rst {
namespace {

using namespace rst::sim::literals;

// ------------------------------------------------------------------- NTP

class NtpDriftProperty : public ::testing::TestWithParam<double> {};

TEST_P(NtpDriftProperty, DisciplineBoundsOffsetForAnyDrift) {
  sim::Scheduler sched;
  middleware::NtpClockConfig config;
  config.drift_ppm = GetParam();
  config.initial_offset = 200_ms;
  config.sync_interval = 4_s;
  config.sync_error_sigma = 300_us;
  middleware::NtpClock clock{sched, sim::RandomStream{33, "ntp_prop"}, "node", config};
  sched.run_until(120_s);
  // Offset bounded by residual sigma + drift accumulated over one interval.
  const double bound_ms = 0.3 * 6 + GetParam() * 1e-6 * 5.0 * 1e3;
  EXPECT_LT(std::abs(clock.offset().to_milliseconds()), bound_ms + 0.5);
  EXPECT_GE(clock.sync_count(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Drifts, NtpDriftProperty, ::testing::Values(0.0, 1.0, 5.0, 20.0, 100.0));

// ------------------------------------------------------------------- DCC

struct DccCase {
  double cbr;
  its::dcc::DccState expected_state;
};

// Without this, gtest prints a DccCase as its raw bytes, padding included,
// and the ctest names built from that printout changed from build to build.
void PrintTo(const DccCase& c, std::ostream* os) {
  static constexpr const char* kStateNames[] = {"Relaxed", "Active1", "Active2", "Active3",
                                                "Restrictive"};
  *os << kStateNames[static_cast<std::size_t>(c.expected_state)] << " at cbr " << c.cbr;
}

class DccGateProperty : public ::testing::TestWithParam<DccCase> {};

TEST_P(DccGateProperty, GateSpacingMatchesState) {
  const auto& param = GetParam();
  sim::Scheduler sched;
  sim::RandomStream rng{44, "dcc_prop"};
  dot11p::ChannelModel channel;
  channel.path_loss =
      std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(2.0));
  dot11p::Medium medium{sched, rng.child("m"), channel};
  dot11p::Radio tx{medium, {}, [] { return geo::Vec2{0, 0}; }, rng.child("tx"), "tx"};
  dot11p::Radio rx{medium, {}, [] { return geo::Vec2{20, 0}; }, rng.child("rx"), "rx"};
  std::vector<sim::SimTime> rx_times;
  rx.set_receive_callback([&](const dot11p::Frame&, const dot11p::RxInfo& info) {
    rx_times.push_back(info.rx_time);
  });
  its::dcc::ChannelProbe probe{sched, tx};
  its::dcc::ReactiveDccConfig dcc_config;
  // Disable queue-lifetime expiry so the sweep observes pure gate spacing.
  dcc_config.queued_packet_lifetime = 60_s;
  its::dcc::ReactiveDcc dcc{sched, tx, probe, dcc_config};
  dcc.on_channel_load(param.cbr);
  ASSERT_EQ(dcc.state(), param.expected_state);
  const auto min_gap = dcc.current_min_gap();

  for (int i = 0; i < 6; ++i) {
    dot11p::Frame f;
    f.payload.assign(100, 0x11);
    f.ac = dot11p::AccessCategory::Video;
    dcc.send(std::move(f));
  }
  sched.run_until(10_s);
  ASSERT_EQ(rx_times.size(), 6u);
  for (std::size_t i = 1; i < rx_times.size(); ++i) {
    EXPECT_GE(rx_times[i] - rx_times[i - 1], min_gap - 1_ms);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Loads, DccGateProperty,
    ::testing::Values(DccCase{0.05, its::dcc::DccState::Relaxed},
                      DccCase{0.33, its::dcc::DccState::Active1},
                      DccCase{0.45, its::dcc::DccState::Active2},
                      DccCase{0.55, its::dcc::DccState::Active3},
                      DccCase{0.80, its::dcc::DccState::Restrictive}));

// ----------------------------------------------------------- GN wire area

class WireAreaProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireAreaProperty, RandomAreasRoundTrip) {
  sim::RandomStream r{GetParam(), "wire_area"};
  for (int i = 0; i < 100; ++i) {
    its::WireGeoArea area;
    area.center_latitude = static_cast<std::int32_t>(r.uniform_int(-900000000, 900000001));
    area.center_longitude = static_cast<std::int32_t>(r.uniform_int(-1800000000, 1800000001));
    area.distance_a_m = static_cast<std::uint16_t>(r.uniform_int(0, 65535));
    area.distance_b_m = static_cast<std::uint16_t>(r.uniform_int(0, 65535));
    area.angle_deg = static_cast<std::uint16_t>(r.uniform_int(0, 360));
    area.shape = static_cast<std::uint8_t>(r.uniform_int(0, 2));
    asn1::PerEncoder e;
    area.encode(e);
    asn1::PerDecoder d{e.finish()};
    EXPECT_EQ(its::WireGeoArea::decode(d), area);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireAreaProperty, ::testing::Range<std::uint64_t>(1, 6));

// ------------------------------------------------------------- LPV wire

class LpvProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpvProperty, RandomPositionVectorsRoundTrip) {
  sim::RandomStream r{GetParam(), "lpv"};
  for (int i = 0; i < 100; ++i) {
    its::LongPositionVector pv;
    pv.address.value = static_cast<std::uint64_t>(r.uniform_int(0, (1LL << 62)));
    pv.timestamp_ms = static_cast<std::uint32_t>(r.uniform_int(0, 4294967295LL));
    pv.latitude = static_cast<std::int32_t>(r.uniform_int(-900000000, 900000001));
    pv.longitude = static_cast<std::int32_t>(r.uniform_int(-1800000000, 1800000001));
    pv.position_accurate = r.bernoulli(0.5);
    pv.speed_cms = static_cast<std::int16_t>(r.uniform_int(-32768, 32767));
    pv.heading_01deg = static_cast<std::uint16_t>(r.uniform_int(0, 3601));
    asn1::PerEncoder e;
    pv.encode(e);
    asn1::PerDecoder d{e.finish()};
    EXPECT_EQ(its::LongPositionVector::decode(d), pv);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpvProperty, ::testing::Range<std::uint64_t>(1, 6));

}  // namespace
}  // namespace rst
