#include <gtest/gtest.h>

#include "rst/core/testbed.hpp"
#include "rst/sim/stats.hpp"
#include "rst/vehicle/gnss.hpp"

namespace rst::vehicle {
namespace {

using namespace rst::sim::literals;

TEST(Gnss, FixesAtConfiguredRateWithBoundedError) {
  sim::Scheduler sched;
  sim::RandomStream rng{606, "gnss_test"};
  VehicleDynamics dyn{sched, {}, rng.child("dyn")};
  dyn.reset({0, 0}, 0.0, 1.0);
  dyn.start();
  GnssReceiver gnss{sched, dyn, rng.child("gnss")};
  gnss.start();

  sim::RunningStats error;
  for (int i = 0; i < 100; ++i) {
    sched.run_until(sched.now() + 100_ms);
    error.add(gnss.error_m());
  }
  EXPECT_GE(gnss.fixes(), 99u);
  // Error stays in the sub-metre-to-metre regime of consumer GNSS.
  EXPECT_GT(error.mean(), 0.1);
  EXPECT_LT(error.mean(), 2.0);
  EXPECT_LT(error.max(), 4.0);
}

TEST(Gnss, BiasDecayKeepsTheWalkBounded) {
  sim::Scheduler sched;
  sim::RandomStream rng{607, "gnss_test2"};
  VehicleDynamics dyn{sched, {}, rng.child("dyn")};
  dyn.reset({0, 0}, 0.0, 0.0);  // parked: all error is receiver error
  dyn.start();
  GnssReceiver gnss{sched, dyn, rng.child("gnss")};
  gnss.start();
  double worst = 0;
  for (int i = 0; i < 600; ++i) {  // one minute of fixes
    sched.run_until(sched.now() + 100_ms);
    worst = std::max(worst, gnss.error_m());
  }
  EXPECT_LT(worst, 5.0);  // the random walk does not diverge
}

}  // namespace
}  // namespace rst::vehicle

namespace rst::core {
namespace {

using namespace rst::sim::literals;

TEST(TestbedGnss, ChainStillWorksWithGnssPositions) {
  TestbedConfig config;
  config.seed = 55;
  config.use_gnss = true;
  TestbedScenario scenario{config};
  const TrialResult r = scenario.run_emergency_brake_trial();
  ASSERT_TRUE(r.stopped_by_denm);
  EXPECT_LT(r.meas_total_ms, 100.0);
  ASSERT_NE(scenario.gnss(), nullptr);
  EXPECT_GT(scenario.gnss()->fixes(), 10u);
}

TEST(TestbedGnss, LdmPositionErrorReflectsGnss) {
  TestbedConfig truth_config;
  truth_config.seed = 56;
  TestbedScenario truth_scenario{truth_config};
  truth_scenario.start_services();
  truth_scenario.scheduler().run_until(3_s);
  const auto truth_entry = truth_scenario.rsu().ldm().vehicle(truth_config.obu.station_id);
  ASSERT_TRUE(truth_entry.has_value());
  const double truth_error =
      geo::distance(truth_entry->position, truth_scenario.dynamics().position());

  TestbedConfig gnss_config;
  gnss_config.seed = 56;
  gnss_config.use_gnss = true;
  gnss_config.gnss.initial_bias_sigma_m = 1.5;
  TestbedScenario gnss_scenario{gnss_config};
  gnss_scenario.start_services();
  gnss_scenario.scheduler().run_until(3_s);
  const auto gnss_entry = gnss_scenario.rsu().ldm().vehicle(gnss_config.obu.station_id);
  ASSERT_TRUE(gnss_entry.has_value());
  const double gnss_error =
      geo::distance(gnss_entry->position, gnss_scenario.dynamics().position());

  // Ground-truth CAMs land within CAM-staleness error; GNSS CAMs carry the
  // receiver error on top.
  EXPECT_LT(truth_error, 1.5);
  EXPECT_GT(gnss_error, 0.05);
}

TEST(TestbedGnss, RadioPropagatesFromGroundTruth) {
  // The OBU advertises its GNSS fix (position vectors, CAMs), but the
  // antenna is where the vehicle is: path loss, carrier sense and RSSI
  // never see the receiver error.
  TestbedConfig config;
  config.seed = 56;
  config.use_gnss = true;
  config.gnss.initial_bias_sigma_m = 1.5;
  TestbedScenario scenario{config};
  scenario.start_services();
  scenario.scheduler().run_until(3_s);
  const geo::Vec2 antenna = scenario.obu().radio().position();
  EXPECT_EQ(antenna, scenario.dynamics().position());
  EXPECT_FALSE(antenna == scenario.obu().router().ego().position);
}

}  // namespace
}  // namespace rst::core
