// City-scale experiment 1: deterministic coverage / RSSI map over the
// street grid. Asserts the City-Scale ITS-G5 invariants — receive power
// decays monotonically with distance along LOS street rays, every NLOS
// sample sits exactly its wall losses below the LOS budget at the same
// distance, and buildings only ever shrink coverage — plus bit-stable
// fingerprints across independent reconstructions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "rst/scenario/city.hpp"

namespace rst {
namespace {

using scenario::CitySpec;
using scenario::CityScenario;

CitySpec small_city() {
  CitySpec spec;
  spec.seed = 7;
  spec.blocks_x = 3;
  spec.blocks_y = 3;
  spec.block_m = 100.0;
  spec.vehicles = 0;
  spec.rsu_every = 3;  // RSUs at the grid corners
  return spec;
}

/// LOS link budget at distance d for the spec's log-distance channel.
double los_budget_dbm(const CitySpec& spec, double d) {
  const double ref = 20.0 * std::log10(4.0 * M_PI * 5.9e9 / 299792458.0);
  const double loss = ref + 10.0 * spec.path_loss_exponent * std::log10(std::max(d, 0.1));
  return spec.tx_power_dbm + 2.0 * 2.0 - loss;  // 2 dBi antennas on both ends
}

TEST(CityCoverage, LosRaysDecayMonotonically) {
  CityScenario city{small_city()};
  const auto map = scenario::measure_coverage(city, 0, 10.0);
  ASSERT_FALSE(map.samples.empty());

  // Walk the RSU's own row eastwards: pure LOS, so RSSI must be
  // non-increasing with distance. The raster visits intersections from
  // both the row and the column passes, so sort by distance first.
  std::vector<scenario::CoverageSample> ray;
  for (const auto& s : map.samples) {
    if (s.pos.y != map.rsu_pos.y || s.pos.x < map.rsu_pos.x) continue;
    if (s.walls_crossed != 0) continue;
    ray.push_back(s);
  }
  std::sort(ray.begin(), ray.end(),
            [](const auto& a, const auto& b) { return a.distance_m < b.distance_m; });
  ASSERT_GE(ray.size(), 20u);
  for (std::size_t i = 1; i < ray.size(); ++i) {
    EXPECT_LE(ray[i].rssi_dbm, ray[i - 1].rssi_dbm + 1e-9)
        << "RSSI rose from " << ray[i - 1].rssi_dbm << " to " << ray[i].rssi_dbm << " at d="
        << ray[i].distance_m;
  }
}

TEST(CityCoverage, NlosSamplesSitBelowLosBudgetByWallLoss) {
  const CitySpec spec = small_city();
  CityScenario city{spec};
  const auto map = scenario::measure_coverage(city, 0, 10.0);

  int nlos = 0;
  for (const auto& s : map.samples) {
    const double los = los_budget_dbm(spec, s.distance_m);
    if (s.walls_crossed == 0) {
      EXPECT_NEAR(s.rssi_dbm, los, 1e-6);
    } else {
      ++nlos;
      const double expected = los - static_cast<double>(s.walls_crossed) * spec.building_loss_db;
      EXPECT_NEAR(s.rssi_dbm, expected, 1e-6)
          << "at (" << s.pos.x << "," << s.pos.y << ") walls=" << s.walls_crossed;
      EXPECT_LE(s.rssi_dbm, los - spec.building_loss_db + 1e-6);
    }
  }
  EXPECT_GT(nlos, 0) << "the raster never crossed a building";
}

TEST(CityCoverage, BuildingsOnlyShrinkCoverage) {
  CitySpec with = small_city();
  CitySpec without = small_city();
  without.buildings = false;

  CityScenario city_with{with};
  CityScenario city_without{without};
  const auto map_with = scenario::measure_coverage(city_with, 0, 10.0);
  const auto map_without = scenario::measure_coverage(city_without, 0, 10.0);

  EXPECT_GT(map_with.covered_fraction, 0.0);
  EXPECT_LE(map_with.covered_fraction, map_without.covered_fraction);
  EXPECT_LE(map_with.covered_fraction, 1.0);
  ASSERT_EQ(map_with.samples.size(), map_without.samples.size());
  for (std::size_t i = 0; i < map_with.samples.size(); ++i) {
    EXPECT_LE(map_with.samples[i].rssi_dbm, map_without.samples[i].rssi_dbm + 1e-9);
  }
}

TEST(CityCoverage, OverlappingRsusCoverTheCorridor) {
  CitySpec spec = small_city();
  spec.rsu_every = 1;  // an RSU at every intersection: full overlap
  CityScenario city{spec};
  ASSERT_EQ(city.rsu_count(), 16u);

  // Best-server coverage: every street sample must be covered by at least
  // one RSU (the grid pitch of 100 m sits well inside the ~200 m range).
  std::vector<scenario::CoverageMap> maps;
  maps.reserve(city.rsu_count());
  for (std::size_t i = 0; i < city.rsu_count(); ++i) {
    maps.push_back(scenario::measure_coverage(city, i, 25.0));
  }
  const std::size_t n = maps[0].samples.size();
  for (std::size_t s = 0; s < n; ++s) {
    double best = -1e9;
    for (const auto& m : maps) best = std::max(best, m.samples[s].rssi_dbm);
    EXPECT_GE(best, maps[0].sensitivity_dbm)
        << "street point (" << maps[0].samples[s].pos.x << "," << maps[0].samples[s].pos.y
        << ") is a dead zone";
  }
}

TEST(CityCoverage, FingerprintIsReproducible) {
  CityScenario a{small_city()};
  CityScenario b{small_city()};
  const auto fp_a = scenario::measure_coverage(a, 0, 10.0).fingerprint();
  const auto fp_b = scenario::measure_coverage(b, 0, 10.0).fingerprint();
  EXPECT_EQ(fp_a, fp_b);

  CitySpec other = small_city();
  other.path_loss_exponent = 3.5;
  CityScenario c{other};
  EXPECT_NE(fp_a, scenario::measure_coverage(c, 0, 10.0).fingerprint());
}

TEST(CityCoverage, CitySpecFormatParseRoundTrips) {
  CitySpec spec;
  spec.blocks_x = 6;
  spec.blocks_y = 2;
  spec.block_m = 120.0;
  spec.path_loss_exponent = 3.5;
  spec.grid_cell_m = 42.5;
  spec.seed = 0xDEADBEEFCAFEull;
  spec.shadowing_sigma_db = 3.25;
  spec.rsu_cam_interval = sim::SimTime::milliseconds(80);
  spec.enable_kaf = true;

  const CitySpec back = scenario::parse_city_spec(scenario::format_city_spec(spec));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.blocks_x, spec.blocks_x);
  EXPECT_EQ(back.block_m, spec.block_m);
  EXPECT_EQ(back.grid_cell_m, spec.grid_cell_m);
  EXPECT_EQ(back.shadowing_sigma_db, spec.shadowing_sigma_db);
  EXPECT_EQ(back.rsu_cam_interval, spec.rsu_cam_interval);
  EXPECT_EQ(back.enable_kaf, spec.enable_kaf);
  EXPECT_EQ(back.path_loss_exponent, spec.path_loss_exponent);
  // Idempotence: formatting the round-tripped spec reproduces the text.
  EXPECT_EQ(scenario::format_city_spec(back), scenario::format_city_spec(spec));

  // The medium has one serial path: a spec still carrying the retired
  // partition key must fail loudly instead of running silently.
  EXPECT_THROW((void)scenario::parse_city_spec("partitions = 4\n"), std::invalid_argument);
}

}  // namespace
}  // namespace rst
