// Content addresses that follow behaviour. A campaign store serves a
// stored trial record to any build with the same `server::kCodeVersion`, so
// the version must change whenever what a (spec, seed) trial produces
// changes. This test recomputes a behaviour fingerprint over fixed trials
// and one small city run and compares it with the value pinned next to the
// version, and it keeps every (version, fingerprint) pair the code has
// carried: a change that moves any result fails here until it appends a row
// with a new version, so re-pinning the fingerprint alone fails too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <string_view>

#include "rst/core/config_io.hpp"
#include "rst/core/testbed.hpp"
#include "rst/scenario/city.hpp"
#include "rst/server/campaign.hpp"

namespace rst {
namespace {

// The standing-gate specs: default, shadowing, radio attenuation, radio
// blackout, CPM, eMBB, 25 ms polling, and watchdog + LiDAR AEB + GNSS +
// HTTP loss.
constexpr const char* kSpecs[] = {
    "",
    "shadowing_sigma_db = 6\n",
    "fault = radio-attenuation:medium:0:30000:10\n",
    "fault = radio-blackout:medium:4000:8000:1\n",
    "cpm_enable = true\n",
    "warning_bearer = embb\n",
    "poll_period_ms = 25\n",
    "watchdog = true\nenable_lidar_aeb = true\nuse_gnss = true\n"
    "fault = http-loss:lan:0:30000:0.3\n",
};
constexpr std::uint64_t kSeedsPerSpec = 16;

std::uint64_t behaviour_fingerprint() {
  std::uint64_t h = server::fnv1a("");
  for (const char* spec : kSpecs) {
    core::TestbedConfig base;
    core::apply_config_overrides(base, spec);
    for (std::uint64_t seed = 1; seed <= kSeedsPerSpec; ++seed) {
      core::TestbedConfig config = base;
      config.seed = seed;
      core::TestbedScenario scenario{config};
      h = server::fnv1a(server::serialize_trial_record(seed, scenario.run_emergency_brake_trial()),
                        h);
      h = server::fnv1a("\n", h);
    }
  }
  // A small corridor city: RSU beacons and handovers exercise the medium,
  // GN and CA paths that a two-station trial leaves idle.
  scenario::CitySpec city;
  city.seed = 11;
  city.blocks_x = 4;
  city.blocks_y = 2;
  city.vehicles = 0;
  city.rsu_corridor_only = true;
  city.vehicle_speed_mps = 12.0;
  const auto report = scenario::run_handover_experiment(city, sim::SimTime::seconds(10));
  const std::uint64_t f = report.fingerprint();
  for (int byte = 0; byte < 8; ++byte) {
    h = server::fnv1a(std::string(1, static_cast<char>(f >> (8 * byte))), h);
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Pin {
  std::string_view code_version;
  std::uint64_t fingerprint;
};

// Every (kCodeVersion, kBehaviourFingerprint) pair, oldest first. Append a
// row when results move; never edit one.
constexpr Pin kPins[] = {
    {"rst-campaign/2", 0xe953e781fb9d8ce6ULL},
};

TEST(CampaignFingerprint, PinnedBehaviourMatchesTheCodeVersion) {
  const std::uint64_t got = behaviour_fingerprint();
  const Pin& last = kPins[std::size(kPins) - 1];
  std::string fix = ". Bump server::kCodeVersion (now \"";
  fix += server::kCodeVersion;
  fix += "\") and set server::kBehaviourFingerprint to ";
  fix += hex(got);
  fix += ", both in include/rst/server/campaign.hpp, and append that pair to kPins in this file.";
  EXPECT_EQ(got, server::kBehaviourFingerprint)
      << "trial results changed: the behaviour fingerprint is now " << hex(got) << ", pinned "
      << hex(server::kBehaviourFingerprint)
      << ". Stored campaign records of the old behaviour would be served as current" << fix;
  EXPECT_EQ(got, last.fingerprint)
      << "the last row of kPins holds " << hex(last.fingerprint) << ", the code produces "
      << hex(got) << fix;
  EXPECT_EQ(last.code_version, server::kCodeVersion)
      << "the last row of kPins names \"" << last.code_version << "\"" << fix;
  std::set<std::string_view> versions;
  for (const Pin& pin : kPins) {
    EXPECT_TRUE(versions.insert(pin.code_version).second)
        << "kPins names \"" << pin.code_version << "\" twice: a moved fingerprint needs a new "
        << "server::kCodeVersion";
  }
}

}  // namespace
}  // namespace rst
