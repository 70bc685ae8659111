#include <gtest/gtest.h>

#include "rst/core/config_io.hpp"

namespace rst::core {
namespace {

using namespace rst::sim::literals;

TEST(ConfigIo, AppliesKnownKeys) {
  TestbedConfig config;
  const std::string text =
      "seed = 77\n"
      "target_speed_mps = 0.9\n"
      "action_point_m = 2.0\n"
      "poll_period_ms = 25\n"
      "detection_fps = 10\n"
      "warning_bearer = urllc\n"
      "use_gnss = true\n"
      "enable_lidar_aeb = on\n"
      "anonymize_detections = 1\n"
      "denm_repetition_ms = 80\n"
      "trigger_mode = cpa\n"
      "shadowing_sigma_db = 4.5\n"
      "path_loss_exponent = 2.4\n";
  const auto n = apply_config_overrides(config, text);
  EXPECT_EQ(n, 13u);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_DOUBLE_EQ(config.planner.target_speed_mps, 0.9);
  EXPECT_DOUBLE_EQ(config.hazard.action_point_distance_m, 2.0);
  EXPECT_EQ(config.message_handler.poll_period, 25_ms);
  EXPECT_EQ(config.detection.processing_period, 100_ms);
  EXPECT_EQ(config.warning_path, WarningPath::CellularUrllc);
  EXPECT_TRUE(config.use_gnss);
  EXPECT_TRUE(config.enable_lidar_aeb);
  EXPECT_TRUE(config.detection.anonymize_detections);
  ASSERT_TRUE(config.hazard.denm_repetition.has_value());
  EXPECT_EQ(*config.hazard.denm_repetition, 80_ms);
  EXPECT_EQ(config.hazard.trigger_mode, roadside::HazardTriggerMode::CpaPrediction);
  EXPECT_DOUBLE_EQ(config.shadowing_sigma_db, 4.5);
  EXPECT_DOUBLE_EQ(config.path_loss_exponent, 2.4);
  // The resulting config is runnable.
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  TestbedConfig config;
  EXPECT_EQ(apply_config_overrides(config, "# all comments\n\n   \n# seed = 5\n"), 0u);
  EXPECT_EQ(config.seed, 1u);
  EXPECT_EQ(apply_config_overrides(config, "seed = 5 # trailing comment\n"), 1u);
  EXPECT_EQ(config.seed, 5u);
}

TEST(ConfigIo, UnknownKeyAndBadValuesThrow) {
  TestbedConfig config;
  EXPECT_THROW((void)apply_config_overrides(config, "no_such_key = 1\n"), std::invalid_argument);
  EXPECT_THROW((void)apply_config_overrides(config, "seed = abc\n"), std::invalid_argument);
  EXPECT_THROW((void)apply_config_overrides(config, "use_gnss = maybe\n"), std::invalid_argument);
  EXPECT_THROW((void)apply_config_overrides(config, "warning_bearer = 6g\n"),
               std::invalid_argument);
  EXPECT_THROW((void)apply_config_overrides(config, "just a line\n"), std::invalid_argument);

  // Out-of-range magnitudes and digit-free values fail with the same
  // diagnostic as trailing junk, never with a bare std::sto* exception.
  const auto message = [&](const std::string& text) {
    try {
      (void)apply_config_overrides(config, text);
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"no exception"};
  };
  EXPECT_EQ(message("seed = 99999999999999999999\n"),
            "config override 'seed': bad integer '99999999999999999999'");
  EXPECT_EQ(message("detection_fps = 1e999\n"),
            "config override 'detection_fps': bad number '1e999'");
  EXPECT_EQ(message("poll_period_ms = -\n"), "config override 'poll_period_ms': bad integer '-'");
  EXPECT_EQ(message("target_speed_mps = fast\n"),
            "config override 'target_speed_mps': bad number 'fast'");
}

TEST(ConfigIo, MediumGeometryAndPartitionKnobsApplyAndValidate) {
  TestbedConfig config;
  const auto n = apply_config_overrides(config, "medium_power_floor_dbm = -95.5\n");
  EXPECT_EQ(n, 1u);
  EXPECT_DOUBLE_EQ(config.medium_power_floor_dbm, -95.5);
  EXPECT_NO_THROW(config.validate());

  EXPECT_THROW((void)apply_config_overrides(config, "medium_power_floor_dbm = nope\n"),
               std::invalid_argument);
  // A positive floor breaks the row's bound: parsing rejects it, naming the
  // key, and validate() rejects the same value set in code.
  try {
    (void)apply_config_overrides(config, "medium_power_floor_dbm = 1\n");
    ADD_FAILURE() << "medium_power_floor_dbm = 1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("'medium_power_floor_dbm'"), std::string::npos)
        << e.what();
  }
  config.medium_power_floor_dbm = 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);

  // The medium runs one serial path with one channel model and one
  // receiver scan: a stale partition, per-link or culling key must fail
  // loudly, naming the key, instead of being ignored.
  for (const std::string stale_key : {"medium_partitions", "medium_per_link_streams",
                                      "medium_spatial_index", "medium_grid_cell_m"}) {
    try {
      (void)apply_config_overrides(config, stale_key + " = 4\n");
      ADD_FAILURE() << "stale key " << stale_key << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("'" + stale_key + "'"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, ZeroRepetitionDisables) {
  TestbedConfig config;
  config.hazard.denm_repetition = 100_ms;
  (void)apply_config_overrides(config, "denm_repetition_ms = 0\n");
  EXPECT_FALSE(config.hazard.denm_repetition.has_value());
}

TEST(ConfigIo, KeyListingIsCompleteAndSorted) {
  const auto keys = config_override_keys();
  EXPECT_GE(keys.size(), 13u);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1].first, keys[i].first);
  }
  for (const auto& [key, help] : keys) {
    EXPECT_FALSE(help.empty()) << key;
    // Every advertised key must round-trip through the parser with a
    // plausible value... covered key-by-key in AppliesKnownKeys.
  }
}

}  // namespace
}  // namespace rst::core
