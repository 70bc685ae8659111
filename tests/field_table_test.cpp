// Field tables: the one declarative description of every spec key and
// trial-record field. Covers the bounds every parse enforces (the overflow
// and narrowing inputs that used to wrap), the canonical form's collisions,
// and fixed-seed property round trips over all three tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/scenario/city.hpp"
#include "rst/server/campaign.hpp"

namespace rst {
namespace {

using core::canonicalize_spec;
using core::FieldKind;

/// The message of the std::invalid_argument `f` throws, or "no exception".
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "no exception";
}

// --- Bounds at parse ----------------------------------------------------------

TEST(FieldTable, OverflowingAndNarrowingValuesAreRejectedNamingTheKey) {
  const auto config_error = [](const std::string& text) {
    return error_of([&] {
      core::TestbedConfig config;
      (void)core::apply_config_overrides(config, text);
    });
  };
  const auto city_error = [](const std::string& text) {
    return error_of([&] { (void)scenario::parse_city_spec(text); });
  };
  // ms * 1'000'000 overflows int64 past 9,223,372,036,854 ms.
  EXPECT_NE(config_error("watchdog_timeout_ms = 9300000000000\n").find("'watchdog_timeout_ms'"),
            std::string::npos);
  // A rate of zero has no period (1000 / 0 is not a time).
  EXPECT_NE(config_error("detection_fps = 0\n").find("'detection_fps'"), std::string::npos);
  EXPECT_NE(config_error("fault = radio-blackout:medium:0:9300000000000:1\n").find("'fault'"),
            std::string::npos);
  // int64 values that an int would wrap to 1 and 96.
  EXPECT_NE(city_error("blocks_x = 4294967297\n").find("'blocks_x'"), std::string::npos);
  EXPECT_NE(city_error("vehicles = -4294967200\n").find("'vehicles'"), std::string::npos);
}

TEST(FieldTable, RowBoundsHoldAtParseAndInValidate) {
  core::TestbedConfig config;
  EXPECT_NE(error_of([&] { (void)core::apply_config_overrides(config, "poll_period_ms = 0\n"); })
                .find("'poll_period_ms'"),
            std::string::npos);
  EXPECT_THROW((void)core::apply_config_overrides(config, "target_speed_mps = inf\n"),
               std::invalid_argument);
  EXPECT_THROW((void)scenario::parse_city_spec("vehicles = 800\n"), std::invalid_argument);
  EXPECT_NO_THROW((void)scenario::parse_city_spec("vehicles = 799\n"));
  // The same rows check configs built in code.
  config.detection.processing_period = sim::SimTime::zero();
  EXPECT_NE(error_of([&] { config.validate(); }).find("detection_fps"), std::string::npos);
  scenario::CitySpec spec;
  spec.blocks_x = 0;
  EXPECT_NE(error_of([&] { spec.validate(); }).find("blocks_x"), std::string::npos);
}

// --- Canonical form -------------------------------------------------------------

TEST(FieldTable, CanonicalFormCollapsesEquivalentSpellings) {
  const std::string on = canonicalize_spec("cpm_enable = true\n");
  EXPECT_EQ(on, "cpm_enable = true\n");
  EXPECT_EQ(canonicalize_spec("cpm_enable = on\n"), on);
  EXPECT_EQ(canonicalize_spec("cpm_enable = 1\n"), on);
  EXPECT_THROW((void)canonicalize_spec("cpm_enable = yes\n"), std::invalid_argument);

  // A key at its default, a seed line and an empty spec are one config.
  EXPECT_EQ(canonicalize_spec(""), "");
  EXPECT_EQ(canonicalize_spec("poll_period_ms = 50\n"), "");
  EXPECT_EQ(canonicalize_spec("seed = 99\n"), "");
  for (const char* spelling : {"poll_period_ms = 25\n", "poll_period_ms = 25.0\n",
                               "poll_period_ms = 2.5e1\n"}) {
    EXPECT_EQ(canonicalize_spec(spelling), "poll_period_ms = 25\n") << spelling;
  }
  EXPECT_EQ(canonicalize_spec("fault = http-loss:lan:0:3000:0.3\n"),
            canonicalize_spec("fault = http-loss:lan:0:3000:0.30\n"));
}

// --- Property round trips -------------------------------------------------------

/// A value for `row` drawn inside its bounds, written through its accessor.
template <class T>
void draw(const core::Field<T>& row, T& object, std::mt19937_64& rng) {
  const auto real_in = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(rng);
  };
  const auto int_in = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  };
  // Finite stand-ins for open-ended bounds; lo_open excludes lo itself.
  const double lo = std::isfinite(row.bounds.lo) ? row.bounds.lo : -1e6;
  const double hi = std::isfinite(row.bounds.hi) ? row.bounds.hi : lo + 2e6;
  const double step = row.bounds.lo_open ? 1.0 : 0.0;
  const core::FieldRef ref = row.at(object);
  switch (row.kind) {
    case FieldKind::Bool:
    case FieldKind::Flag:
      *std::get<bool*>(ref) = int_in(0, 1) == 1;
      break;
    case FieldKind::Int:
      if (auto* const* u = std::get_if<std::uint64_t*>(&ref)) {
        **u = rng();
      } else {
        *std::get<int*>(ref) = static_cast<int>(
            int_in(static_cast<std::int64_t>(std::max(lo + step, -1e6)),
                   static_cast<std::int64_t>(std::min(hi, 1e6))));
      }
      break;
    case FieldKind::Double: {
      double v = real_in(lo, hi);
      if (row.bounds.lo_open && v <= lo) v = std::nextafter(lo, hi);
      *std::get<double*>(ref) = v;
      break;
    }
    case FieldKind::Ms:
      *std::get<sim::SimTime*>(ref) = sim::SimTime::milliseconds(int_in(
          static_cast<std::int64_t>(lo + step), static_cast<std::int64_t>(std::min(hi, 1e9))));
      break;
    case FieldKind::OptionalMs: {
      auto& slot = *std::get<std::optional<sim::SimTime>*>(ref);
      slot.reset();
      if (int_in(0, 1) == 1) slot = sim::SimTime::milliseconds(int_in(1, 1'000'000'000));
      break;
    }
    case FieldKind::Ns:
      *std::get<sim::SimTime*>(ref) = sim::SimTime::nanoseconds(static_cast<std::int64_t>(rng()));
      break;
    case FieldKind::Hz:
      // Log-uniform rate; the period it parses to is what the member holds.
      *std::get<sim::SimTime*>(ref) = sim::SimTime::from_milliseconds(
          1000.0 / std::exp(real_in(std::log(row.bounds.lo), std::log(row.bounds.hi))));
      break;
    case FieldKind::Token:
      *std::get<std::uint8_t*>(ref) =
          static_cast<std::uint8_t>(int_in(0, static_cast<std::int64_t>(row.tokens.size()) - 1));
      break;
    case FieldKind::Fault: {
      auto& clauses = *std::get<std::vector<sim::FaultClause>*>(ref);
      clauses.clear();
      for (std::int64_t i = int_in(0, 3); i > 0; --i) {
        sim::FaultClause clause;
        clause.kind = static_cast<sim::FaultKind>(
            int_in(0, static_cast<std::int64_t>(sim::kFaultKindCount) - 1));
        clause.target = int_in(0, 1) == 1 ? "medium" : "";
        clause.start = sim::SimTime::nanoseconds(int_in(0, 100'000'000'000));
        clause.end = clause.start + sim::SimTime::nanoseconds(int_in(0, 100'000'000'000));
        clause.severity = real_in(0.0, 1.0);
        clauses.push_back(clause);
      }
      break;
    }
  }
}

template <class T>
T random_object(const core::FieldTable<T>& table, std::mt19937_64& rng) {
  T object{};
  for (const auto& row : table.rows) draw(row, object, rng);
  return object;
}

template <class T>
void expect_same_fields(const core::FieldTable<T>& table, T a, T b) {
  for (const auto& row : table.rows) {
    EXPECT_TRUE(core::detail::field_equal(row.at(a), row.at(b))) << row.key;
  }
}

constexpr int kDraws = 300;

TEST(FieldTableProperty, TestbedConfigRoundTripsAndCanonicalizesToAFixedPoint) {
  std::mt19937_64 rng{0x5EED0001};
  for (int i = 0; i < kDraws; ++i) {
    const core::TestbedConfig config = random_object(core::config_fields(), rng);
    const std::string text = core::format_config_overrides(config);
    core::TestbedConfig back;
    (void)core::apply_config_overrides(back, text);
    expect_same_fields(core::config_fields(), config, back);
    EXPECT_EQ(core::format_config_overrides(back), text);
    const std::string canonical = canonicalize_spec(text);
    EXPECT_EQ(canonicalize_spec(canonical), canonical);
  }
}

double real_in(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>{lo, hi}(rng);
}
int int_in(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>{lo, hi}(rng);
}

TEST(FieldTableProperty, CitySpecRoundTrips) {
  std::mt19937_64 rng{0x5EED0002};
  const auto coin = [&] { return int_in(rng, 0, 1) == 1; };
  const auto ms = [&](int lo) { return sim::SimTime::milliseconds(int_in(rng, lo, 1'000'000)); };
  for (int i = 0; i < kDraws; ++i) {
    // Every field inside its bounds, and the cross-field rules of validate().
    scenario::CitySpec spec;
    spec.seed = rng();
    spec.blocks_x = int_in(rng, 1, 1000);
    spec.blocks_y = int_in(rng, 1, 1000);
    spec.block_m = real_in(rng, 1.0, 1e4);
    spec.street_m = spec.block_m * real_in(rng, 0.001, 0.999);
    spec.corridor_row = int_in(rng, -1, spec.blocks_y);
    spec.buildings = coin();
    spec.building_loss_db = real_in(rng, 0.0, 100.0);
    spec.building_setback_m = real_in(rng, -50.0, 50.0);
    spec.rsu_every = int_in(rng, 1, 100);
    spec.max_rsus = int_in(rng, 0, 1000);
    spec.rsu_corridor_only = coin();
    spec.rsu_cam_interval = ms(1);
    spec.vehicles = int_in(rng, 0, 799);
    spec.vehicle_speed_mps = real_in(rng, 0.001, 100.0);
    spec.vehicle_speed_jitter_mps = real_in(rng, 0.0, 10.0);
    spec.obu_cam_interval = ms(1);
    spec.enable_dcc = coin();
    spec.enable_kaf = coin();
    spec.cpm_enable = coin();
    spec.cpm_interval = ms(1);
    spec.cpm_object_lifetime = ms(1);
    spec.cpm_redundancy_window = ms(0);
    spec.path_loss_exponent = real_in(rng, 1.0, 6.0);
    spec.shadowing_sigma_db = real_in(rng, 0.0, 20.0);
    spec.tx_power_dbm = real_in(rng, -10.0, 40.0);
    spec.spatial_index = coin();
    spec.obstacle_index = coin();
    spec.power_floor_dbm = real_in(rng, -200.0, 0.0);
    spec.grid_cell_m = real_in(rng, 0.0, 1000.0);
    // Every field prints at full precision, so equal text is equal fields.
    const std::string text = scenario::format_city_spec(spec);
    const scenario::CitySpec back = scenario::parse_city_spec(text);
    EXPECT_EQ(scenario::format_city_spec(back), text);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.street_m, spec.street_m);
    EXPECT_EQ(back.cpm_redundancy_window, spec.cpm_redundancy_window);
  }
}

TEST(FieldTableProperty, TrialRecordRoundTrips) {
  std::mt19937_64 rng{0x5EED0003};
  const auto ns = [&] { return sim::SimTime::nanoseconds(static_cast<std::int64_t>(rng())); };
  const auto real = [&] { return real_in(rng, -1e6, 1e6); };
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t seed = rng();
    core::TrialResult r;
    r.stopped_by_denm = int_in(rng, 0, 1) == 1;
    r.timed_out = int_in(rng, 0, 1) == 1;
    for (auto* t : {&r.t_cross_actual, &r.t_detection, &r.t_rsu_send, &r.t_obu_receive,
                    &r.t_power_cut, &r.t_halt}) {
      *t = ns();
    }
    for (auto* d : {&r.meas_detection_to_rsu_ms, &r.meas_rsu_to_obu_ms, &r.meas_obu_to_actuator_ms,
                    &r.meas_total_ms, &r.braking_distance_m, &r.stop_distance_to_camera_m,
                    &r.detection_distance_m, &r.speed_at_detection_mps}) {
      *d = real();
    }
    const std::string line = server::serialize_trial_record(seed, r);
    const server::TrialRecord back = server::parse_trial_record(line);
    EXPECT_EQ(server::serialize_trial_record(back.seed, back.result), line);
    EXPECT_EQ(back.seed, seed);
    EXPECT_EQ(back.result.t_halt, r.t_halt);
    EXPECT_EQ(back.result.meas_total_ms, r.meas_total_ms);
  }
}

/// Another accepted spelling of one `key = value` line's value.
std::string respell(FieldKind kind, const std::string& value, std::mt19937_64& rng) {
  const int pick = static_cast<int>(rng() % 3);
  switch (kind) {
    case FieldKind::Bool: {
      static const char* const kTrue[] = {"true", "on", "1"};
      static const char* const kFalse[] = {"false", "off", "0"};
      return value == "true" ? kTrue[pick] : kFalse[pick];
    }
    case FieldKind::Ms:
    case FieldKind::OptionalMs:
      // Stays within 2^53, where a double spelling names the integer exactly.
      if (value.size() > 15) return value;
      return pick == 0 ? value : pick == 1 ? value + ".0" : value + "e0";
    case FieldKind::Double:
    case FieldKind::Hz: {
      char buf[40];
      std::snprintf(buf, sizeof buf, pick == 0 ? "%.17g" : pick == 1 ? "%.20g" : "%.17e",
                    std::stod(value));
      return buf;
    }
    default:
      return value;
  }
}

TEST(FieldTableProperty, EverySpellingOfAConfigCanonicalizesToOneText) {
  std::mt19937_64 rng{0x5EED0004};
  const auto& table = core::config_fields();
  for (int i = 0; i < kDraws; ++i) {
    const std::string canonical =
        canonicalize_spec(core::format_config_overrides(random_object(table, rng)));
    std::vector<std::string> lines;
    std::vector<std::string> faults;  // repeated clauses keep their order
    std::vector<std::string> present;
    for (std::size_t pos = 0; pos < canonical.size();) {
      const auto nl = canonical.find('\n', pos);
      const std::string line = canonical.substr(pos, nl - pos);
      pos = nl + 1;
      const auto eq = line.find(" = ");
      const std::string key = line.substr(0, eq);
      const std::string value = respell(table.find(key)->kind, line.substr(eq + 3), rng);
      present.push_back(key);
      (key == "fault" ? faults : lines).push_back("\t" + key + "=" + value + "  # note");
    }
    // A seed line and keys set to their defaults name the same config.
    lines.push_back("seed = " + std::to_string(rng()));
    for (const auto& [key, text] : {std::pair{"poll_period_ms", "50"},
                                    std::pair{"cpm_enable", "off"}}) {
      if (std::find(present.begin(), present.end(), key) == present.end()) {
        lines.push_back(std::string{key} + " = " + text);
      }
    }
    std::shuffle(lines.begin(), lines.end(), rng);
    std::string spelled = "# respelled\n\n";
    for (const auto& line : lines) spelled += line + "\n";
    for (const auto& line : faults) spelled += line + "\n";
    EXPECT_EQ(canonicalize_spec(spelled), canonical) << spelled;
  }
}

}  // namespace
}  // namespace rst
