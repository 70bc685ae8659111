#include "rst/core/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "rst/sim/fault_plan.hpp"

namespace rst::core {

// No digits, trailing junk and out-of-range magnitudes all end in the same
// std::invalid_argument naming the key: std::stod/stoll's own exceptions
// (std::invalid_argument, std::out_of_range) carry no key and would escape
// callers that only catch std::invalid_argument.

namespace {

[[noreturn]] void bad_value(std::string_view key, const char* what, const std::string& value) {
  throw std::invalid_argument{"config override '" + std::string{key} + "': bad " + what + " '" +
                              value + "'"};
}

double parse_spec_double(const std::string& value, std::string_view key) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(value, &consumed);
    if (consumed == value.size()) return v;
  } catch (const std::logic_error&) {
  }
  bad_value(key, "number", value);
}

bool parse_spec_bool(const std::string& value, std::string_view key) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  bad_value(key, "boolean", value);
}

}  // namespace

std::int64_t parse_spec_int(const std::string& value, std::string_view key) {
  try {
    std::size_t consumed = 0;
    const long long v = std::stoll(value, &consumed, 10);
    if (consumed == value.size()) return v;
  } catch (const std::logic_error&) {
  }
  // `50.0` and `5e1` spell the integer 50; a double holds every integer up
  // to 2^53 exactly, so nothing is rounded.
  if (!value.empty() && value.find_first_not_of("+-.0123456789eE") == std::string::npos) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() + value.size() && v == std::trunc(v) && std::abs(v) <= 0x1p53) {
      return static_cast<std::int64_t>(v);
    }
  }
  bad_value(key, "integer", value);
}

std::int64_t parse_spec_int_in(const std::string& value, std::string_view key, std::int64_t lo,
                               std::int64_t hi) {
  const std::int64_t v = parse_spec_int(value, key);
  if (v < lo || v > hi) {
    throw std::invalid_argument{"config override '" + std::string{key} + "': " + value +
                                " is outside [" + std::to_string(lo) + ", " + std::to_string(hi) +
                                "]"};
  }
  return v;
}

std::string format_spec_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::size_t for_each_spec_override(
    const std::string& text,
    const std::function<void(const std::string& key, const std::string& value)>& apply) {
  const auto strip = [](std::string_view s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) return std::string_view{};
    return s.substr(begin, s.find_last_not_of(" \t\r") - begin + 1);
  };
  std::size_t applied = 0;
  std::string_view rest{text};
  while (!rest.empty()) {
    const auto nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest = nl == std::string_view::npos ? std::string_view{} : rest.substr(nl + 1);
    line = strip(line.substr(0, line.find('#')));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument{"config override: missing '=' in line '" + std::string{line} +
                                  "'"};
    }
    apply(std::string{strip(line.substr(0, eq))}, std::string{strip(line.substr(eq + 1))});
    ++applied;
  }
  return applied;
}

// --- Field-table engine -----------------------------------------------------

namespace detail {
namespace {

[[noreturn]] void outside(const std::string& what, const FieldBounds& b) {
  throw std::invalid_argument{what + " is outside " + (b.lo_open ? "(" : "[") +
                              format_spec_double(b.lo) + ", " + format_spec_double(b.hi) + "]"};
}

bool within(const FieldBounds& b, double v) {
  return std::isfinite(v) && (b.lo_open ? v > b.lo : v >= b.lo) && v <= b.hi;
}

sim::SimTime& time(FieldRef ref) { return *std::get<sim::SimTime*>(ref); }
std::optional<sim::SimTime>& maybe_time(FieldRef ref) {
  return *std::get<std::optional<sim::SimTime>*>(ref);
}

/// The member in its text's unit, for the bound checks; 0 for the kinds
/// that carry no bounds.
double number(FieldKind kind, FieldRef ref) {
  switch (kind) {
    case FieldKind::Int: return std::holds_alternative<int*>(ref) ? *std::get<int*>(ref) : 0.0;
    case FieldKind::Double: return *std::get<double*>(ref);
    case FieldKind::Ms: return time(ref).to_milliseconds();
    case FieldKind::OptionalMs: return maybe_time(ref) ? maybe_time(ref)->to_milliseconds() : 0.0;
    case FieldKind::Hz: return 1000.0 / time(ref).to_milliseconds();
    default: return 0.0;
  }
}

}  // namespace

void parse_field(const FieldRow& row, FieldRef ref, const std::string& value) {
  const std::string_view key = row.key;
  const auto bounded = [&](double v, const FieldBounds& b) {
    if (!within(b, v)) outside("config override '" + std::string{key} + "': " + value, b);
    return v;
  };
  // Checked against the member type's range before it is narrowed or scaled.
  const auto integer = [&](double lo, double hi) {
    const std::int64_t v = parse_spec_int(value, key);
    bounded(bounded(static_cast<double>(v), {lo, hi}), row.bounds);
    return v;
  };
  const auto real = [&] { return bounded(parse_spec_double(value, key), row.bounds); };
  constexpr auto kMaxMs = static_cast<double>(sim::SimTime::kMaxMilliseconds);
  switch (row.kind) {
    case FieldKind::Bool: *std::get<bool*>(ref) = parse_spec_bool(value, key); return;
    case FieldKind::Flag:
      if (value != "0" && value != "1") bad_value(key, "flag", value);
      *std::get<bool*>(ref) = value == "1";
      return;
    case FieldKind::Int:
      if (auto* const* u = std::get_if<std::uint64_t*>(&ref)) {
        std::uint64_t v = 0;
        const char* end = value.data() + value.size();
        const auto [stop, error] = std::from_chars(value.data(), end, v);
        if (error != std::errc{} || stop != end) bad_value(key, "integer", value);
        **u = v;
      } else {
        *std::get<int*>(ref) = static_cast<int>(integer(INT_MIN, INT_MAX));
      }
      return;
    case FieldKind::Double: *std::get<double*>(ref) = real(); return;
    case FieldKind::Ms: time(ref) = sim::SimTime::milliseconds(integer(-kMaxMs, kMaxMs)); return;
    case FieldKind::OptionalMs: {
      const std::int64_t ms = integer(-kMaxMs, kMaxMs);
      maybe_time(ref) = ms == 0 ? std::nullopt : std::optional{sim::SimTime::milliseconds(ms)};
      return;
    }
    case FieldKind::Ns: time(ref) = sim::SimTime::nanoseconds(parse_spec_int(value, key)); return;
    case FieldKind::Hz: time(ref) = sim::SimTime::from_milliseconds(1000.0 / real()); return;
    case FieldKind::Token: {
      const auto it = std::find(row.tokens.begin(), row.tokens.end(), value);
      if (it == row.tokens.end()) bad_value(key, "token", value);
      *std::get<std::uint8_t*>(ref) = static_cast<std::uint8_t>(it - row.tokens.begin());
      return;
    }
    case FieldKind::Fault:
      try {
        std::get<std::vector<sim::FaultClause>*>(ref)->push_back(sim::parse_fault_clause(value));
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument{"config override '" + std::string{key} + "': " + e.what()};
      }
      return;
  }
}

void format_field(const FieldRow& row, FieldRef ref, std::string& out, std::string_view sep,
                  std::string_view end) {
  const auto put = [&](std::string_view value) {
    out.append(row.key).append(sep).append(value).append(end);
  };
  const auto ms = [](sim::SimTime t) { return std::to_string(t.count_ns() / 1'000'000); };
  switch (row.kind) {
    case FieldKind::Bool: return put(*std::get<bool*>(ref) ? "true" : "false");
    case FieldKind::Flag: return put(*std::get<bool*>(ref) ? "1" : "0");
    case FieldKind::Int:
      if (auto* const* u = std::get_if<std::uint64_t*>(&ref)) return put(std::to_string(**u));
      return put(std::to_string(*std::get<int*>(ref)));
    case FieldKind::Double:
    case FieldKind::Hz: return put(format_spec_double(number(row.kind, ref)));
    case FieldKind::Ms: return put(ms(time(ref)));
    case FieldKind::OptionalMs: return put(maybe_time(ref) ? ms(*maybe_time(ref)) : "0");
    case FieldKind::Ns: return put(std::to_string(time(ref).count_ns()));
    case FieldKind::Token: return put(row.tokens[*std::get<std::uint8_t*>(ref)]);
    case FieldKind::Fault:
      for (const auto& clause : *std::get<std::vector<sim::FaultClause>*>(ref)) {
        put(sim::format_fault_clause(clause));
      }
      return;
  }
}

bool field_equal(FieldRef a, FieldRef b) {
  return std::visit([&](auto* pa) { return *pa == *std::get<decltype(pa)>(b); }, a);
}

void check_field(const FieldRow& row, FieldRef ref, std::string_view owner) {
  if (within(row.bounds, number(row.kind, ref))) return;
  std::string what{owner};
  format_field(row, ref, what.append(": "), " = ", "");
  outside(what, row.bounds);
}

}  // namespace detail

// --- TestbedConfig ----------------------------------------------------------

namespace {

using C = TestbedConfig;
using K = FieldKind;

constexpr std::string_view kBearers[] = {"its-g5", "embb", "urllc"};  // WarningPath order
constexpr std::string_view kTriggerModes[] = {"action-point", "cpa"};  // HazardTriggerMode order

constexpr Field<C> kConfigFields[] = {
    {"seed", K::Int, [](C& c) { return &c.seed; }, {}, "root random seed"},
    {"target_speed_mps", K::Double, [](C& c) { return &c.planner.target_speed_mps; },
     kPositive, "line-following cruise speed"},
    {"action_point_m", K::Double, [](C& c) { return &c.hazard.action_point_distance_m; },
     kPositive, "camera-distance braking threshold"},
    {"poll_period_ms", K::Ms, [](C& c) { return &c.message_handler.poll_period; },
     kPositive, "OBU /request_denm polling period"},
    {"detection_fps", K::Hz, [](C& c) { return &c.detection.processing_period; },
     {1e-3, 1e9}, "edge-node detection loop rate"},
    {"path_loss_exponent", K::Double, [](C& c) { return &c.path_loss_exponent; },
     at_least(1), "log-distance channel exponent"},
    {"shadowing_sigma_db", K::Double, [](C& c) { return &c.shadowing_sigma_db; },
     at_least(0), "log-normal shadowing sigma"},
    {"cpm_enable", K::Bool, [](C& c) { return &c.cpm_enable; },
     {}, "collective perception service on both stations"},
    {"cpm_interval_ms", K::Ms, [](C& c) { return &c.cpm_interval; }, {}, "CPM generation period"},
    {"cpm_object_lifetime_ms", K::Ms, [](C& c) { return &c.cpm_object_lifetime; },
     {}, "LDM perceived-object lifetime under CPM"},
    {"cpm_redundancy_window_ms", K::Ms, [](C& c) { return &c.cpm_redundancy_window; },
     {}, "skip objects a peer announced within this window"},
    {"obstacle_index", K::Bool, [](C& c) { return &c.obstacle_index; },
     {}, "ray-index the obstacle walls (off = brute-force scan)"},
    {"medium_power_floor_dbm", K::Double, [](C& c) { return &c.medium_power_floor_dbm; },
     {.hi = 0}, "out-of-range link-budget floor (dBm)"},
    {"warning_bearer", K::Token, [](C& c) { return &c.warning_path; },
     {}, "its-g5 | embb | urllc", kBearers},
    {"use_gnss", K::Bool, [](C& c) { return &c.use_gnss; },
     {}, "advertise GNSS fixes instead of ground truth"},
    {"enable_lidar_aeb", K::Bool, [](C& c) { return &c.enable_lidar_aeb; },
     {}, "on-board LiDAR + AEB fallback"},
    {"anonymize_detections", K::Bool, [](C& c) { return &c.detection.anonymize_detections; },
     {}, "re-derive detection ids by data association"},
    {"denm_repetition_ms", K::OptionalMs, [](C& c) { return &c.hazard.denm_repetition; },
     at_least(0), "DENM repetition interval (0 disables)"},
    {"fault", K::Fault, [](C& c) { return &c.fault_plan.clauses; },
     {}, "fault clause kind:target:start_ms:end_ms:severity (repeatable)"},
    {"watchdog", K::Bool, [](C& c) { return &c.message_handler.watchdog; },
     {}, "DENM/CAM-liveness watchdog (failsafe degradation)"},
    {"watchdog_timeout_ms", K::Ms, [](C& c) { return &c.message_handler.watchdog_timeout; },
     at_least(0), "silence before the watchdog degrades"},
    {"failsafe_speed_mps", K::Double, [](C& c) { return &c.planner.failsafe_speed_mps; },
     at_least(0), "speed cap while degraded"},
    {"hazard_min_confidence", K::Double, [](C& c) { return &c.hazard.min_confidence; },
     {0, 1}, "minimum detection confidence the hazard service reacts to"},
    {"hazard_require_known_road_user", K::Bool,
     [](C& c) { return &c.hazard.require_known_road_user; },
     {}, "ignore detections whose label is not a road user"},
    {"trigger_mode", K::Token, [](C& c) { return &c.hazard.trigger_mode; },
     {}, "action-point | cpa", kTriggerModes},
};

constexpr FieldTable<C> kConfigTable{"TestbedConfig", kConfigFields};

const TestbedConfig& default_config() {
  static const TestbedConfig kDefault{};
  return kDefault;
}

}  // namespace

const FieldTable<TestbedConfig>& config_fields() { return kConfigTable; }

std::size_t apply_config_overrides(TestbedConfig& config, const std::string& text) {
  return kConfigTable.parse(config, text);
}

std::string format_config_overrides(const TestbedConfig& config) {
  std::string out;
  kConfigTable.format(config, out, " = ", "\n", &default_config());
  return out;
}

std::string canonicalize_spec(const std::string& text, TestbedConfig* parsed) {
  if (parsed == nullptr) {
    TestbedConfig config;
    return canonicalize_spec(text, &config);
  }
  (void)apply_config_overrides(*parsed, text);
  parsed->seed = default_config().seed;
  return format_config_overrides(*parsed);
}

std::vector<std::pair<std::string, std::string>> config_override_keys() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& row : kConfigTable.rows) out.emplace_back(row.key, row.help);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rst::core
