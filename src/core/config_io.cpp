#include "rst/core/config_io.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>

#include "rst/sim/fault_plan.hpp"

namespace rst::core {

// No digits, trailing junk and out-of-range magnitudes all end in the same
// std::invalid_argument naming the key: std::stod/stoll's own exceptions
// (std::invalid_argument, std::out_of_range) carry no key and would escape
// callers that only catch std::invalid_argument.

double parse_spec_double(const std::string& value, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const double v = std::stod(value, &consumed);
    if (consumed == value.size()) return v;
  } catch (const std::logic_error&) {
  }
  throw std::invalid_argument{"config override '" + key + "': bad number '" + value + "'"};
}

std::int64_t parse_spec_int(const std::string& value, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const long long v = std::stoll(value, &consumed, 10);
    if (consumed == value.size()) return v;
  } catch (const std::logic_error&) {
  }
  throw std::invalid_argument{"config override '" + key + "': bad integer '" + value + "'"};
}

std::int64_t parse_spec_int_in(const std::string& value, const std::string& key, std::int64_t lo,
                               std::int64_t hi) {
  const std::int64_t v = parse_spec_int(value, key);
  if (v < lo || v > hi) {
    throw std::invalid_argument{"config override '" + key + "': " + value + " is outside [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]"};
  }
  return v;
}

bool parse_spec_bool(const std::string& value, const std::string& key) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  throw std::invalid_argument{"config override '" + key + "': bad boolean '" + value + "'"};
}

std::string format_spec_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string canonicalize_spec(const std::string& text) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for_each_spec_override(text, [&](const std::string& key, const std::string& value) {
    // Values that are whole numbers normalize through %.17g ("1e3" and
    // "1000.0" both become "1000"); anything else (booleans, enum tokens,
    // fault clauses) is already canonical as stripped text.
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    const bool numeric = !value.empty() && end == value.c_str() + value.size();
    pairs.emplace_back(key, numeric ? format_spec_double(v) : value);
  });
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  for (const auto& [key, value] : pairs) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

namespace {

using Setter = std::function<void(TestbedConfig&, const std::string&)>;

double parse_double(const std::string& value, const std::string& key) {
  return parse_spec_double(value, key);
}

std::int64_t parse_int(const std::string& value, const std::string& key) {
  return parse_spec_int(value, key);
}

bool parse_bool(const std::string& value, const std::string& key) {
  return parse_spec_bool(value, key);
}

struct Entry {
  Setter set;
  std::string help;
};

const std::map<std::string, Entry>& registry() {
  using sim::SimTime;
  static const std::map<std::string, Entry> kRegistry = {
      {"seed",
       {[](TestbedConfig& c, const std::string& v) {
          c.seed = static_cast<std::uint64_t>(parse_int(v, "seed"));
        },
        "root random seed"}},
      {"target_speed_mps",
       {[](TestbedConfig& c, const std::string& v) {
          c.planner.target_speed_mps = parse_double(v, "target_speed_mps");
        },
        "line-following cruise speed"}},
      {"action_point_m",
       {[](TestbedConfig& c, const std::string& v) {
          c.hazard.action_point_distance_m = parse_double(v, "action_point_m");
        },
        "camera-distance braking threshold"}},
      {"poll_period_ms",
       {[](TestbedConfig& c, const std::string& v) {
          c.message_handler.poll_period = SimTime::milliseconds(parse_int(v, "poll_period_ms"));
        },
        "OBU /request_denm polling period"}},
      {"detection_fps",
       {[](TestbedConfig& c, const std::string& v) {
          c.detection.processing_period =
              SimTime::from_milliseconds(1000.0 / parse_double(v, "detection_fps"));
        },
        "edge-node detection loop rate"}},
      {"path_loss_exponent",
       {[](TestbedConfig& c, const std::string& v) {
          c.path_loss_exponent = parse_double(v, "path_loss_exponent");
        },
        "log-distance channel exponent"}},
      {"shadowing_sigma_db",
       {[](TestbedConfig& c, const std::string& v) {
          c.shadowing_sigma_db = parse_double(v, "shadowing_sigma_db");
        },
        "log-normal shadowing sigma"}},
      {"cpm_enable",
       {[](TestbedConfig& c, const std::string& v) {
          c.cpm_enable = parse_bool(v, "cpm_enable");
        },
        "collective perception service on both stations"}},
      {"cpm_interval_ms",
       {[](TestbedConfig& c, const std::string& v) {
          c.cpm_interval = SimTime::milliseconds(parse_int(v, "cpm_interval_ms"));
        },
        "CPM generation period"}},
      {"cpm_object_lifetime_ms",
       {[](TestbedConfig& c, const std::string& v) {
          c.cpm_object_lifetime = SimTime::milliseconds(parse_int(v, "cpm_object_lifetime_ms"));
        },
        "LDM perceived-object lifetime under CPM"}},
      {"cpm_redundancy_window_ms",
       {[](TestbedConfig& c, const std::string& v) {
          c.cpm_redundancy_window =
              SimTime::milliseconds(parse_int(v, "cpm_redundancy_window_ms"));
        },
        "skip objects a peer announced within this window"}},
      {"medium_spatial_index",
       {[](TestbedConfig& c, const std::string& v) {
          c.medium_spatial_index = parse_bool(v, "medium_spatial_index");
        },
        "spatial-grid receiver culling (outcomes unchanged)"}},
      {"obstacle_index",
       {[](TestbedConfig& c, const std::string& v) {
          c.obstacle_index = parse_bool(v, "obstacle_index");
        },
        "ray-index the obstacle walls (off = brute-force scan)"}},
      {"medium_power_floor_dbm",
       {[](TestbedConfig& c, const std::string& v) {
          c.medium_power_floor_dbm = parse_double(v, "medium_power_floor_dbm");
        },
        "out-of-range link-budget floor (dBm)"}},
      {"medium_grid_cell_m",
       {[](TestbedConfig& c, const std::string& v) {
          c.medium_grid_cell_m = parse_double(v, "medium_grid_cell_m");
        },
        "culling grid cell size (0 = derive from power floor)"}},
      {"warning_bearer",
       {[](TestbedConfig& c, const std::string& v) {
          if (v == "its-g5") c.warning_path = WarningPath::ItsG5;
          else if (v == "embb") c.warning_path = WarningPath::CellularEmbb;
          else if (v == "urllc") c.warning_path = WarningPath::CellularUrllc;
          else throw std::invalid_argument{"config override 'warning_bearer': unknown '" + v + "'"};
        },
        "its-g5 | embb | urllc"}},
      {"use_gnss",
       {[](TestbedConfig& c, const std::string& v) { c.use_gnss = parse_bool(v, "use_gnss"); },
        "advertise GNSS fixes instead of ground truth"}},
      {"enable_lidar_aeb",
       {[](TestbedConfig& c, const std::string& v) {
          c.enable_lidar_aeb = parse_bool(v, "enable_lidar_aeb");
        },
        "on-board LiDAR + AEB fallback"}},
      {"anonymize_detections",
       {[](TestbedConfig& c, const std::string& v) {
          c.detection.anonymize_detections = parse_bool(v, "anonymize_detections");
        },
        "re-derive detection ids by data association"}},
      {"denm_repetition_ms",
       {[](TestbedConfig& c, const std::string& v) {
          const auto ms = parse_int(v, "denm_repetition_ms");
          if (ms <= 0) c.hazard.denm_repetition.reset();
          else c.hazard.denm_repetition = SimTime::milliseconds(ms);
        },
        "DENM repetition interval (0 disables)"}},
      {"fault",
       {[](TestbedConfig& c, const std::string& v) {
          c.fault_plan.clauses.push_back(sim::parse_fault_clause(v));
        },
        "fault clause kind:target:start_ms:end_ms:severity (repeatable)"}},
      {"watchdog",
       {[](TestbedConfig& c, const std::string& v) {
          c.message_handler.watchdog = parse_bool(v, "watchdog");
        },
        "DENM/CAM-liveness watchdog (failsafe degradation)"}},
      {"watchdog_timeout_ms",
       {[](TestbedConfig& c, const std::string& v) {
          c.message_handler.watchdog_timeout =
              SimTime::milliseconds(parse_int(v, "watchdog_timeout_ms"));
        },
        "silence before the watchdog degrades"}},
      {"failsafe_speed_mps",
       {[](TestbedConfig& c, const std::string& v) {
          c.planner.failsafe_speed_mps = parse_double(v, "failsafe_speed_mps");
        },
        "speed cap while degraded"}},
      {"hazard_min_confidence",
       {[](TestbedConfig& c, const std::string& v) {
          c.hazard.min_confidence = parse_double(v, "hazard_min_confidence");
        },
        "minimum detection confidence the hazard service reacts to"}},
      {"hazard_require_known_road_user",
       {[](TestbedConfig& c, const std::string& v) {
          c.hazard.require_known_road_user = parse_bool(v, "hazard_require_known_road_user");
        },
        "ignore detections whose label is not a road user"}},
      {"trigger_mode",
       {[](TestbedConfig& c, const std::string& v) {
          if (v == "action-point") {
            c.hazard.trigger_mode = roadside::HazardTriggerMode::ActionPointDistance;
          } else if (v == "cpa") {
            c.hazard.trigger_mode = roadside::HazardTriggerMode::CpaPrediction;
          } else {
            throw std::invalid_argument{"config override 'trigger_mode': unknown '" + v + "'"};
          }
        },
        "action-point | cpa"}},
  };
  return kRegistry;
}

}  // namespace

std::size_t for_each_spec_override(
    const std::string& text,
    const std::function<void(const std::string& key, const std::string& value)>& apply) {
  std::istringstream stream{text};
  std::string line;
  std::size_t applied = 0;
  while (std::getline(stream, line)) {
    // Strip comments and whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    const auto strip = [](std::string s) {
      const auto begin = s.find_first_not_of(" \t\r");
      if (begin == std::string::npos) return std::string{};
      const auto end = s.find_last_not_of(" \t\r");
      return s.substr(begin, end - begin + 1);
    };
    line = strip(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument{"config override: missing '=' in line '" + line + "'"};
    }
    apply(strip(line.substr(0, eq)), strip(line.substr(eq + 1)));
    ++applied;
  }
  return applied;
}

std::size_t apply_config_overrides(TestbedConfig& config, const std::string& text) {
  return for_each_spec_override(text, [&](const std::string& key, const std::string& value) {
    const auto it = registry().find(key);
    if (it == registry().end()) {
      throw std::invalid_argument{"config override: unknown key '" + key + "'"};
    }
    it->second.set(config, value);
  });
}

std::vector<std::pair<std::string, std::string>> config_override_keys() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& [key, entry] : registry()) out.emplace_back(key, entry.help);
  return out;
}

}  // namespace rst::core
