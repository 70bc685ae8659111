#include "rst/server/campaign.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "rst/core/config_io.hpp"

namespace rst::server {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  // Explicit little-endian byte order so the address is platform-stable.
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t trial_key(const std::string& canonical_spec, std::uint64_t seed) {
  std::uint64_t h = fnv1a(canonical_spec);
  h = mix_u64(h, seed);
  return fnv1a(kCodeVersion, h);
}

std::uint64_t campaign_id(const std::string& canonical_spec, int trials,
                          std::uint64_t base_seed) {
  std::uint64_t h = fnv1a(canonical_spec);
  h = mix_u64(h, static_cast<std::uint64_t>(trials));
  h = mix_u64(h, base_seed);
  return fnv1a(kCodeVersion, h);
}

namespace {

using K = core::FieldKind;
using T = TrialRecord;

constexpr core::Field<T> kRecordFields[] = {
    {"seed", K::Int, [](T& t) { return &t.seed; }},
    {"stopped", K::Flag, [](T& t) { return &t.result.stopped_by_denm; }},
    {"timeout", K::Flag, [](T& t) { return &t.result.timed_out; }},
    {"t_cross_ns", K::Ns, [](T& t) { return &t.result.t_cross_actual; }},
    {"t_det_ns", K::Ns, [](T& t) { return &t.result.t_detection; }},
    {"t_rsu_ns", K::Ns, [](T& t) { return &t.result.t_rsu_send; }},
    {"t_obu_ns", K::Ns, [](T& t) { return &t.result.t_obu_receive; }},
    {"t_cut_ns", K::Ns, [](T& t) { return &t.result.t_power_cut; }},
    {"t_halt_ns", K::Ns, [](T& t) { return &t.result.t_halt; }},
    {"det_rsu_ms", K::Double, [](T& t) { return &t.result.meas_detection_to_rsu_ms; }},
    {"rsu_obu_ms", K::Double, [](T& t) { return &t.result.meas_rsu_to_obu_ms; }},
    {"obu_act_ms", K::Double, [](T& t) { return &t.result.meas_obu_to_actuator_ms; }},
    {"total_ms", K::Double, [](T& t) { return &t.result.meas_total_ms; }},
    {"brake_m", K::Double, [](T& t) { return &t.result.braking_distance_m; }},
    {"stop_cam_m", K::Double, [](T& t) { return &t.result.stop_distance_to_camera_m; }},
    {"det_dist_m", K::Double, [](T& t) { return &t.result.detection_distance_m; }},
    {"det_speed_mps", K::Double, [](T& t) { return &t.result.speed_at_detection_mps; }},
};

constexpr core::FieldTable<T> kRecordTable{"TrialRecord", kRecordFields};

[[noreturn]] void bad_record(const std::string& line, const std::string& why) {
  throw std::invalid_argument{"trial record: " + why + " in '" + line + "'"};
}

}  // namespace

std::string serialize_trial_record(std::uint64_t seed, const core::TrialResult& result) {
  std::string out;
  kRecordTable.format(TrialRecord{seed, result}, out, "=", " ");
  out.pop_back();  // the last field's separator
  return out;
}

TrialRecord parse_trial_record(const std::string& line) {
  TrialRecord rec;
  // Every field must appear exactly once; track per-field presence so both
  // a truncated record and a duplicated-field one (which a plain token
  // count would wave through with a silent default-zero measurement) fail
  // loud instead of decoding.
  std::uint32_t seen = 0;
  std::string lines = line;  // one `key=value` token per line: the spec splitter's syntax
  std::replace(lines.begin(), lines.end(), ' ', '\n');
  try {
    core::for_each_spec_override(lines, [&](const std::string& key, const std::string& value) {
      const auto* row = kRecordTable.find(key);
      const std::uint32_t bit = row ? 1u << (row - kRecordTable.rows.data()) : 0;
      if (bit == 0 || (seen & bit)) throw std::invalid_argument{"unknown or repeated " + key};
      seen |= bit;
      kRecordTable.set(rec, key, value);
    });
  } catch (const std::invalid_argument& e) {
    bad_record(line, e.what());
  }
  if (seen != (std::uint32_t{1} << std::size(kRecordFields)) - 1) bad_record(line, "missing field");
  return rec;
}

}  // namespace rst::server
