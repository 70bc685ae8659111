#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "rst/core/testbed.hpp"

namespace rst::server {

/// Code-version constant mixed into every trial content address. Bump it
/// whenever a change alters what a (spec, seed) trial produces — stored
/// artifacts from older code then stop matching instead of serving stale
/// bytes. The repo's bit-reproducibility guarantee is what makes this a
/// sufficient cache key: same spec + same seed + same code ⇒ same bytes.
inline constexpr std::string_view kCodeVersion = "rst-campaign/2";

/// FNV-1a over a byte string, continuing from `h` (so keys compose:
/// fnv1a(b, fnv1a(a)) hashes a||b).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 1469598103934665603ULL);

/// Content address of one trial: FNV-1a over (canonical spec bytes, seed
/// as 8 little-endian bytes, kCodeVersion). The spec MUST already be
/// canonical (core::canonicalize_spec) so equivalent spellings collide.
[[nodiscard]] std::uint64_t trial_key(const std::string& canonical_spec, std::uint64_t seed);

/// One campaign submission: a spec in the config_io `key = value` format
/// (fault clauses ride along as `fault = ...` lines), a trial count and a
/// base seed. Trial i runs at seed `base_seed + i`; a `seed = ...` line in
/// the spec is accepted but the per-trial seed always comes from here.
struct CampaignRequest {
  std::string spec;
  int trials{1};
  std::uint64_t base_seed{1};
};

/// Identity of a whole campaign (used for admission traces and the `OK
/// id=` response line): the trial-key construction extended with the
/// trial count and base seed.
[[nodiscard]] std::uint64_t campaign_id(const std::string& canonical_spec, int trials,
                                        std::uint64_t base_seed);

/// Serializes one trial result as a single `k=v`-token line: SimTimes as
/// integer nanoseconds, doubles via core::format_spec_double (%.17g), so
/// parse_trial_record(serialize_trial_record(...)) is bit-exact and the
/// line itself is a stable, content-addressable artifact.
[[nodiscard]] std::string serialize_trial_record(std::uint64_t seed,
                                                 const core::TrialResult& result);

/// Parsed form of a stored trial record.
struct TrialRecord {
  std::uint64_t seed{0};
  core::TrialResult result{};
};

/// Inverse of serialize_trial_record. Throws std::invalid_argument on a
/// malformed or incomplete record (a corrupted store entry must fail loud,
/// not decode into a plausible trial).
[[nodiscard]] TrialRecord parse_trial_record(const std::string& line);

}  // namespace rst::server
