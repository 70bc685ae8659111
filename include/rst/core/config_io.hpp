#pragma once

#include <functional>
#include <string>
#include <vector>

#include "rst/core/testbed.hpp"

namespace rst::core {

/// Applies `key = value` overrides (one per line, `#` comments) to a
/// TestbedConfig — the persistent-experiment-description format consumed
/// by `examples/run_experiment --config`. Unknown keys throw
/// std::invalid_argument naming the key. Returns the number of overrides
/// applied.
std::size_t apply_config_overrides(TestbedConfig& config, const std::string& text);

/// The keys apply_config_overrides understands, with one-line help.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> config_override_keys();

// --- Shared `key = value` spec-format plumbing ---
//
// The testbed config file and the scenario::CitySpec file share one syntax
// (one `key = value` per line, `#` comments, whitespace-insensitive); these
// helpers keep the two parsers byte-for-byte consistent on errors and edge
// cases.

/// Splits `text` into stripped (key, value) pairs and invokes `apply` for
/// each. Throws std::invalid_argument on a line without '='. Returns the
/// number of pairs applied.
std::size_t for_each_spec_override(
    const std::string& text,
    const std::function<void(const std::string& key, const std::string& value)>& apply);

/// Scalar parsers with uniform "config override '<key>': ..." diagnostics.
/// The whole value must parse; junk, digit-free and out-of-range text all
/// throw std::invalid_argument.
[[nodiscard]] double parse_spec_double(const std::string& value, const std::string& key);
[[nodiscard]] std::int64_t parse_spec_int(const std::string& value, const std::string& key);
/// parse_spec_int plus a range check: values outside [lo, hi] throw too.
[[nodiscard]] std::int64_t parse_spec_int_in(const std::string& value, const std::string& key,
                                             std::int64_t lo, std::int64_t hi);
[[nodiscard]] bool parse_spec_bool(const std::string& value, const std::string& key);

/// %.17g rendering — the shortest printf format that round-trips every
/// finite double through strtod/stod exactly. All spec writers (CitySpec
/// files, fault clauses, campaign canonicalization) share this one helper
/// so formatted specs re-parse to bit-identical values.
[[nodiscard]] std::string format_spec_double(double v);

/// Canonical form of a `key = value` spec: comments and blank lines
/// dropped, keys and values stripped and re-joined as `key = value\n`,
/// keys sorted (stable sort, so repeated keys — e.g. `fault` clauses —
/// keep their relative order and last-wins semantics), and any value that
/// parses completely as a double re-rendered with format_spec_double.
/// Canonicalization is a fixed point: canonicalize_spec(canonicalize_spec
/// (s)) == canonicalize_spec(s), which makes the canonical text a stable
/// content-address input. Throws std::invalid_argument on a line without
/// '=' (same diagnostic as for_each_spec_override); it does NOT validate
/// keys — apply the result to a config to do that.
[[nodiscard]] std::string canonicalize_spec(const std::string& text);

}  // namespace rst::core
