#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "rst/core/testbed.hpp"

namespace rst::core {

/// Applies `key = value` overrides (one per line, `#` comments) to a
/// TestbedConfig — the persistent-experiment-description format consumed
/// by `examples/run_experiment --config`. Unknown keys and out-of-bound
/// values throw std::invalid_argument naming the key. Returns the number
/// of overrides applied.
std::size_t apply_config_overrides(TestbedConfig& config, const std::string& text);

/// Renders, as `key = value` lines in config_fields() order, every field
/// whose value differs from a default-constructed TestbedConfig (`fault`
/// clauses one line each, in plan order). Applying the text to a default
/// config reproduces every field the table describes.
[[nodiscard]] std::string format_config_overrides(const TestbedConfig& config);

/// The keys apply_config_overrides understands, with one-line help, sorted
/// by key.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> config_override_keys();

// --- Shared `key = value` spec-format plumbing ---

/// Splits `text` — one `key = value` per line, `#` comments, whitespace-
/// insensitive: the syntax of every spec file — into stripped (key, value)
/// pairs and invokes `apply` for each. Throws std::invalid_argument on a
/// line without '='. Returns the number of pairs applied.
std::size_t for_each_spec_override(
    const std::string& text,
    const std::function<void(const std::string& key, const std::string& value)>& apply);

/// Integer parsers with uniform "config override '<key>': ..." diagnostics.
/// The whole value must parse; junk, digit-free and out-of-range text all
/// throw std::invalid_argument. An integer may also be spelled as an
/// integral number up to 2^53 (`50.0`, `5e1`).
[[nodiscard]] std::int64_t parse_spec_int(const std::string& value, std::string_view key);
/// parse_spec_int plus a range check: values outside [lo, hi] throw too.
[[nodiscard]] std::int64_t parse_spec_int_in(const std::string& value, std::string_view key,
                                             std::int64_t lo, std::int64_t hi);

/// %.17g rendering — the shortest printf format that round-trips every
/// finite double through strtod/stod exactly. All spec writers (CitySpec
/// files, fault clauses, trial records) share this one helper so formatted
/// specs re-parse to bit-identical values.
[[nodiscard]] std::string format_spec_double(double v);

/// Canonical form of a testbed spec: format_config_overrides of the parsed
/// spec, with `seed` left out (a campaign sets each trial's seed itself).
/// Every spelling of one config yields one text — `true`/`on`/`1`,
/// `50`/`50.0`/`5e1`, any key order or comments, a key set to its default
/// or left out — and the result is a fixed point, which makes it a stable
/// content-address input. Throws std::invalid_argument on a spec that
/// does not parse. Given `parsed` (a default config), the parsed config
/// with its seed reset lands there too.
[[nodiscard]] std::string canonicalize_spec(const std::string& text,
                                            TestbedConfig* parsed = nullptr);

// --- Field tables ---
//
// TestbedConfig, scenario::CitySpec and server::TrialRecord are each
// described by one constexpr array of Field rows. The rows drive parsing,
// formatting, the single-field checks of validate() and the key listing.

enum class FieldKind : std::uint8_t {
  Bool,        ///< true|on|1 / false|off|0, formatted true/false
  Flag,        ///< 0/1
  Int,         ///< integer within the member type's range (int or uint64)
  Double,      ///< finite number, formatted %.17g
  Ms,          ///< SimTime from integer milliseconds
  OptionalMs,  ///< std::optional<SimTime> from integer milliseconds; 0 = off
  Ns,          ///< SimTime from integer nanoseconds
  Hz,          ///< SimTime period from a rate
  Token,       ///< enum from one of the row's tokens (index = enum value)
  Fault,       ///< repeated sim::FaultClause, one line per clause
};

/// The member a row reads and writes; enums are reached through their
/// one-byte storage.
using FieldRef =
    std::variant<bool*, int*, std::uint64_t*, double*, sim::SimTime*,
                 std::optional<sim::SimTime>*, std::uint8_t*, std::vector<sim::FaultClause>*>;

/// The values a field accepts, in its text's unit (ms, Hz). A bound holds
/// whatever the other fields are; conditional and cross-field rules stay in
/// the struct's validate().
struct FieldBounds {
  double lo{-std::numeric_limits<double>::infinity()};
  double hi{std::numeric_limits<double>::infinity()};
  bool lo_open{false};
};
inline constexpr FieldBounds kPositive{.lo = 0.0, .lo_open = true};
constexpr FieldBounds at_least(double lo) { return {.lo = lo}; }

struct FieldRow {
  std::string_view key;
  FieldKind kind;
  FieldBounds bounds{};
  std::string_view help{};
  std::span<const std::string_view> tokens{};
};

template <class T>
struct Field : FieldRow {
  /// Built from a captureless lambda returning a pointer to the member.
  template <class At>
  consteval Field(std::string_view key, FieldKind kind, At, FieldBounds bounds = {},
                  std::string_view help = {}, std::span<const std::string_view> tokens = {})
      : FieldRow{key, kind, bounds, help, tokens},
        at{[](T& object) { return ref(At{}(object)); }} {}

  FieldRef (*at)(T&);

 private:
  template <class M>
  static FieldRef ref(M* member) {
    if constexpr (std::is_enum_v<M>) {
      static_assert(sizeof(M) == 1);
      return reinterpret_cast<std::uint8_t*>(member);
    } else {
      return member;
    }
  }
};

namespace detail {
/// Throws std::invalid_argument naming the key, and stores nothing, on bad
/// text or a value outside the member type's range or the row's bounds.
void parse_field(const FieldRow& row, FieldRef ref, const std::string& value);
/// Appends `key<sep>value<end>`, once per clause for Fault rows.
void format_field(const FieldRow& row, FieldRef ref, std::string& out, std::string_view sep,
                  std::string_view end);
[[nodiscard]] bool field_equal(FieldRef a, FieldRef b);
/// Throws `<owner>: key = value is outside ...` when the member breaks the
/// row's bounds; allocates only then.
void check_field(const FieldRow& row, FieldRef ref, std::string_view owner);
}  // namespace detail

/// One struct's rows and the operations they drive (the accessors only
/// read through the const_casts).
template <class T>
struct FieldTable {
  std::string_view owner;
  std::span<const Field<T>> rows;

  [[nodiscard]] const Field<T>* find(std::string_view key) const {
    for (const auto& row : rows) {
      if (row.key == key) return &row;
    }
    return nullptr;
  }

  void set(T& object, std::string_view key, const std::string& value) const {
    const Field<T>* row = find(key);
    if (!row) {
      throw std::invalid_argument{std::string{owner} + ": unknown key '" + std::string{key} + "'"};
    }
    detail::parse_field(*row, row->at(object), value);
  }

  /// Applies `key = value` lines (for_each_spec_override syntax) in order.
  std::size_t parse(T& object, const std::string& text) const {
    return for_each_spec_override(
        text, [&](const std::string& key, const std::string& value) { set(object, key, value); });
  }

  /// Appends every row or, given a baseline, the rows that differ from it.
  void format(const T& object, std::string& out, std::string_view sep, std::string_view end,
              const T* baseline = nullptr) const {
    for (const auto& row : rows) {
      const FieldRef ref = row.at(const_cast<T&>(object));
      if (!baseline || !detail::field_equal(ref, row.at(const_cast<T&>(*baseline)))) {
        detail::format_field(row, ref, out, sep, end);
      }
    }
  }

  void check(const T& object) const {
    for (const auto& row : rows) detail::check_field(row, row.at(const_cast<T&>(object)), owner);
  }
};

/// The TestbedConfig table behind apply_config_overrides,
/// format_config_overrides, TestbedConfig::validate and the key listing.
[[nodiscard]] const FieldTable<TestbedConfig>& config_fields();

}  // namespace rst::core
