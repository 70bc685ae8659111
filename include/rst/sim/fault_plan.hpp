#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"
#include "rst/sim/trace.hpp"

namespace rst::sim {

/// The named fault classes the testbed's injection points understand. Each
/// maps to one subsystem hook (see the component `set_fault_injector`
/// setters); `severity` is interpreted per kind:
///  * RadioBlackout      — total 802.11p outage (severity ignored)
///  * RadioAttenuation   — extra path attenuation in dB
///  * CameraFreeze       — camera replays its last pre-window frame
///  * CameraDrop         — probability a captured frame comes back empty
///  * YoloMiss           — probability a visible object goes undetected
///  * YoloMisclassify    — probability a detection's label is corrupted
///  * YoloConfidence     — confidence collapse fraction (conf *= 1-severity)
///  * HttpLoss           — LAN request loss probability
///  * HttpStall          — extra server-side stall in milliseconds
///  * GnssDrift          — position bias ramp rate in m/s
///  * NodeDown           — host crash: every request to the target hostname
///                         is lost (severity ignored); the window's end is
///                         the restart
enum class FaultKind : std::uint8_t {
  RadioBlackout,
  RadioAttenuation,
  CameraFreeze,
  CameraDrop,
  YoloMiss,
  YoloMisclassify,
  YoloConfidence,
  HttpLoss,
  HttpStall,
  GnssDrift,
  NodeDown,
};
inline constexpr std::size_t kFaultKindCount = 11;

/// Stable kebab-case name of a fault kind (the plan-file token).
[[nodiscard]] std::string_view fault_kind_name(FaultKind kind);
/// Inverse of fault_kind_name; nullopt for an unknown token.
[[nodiscard]] std::optional<FaultKind> fault_kind_from_name(std::string_view name);

/// One time-windowed fault: `kind` applies to injection points whose target
/// matches `target` ("" or "*" = all targets of that kind) over [start, end).
/// Overlapping clauses of the same kind compose worst-of (max severity).
struct FaultClause {
  FaultKind kind{FaultKind::RadioBlackout};
  std::string target{};
  SimTime start{};
  SimTime end{};
  double severity{1.0};

  [[nodiscard]] bool operator==(const FaultClause&) const = default;
};

/// A deterministic chaos schedule: the full description of every fault a
/// run will experience. Together with the root seed it bit-reproduces a
/// degraded run — the injector's draws come from named child RNG streams,
/// never from the components' own streams (except HttpLoss, which draws
/// from the LAN's stream).
struct FaultPlan {
  std::vector<FaultClause> clauses;

  [[nodiscard]] bool empty() const { return clauses.empty(); }
  [[nodiscard]] bool operator==(const FaultPlan&) const = default;
};

/// Parses one plan-file clause `kind:target:start_ms:end_ms:severity`
/// (target may be empty or "*"). Throws std::invalid_argument on malformed
/// input, including a severity its kind cannot take: a non-finite value, a
/// probability outside [0, 1] (camera-drop, yolo-*, http-loss), a negative
/// radio-attenuation, gnss-drift or http-stall, or a stall past
/// SimTime::kMaxMilliseconds. The textual times are milliseconds; values
/// written by format_fault_clause round-trip exactly.
[[nodiscard]] FaultClause parse_fault_clause(const std::string& text);
/// Inverse of parse_fault_clause (exact round trip for sub-day windows).
[[nodiscard]] std::string format_fault_clause(const FaultClause& clause);

/// Evaluates a FaultPlan against simulation time for the components'
/// injection points. Constructed only when a plan is installed, so the
/// default (no-plan) path costs a null-pointer check per hook and nothing
/// else — no extra RNG draws, no scheduler events, bit-identical output.
///
/// Every clause boundary emits a typed trace span (Stage::FaultWindow,
/// a = clause index, value = severity, detail = kind) so degraded runs are
/// minable with the same tooling as the nominal pipeline.
class FaultInjector {
 public:
  /// Attenuation a RadioBlackout clause applies: far below any receiver
  /// sensitivity, so the medium drops every frame in the window.
  static constexpr double kRadioBlackoutDb = 400.0;

  FaultInjector(Scheduler& sched, RandomStream rng, FaultPlan plan, Trace* trace = nullptr);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// True when any clause of `kind` matching `target` covers the current
  /// simulation time (windows are [start, end)).
  [[nodiscard]] bool active(FaultKind kind, std::string_view target) const;
  /// Worst-of (max) severity over the active matching clauses; 0 when none.
  [[nodiscard]] double severity(FaultKind kind, std::string_view target) const;
  /// Combined radio impairment in dB: a blackout dominates any attenuation.
  [[nodiscard]] double radio_attenuation_db(std::string_view target) const;

  /// The named child stream a fault kind draws from. Draw order within one
  /// stream is the component's hook-call order, which is itself a
  /// deterministic function of (seed, plan) — so chaos runs bit-reproduce.
  [[nodiscard]] RandomStream& stream(FaultKind kind) { return streams_[index(kind)]; }
  /// Convenience: probability draw from the kind's stream.
  [[nodiscard]] bool draw_bernoulli(FaultKind kind, double p) {
    return stream(kind).bernoulli(p);
  }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  struct Stats {
    std::uint64_t activations{0};  ///< clause windows opened
    std::uint64_t recoveries{0};   ///< clause windows closed
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] static std::size_t index(FaultKind kind) {
    return static_cast<std::size_t>(kind);
  }
  [[nodiscard]] static bool matches(const FaultClause& clause, FaultKind kind,
                                    std::string_view target);

  Scheduler& sched_;
  FaultPlan plan_;
  Trace* trace_;
  std::vector<RandomStream> streams_;  // one per FaultKind, by enum value
  Stats stats_;
};

}  // namespace rst::sim
