#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "rst/server/campaign.hpp"
#include "rst/server/result_store.hpp"
#include "rst/sim/metrics.hpp"
#include "rst/sim/trace.hpp"
#include "rst/sim/trial_pool.hpp"

namespace rst::server {

/// Engine configuration. `threads` follows the experiment convention
/// (0 = hardware concurrency, 1 = serial); the worker fleet is built once
/// at engine construction and reused across campaigns.
struct CampaignEngineConfig {
  unsigned threads{1};
  /// Result-store segment path; empty keeps the store in memory only.
  std::string store_path{};
  /// Upper bound on trials per campaign (spec-abuse guard).
  int max_trials{100'000};
};

/// Outcome of one campaign run. `artifact` is the deterministic response
/// body — one `TRIAL <i> <record>` line per trial in seed order followed by
/// the Table II/III renderings — and is byte-identical across worker
/// counts and across cold-run vs cache-hit paths (cache hits replay the
/// stored record bytes verbatim; tables are re-aggregated from parsed
/// records through the same seed-ordered pass either way).
struct CampaignOutcome {
  enum class Status : std::uint8_t { Ok, Error };
  Status status{Status::Ok};
  std::string error{};         ///< parse/validation diagnostic when Error
  std::uint64_t id{0};         ///< campaign_id(canonical spec, trials, seed)
  std::string canonical_spec{};
  std::string artifact{};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t executed{0};   ///< trials actually simulated by this run
};

/// Long-running campaign server core: canonicalizes specs, content-
/// addresses every (spec, seed) trial into the ResultStore, schedules the
/// misses across a TrialPool worker fleet, and streams results + summaries
/// incrementally in seed order. All public entry points run on the caller's
/// thread: transports serve one request at a time, with no queue, and only
/// the trial fan-out is parallel.
class CampaignEngine {
 public:
  using LineSink = std::function<void(const std::string& line)>;

  explicit CampaignEngine(CampaignEngineConfig config = {});

  /// Validates `request`, then runs it. A spec that fails to parse or
  /// validate returns Status::Error without running; a valid campaign is
  /// counted and traced as admitted. Artifact lines stream through `sink` as
  /// trials complete — a trial's line is emitted as soon as it and every
  /// earlier trial are resolved, so the stream is identical at any worker
  /// count.
  CampaignOutcome execute(const CampaignRequest& request, const LineSink& sink = {});

  /// Compacts the result store and traces the pass. Returns bytes reclaimed.
  std::uint64_t compact_store();

  [[nodiscard]] std::uint64_t trials_executed() const { return trials_executed_; }
  [[nodiscard]] ResultStore& store() { return store_; }
  [[nodiscard]] sim::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] const CampaignEngineConfig& config() const { return config_; }

 private:
  /// Engine-lifetime logical clock for trace records (the engine has no
  /// simulation time; a monotone tick keeps the trace order meaningful).
  sim::SimTime tick() { return sim::SimTime::nanoseconds(static_cast<std::int64_t>(ticks_++)); }

  CampaignEngineConfig config_;
  ResultStore store_;
  std::unique_ptr<sim::TrialPool> pool_;  ///< null when resolved threads == 1
  sim::MetricsRegistry metrics_;
  sim::Trace trace_;
  std::uint64_t trials_executed_{0};
  std::uint64_t ticks_{0};
};

}  // namespace rst::server
