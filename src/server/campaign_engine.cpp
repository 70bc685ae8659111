#include "rst/server/campaign_engine.hpp"

#include <mutex>
#include <stdexcept>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"

namespace rst::server {

using sim::Stage;

CampaignEngine::CampaignEngine(CampaignEngineConfig config)
    : config_{config}, store_{config.store_path} {
  const unsigned resolved = core::resolve_experiment_threads(config_.threads);
  if (resolved > 1) pool_ = std::make_unique<sim::TrialPool>(resolved);
  // The engine trace is a long-running server log, not a per-trial ring;
  // give it room for a deep campaign history before drop-new kicks in.
  trace_.set_event_capacity(1 << 16);
}

namespace {

/// Validation shared by submit-time rejection messages and run_campaign:
/// the spec parsed within its rows' bounds and validated, and its canonical
/// text.
struct Validated {
  bool ok{false};
  std::string error{};
  std::string canonical{};
  core::TestbedConfig config{};
};

/// Best-effort id for admission-time traces: the canonical campaign id when
/// the spec canonicalizes (matching CampaignOutcome::id), else the id of the
/// raw spec bytes — still stable per submission, so the trace stays joinable.
std::uint64_t submission_id(const CampaignRequest& request) {
  std::string spec = request.spec;
  try {
    spec = core::canonicalize_spec(request.spec);
  } catch (const std::exception&) {
  }
  return campaign_id(spec, request.trials, request.base_seed);
}

Validated validate_request(const CampaignRequest& request, int max_trials) {
  Validated v;
  try {
    v.canonical = core::canonicalize_spec(request.spec, &v.config);
    v.config.validate();
    if (request.trials < 1) throw std::invalid_argument{"campaign: trials must be >= 1"};
    if (request.trials > max_trials) {
      throw std::invalid_argument{"campaign: trials exceeds max_trials"};
    }
    v.ok = true;
  } catch (const std::exception& e) {
    v.error = e.what();
  }
  return v;
}

}  // namespace

CampaignEngine::Admission CampaignEngine::submit(CampaignRequest request) {
  metrics_.histogram("campaign.queue_depth").observe(static_cast<double>(queue_.size()));
  if (queue_.size() >= config_.queue_capacity) {
    if (config_.overflow == CampaignEngineConfig::OverflowPolicy::Reject) {
      metrics_.counter("campaigns_rejected").add();
      trace_.record_event(tick(), Stage::CampaignRejected, 0, submission_id(request),
                          static_cast<double>(queue_.size()), sim::kCampaignRejectedQueueFull);
      return Admission::Rejected;
    }
    shed_oldest();
  }
  const std::uint64_t id = submission_id(request);
  queue_.push_back(std::move(request));
  metrics_.counter("campaigns_admitted").add();
  trace_.record_event(tick(), Stage::CampaignAdmitted, 0, id,
                      static_cast<double>(queue_.size()));
  return Admission::Admitted;
}

void CampaignEngine::shed_oldest() {
  // Drop-oldest: the new submission is admitted, the stalest queued
  // campaign is shed (it was enqueued longest ago and is the most likely
  // to have a departed client).
  metrics_.counter("campaigns_shed").add();
  trace_.record_event(tick(), Stage::CampaignRejected, 0, submission_id(queue_.front()),
                      static_cast<double>(queue_.size()), sim::kCampaignRejectedDropOldest);
  queue_.pop_front();
}

std::optional<CampaignOutcome> CampaignEngine::run_one(const LineSink& sink) {
  if (queue_.empty()) return std::nullopt;
  CampaignRequest request = std::move(queue_.front());
  queue_.pop_front();
  return run_campaign(request, sink);
}

CampaignOutcome CampaignEngine::execute(CampaignRequest request, const LineSink& sink) {
  // The synchronous transport path: admission against the queued backlog
  // (a direct execute does not jump a full queue), then run inline. The
  // configured overflow policy applies exactly as in submit(): under
  // DropOldest a full queue sheds its stalest campaign to admit this one.
  metrics_.histogram("campaign.queue_depth").observe(static_cast<double>(queue_.size()));
  if (queue_.size() >= config_.queue_capacity) {
    if (config_.overflow == CampaignEngineConfig::OverflowPolicy::Reject) {
      metrics_.counter("campaigns_rejected").add();
      trace_.record_event(tick(), Stage::CampaignRejected, 0, submission_id(request),
                          static_cast<double>(queue_.size()), sim::kCampaignRejectedQueueFull);
      CampaignOutcome out;
      out.status = CampaignOutcome::Status::Rejected;
      out.error = "overloaded";
      return out;
    }
    shed_oldest();
  }
  metrics_.counter("campaigns_admitted").add();
  trace_.record_event(tick(), Stage::CampaignAdmitted, 0, submission_id(request),
                      static_cast<double>(queue_.size()));
  return run_campaign(request, sink);
}

CampaignOutcome CampaignEngine::run_campaign(const CampaignRequest& request,
                                             const LineSink& sink) {
  CampaignOutcome out;
  const Validated v = validate_request(request, config_.max_trials);
  if (!v.ok) {
    out.status = CampaignOutcome::Status::Error;
    out.error = v.error;
    return out;
  }
  out.canonical_spec = v.canonical;
  out.id = campaign_id(v.canonical, request.trials, request.base_seed);

  const std::size_t n = static_cast<std::size_t>(request.trials);
  std::vector<std::uint64_t> keys(n);
  std::vector<std::string> records(n);
  std::vector<char> done(n, 0);
  std::vector<char> fresh(n, 0);
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = trial_key(v.canonical, request.base_seed + i);
    if (const std::string* stored = store_.get(keys[i])) {
      records[i] = *stored;
      done[i] = 1;
      ++out.cache_hits;
    } else {
      misses.push_back(i);
    }
  }
  out.cache_misses = misses.size();
  out.executed = misses.size();

  // Incremental seed-ordered streaming: trial i's line goes out as soon as
  // it and every earlier trial are resolved, so the stream (and the store
  // append order for fresh records) is identical at any worker count.
  std::mutex mu;
  std::size_t next_emit = 0;
  const auto emit = [&](const std::string& line) {
    out.artifact += line;
    out.artifact += '\n';
    if (sink) sink(line);
  };
  const auto flush_ready = [&] {
    while (next_emit < n && done[next_emit]) {
      if (fresh[next_emit]) store_.put(keys[next_emit], records[next_emit]);
      emit("TRIAL " + std::to_string(next_emit) + " " + records[next_emit]);
      ++next_emit;
    }
  };
  flush_ready();  // leading cache hits stream immediately

  if (!misses.empty()) {
    const auto run_miss = [&](std::size_t j) {
      const std::size_t i = misses[j];
      core::TestbedConfig config = v.config;
      config.seed = request.base_seed + static_cast<std::uint64_t>(i);
      core::TestbedScenario scenario{config};
      std::string record = serialize_trial_record(config.seed, scenario.run_emergency_brake_trial());
      const std::lock_guard<std::mutex> lock{mu};
      records[i] = std::move(record);
      done[i] = 1;
      fresh[i] = 1;
      flush_ready();
    };
    if (pool_ && misses.size() > 1) {
      pool_->run_indexed(misses.size(), run_miss);
    } else {
      for (std::size_t j = 0; j < misses.size(); ++j) run_miss(j);
    }
  }
  flush_ready();  // everything is done; drain any tail

  // Accounting in seed order (never completion order): counters, the
  // trial-resolution trace, and the per-trial latency histogram all come
  // from the ordered pass so engine observability is worker-count-invariant.
  trials_executed_ += misses.size();
  metrics_.counter("trials_executed").add(misses.size());
  auto& hits_counter = metrics_.counter("cache_hits");
  auto& misses_counter = metrics_.counter("cache_misses");
  auto& trial_latency = metrics_.histogram("campaign.trial_total_ms");
  std::vector<core::TrialResult> trials(n);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const bool hit = !fresh[i];
      (hit ? hits_counter : misses_counter).add();
      trace_.record_event(tick(), Stage::CampaignTrial, 0, keys[i], 0.0,
                          hit ? sim::kCampaignTrialHit : sim::kCampaignTrialMiss);
      // Both paths decode the stored record bytes — one code path, so a
      // cache-hit summary cannot diverge from the cold run's.
      trials[i] = parse_trial_record(records[i]).result;
      trial_latency.observe(trials[i].meas_total_ms);
    }
  } catch (const std::exception& e) {
    out.status = CampaignOutcome::Status::Error;
    out.error = e.what();
    return out;
  }
  const auto summary = core::aggregate_experiment_summary(std::move(trials));
  const auto emit_block = [&](const std::string& text) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      const auto nl = text.find('\n', pos);
      emit(text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos));
      if (nl == std::string::npos) break;
      pos = nl + 1;
    }
  };
  emit_block(core::format_table2(summary, request.trials));
  emit_block(core::format_table3(summary, request.trials));
  return out;
}

std::uint64_t CampaignEngine::compact_store() {
  const std::uint64_t reclaimed = store_.compact();
  metrics_.counter("store_compactions").add();
  trace_.record_event(tick(), Stage::StoreCompaction, 0, store_.count(),
                      static_cast<double>(reclaimed));
  return reclaimed;
}

}  // namespace rst::server
