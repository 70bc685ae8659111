// campaign_mix: a closed loop with one client feeding CAMPAIGN requests to
// server::LineSession::handle_text in-process. Cache hits spend their time
// in the server layer (canonicalization, store reads, record parsing,
// re-aggregation, table rendering); misses push varied configs through the
// simulator and append to the store. Each config is written several
// equivalent ways, so a canonical-form fix shows up as a higher hit ratio.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/server/campaign.hpp"
#include "rst/server/campaign_engine.hpp"
#include "rst/server/protocol.hpp"
#include "rst/server/result_store.hpp"

namespace perfbench {
namespace {

constexpr int kConfigs = 24;
constexpr int kSpellings = 4;
constexpr int kRequestsPerRound = 400;
constexpr int kTrialsPerRequest = 8;
constexpr int kRangeStarts = 4;  // base seeds 1, 5, 9, 13: ranges overlap by half
constexpr double kZipfExponent = 1.2;
constexpr int kMinRounds = 2;

struct Field {
  enum class Kind { Int, Real, Bool, Token };
  std::string key;
  Kind kind;
  double number{0};
  std::string token{};
};

/// The fixed config set: poll period x detection rate x speed, with the
/// second half varying the warning bearer, CPM and a fault plan with the
/// watchdog. Every config carries the two boolean keys, so every config has
/// spellings whose canonical text differs.
std::vector<std::vector<Field>> make_configs() {
  using K = Field::Kind;
  std::vector<std::vector<Field>> configs;
  for (int k = 0; k < kConfigs; ++k) {
    std::vector<Field> f;
    f.push_back({"poll_period_ms", K::Int, static_cast<double>((k % 3 == 0) ? 25 : (k % 3 == 1) ? 50 : 100)});
    f.push_back({"detection_fps", K::Real, (k / 3) % 2 ? 10.0 : 4.0});
    f.push_back({"target_speed_mps", K::Real, (k / 6) % 2 ? 1.2 : 1.0});
    bool cpm = false;
    bool watchdog = false;
    std::string bearer = "its-g5";
    if (k < 12) {
      cpm = k % 2 == 1;
    } else if (k % 4 == 0) {
      bearer = "embb";
    } else if (k % 4 == 1) {
      bearer = "urllc";
    } else if (k % 4 == 2) {
      cpm = true;
    } else {
      watchdog = true;
      f.push_back({"fault", K::Token, 0, "http-loss:lan:0:3000:0.3"});
      f.push_back({"watchdog_timeout_ms", K::Int, 400});
    }
    f.push_back({"warning_bearer", K::Token, 0, bearer});
    f.push_back({"cpm_enable", K::Bool, cpm ? 1.0 : 0.0});
    f.push_back({"watchdog", K::Bool, watchdog ? 1.0 : 0.0});
    configs.push_back(std::move(f));
  }
  return configs;
}

/// One of kSpellings equivalent renderings of a config: key order,
/// comments, whitespace, boolean words (true/on/1) and number forms
/// (50 / 50.0) vary; the parsed config does not.
std::string spell(const std::vector<Field>& fields, int variant) {
  std::vector<Field> order = fields;
  if (variant == 1) std::reverse(order.begin(), order.end());
  if (variant == 2) std::rotate(order.begin(), order.begin() + 1, order.end());
  std::string out = variant % 2 ? "# campaign config\n" : "";
  for (const auto& f : order) {
    char num[32];
    std::string value;
    switch (f.kind) {
      case Field::Kind::Int:
      case Field::Kind::Real:
        std::snprintf(num, sizeof num, variant % 2 ? "%.1f" : "%g", f.number);
        value = num;
        break;
      case Field::Kind::Bool: {
        static const char* kTrue[kSpellings] = {"true", "on", "1", "true"};
        static const char* kFalse[kSpellings] = {"false", "off", "0", "false"};
        value = f.number != 0 ? kTrue[variant] : kFalse[variant];
        break;
      }
      case Field::Kind::Token:
        value = f.token;
        break;
    }
    if (variant == 2) {
      out += f.key + "=" + value + "\n";
    } else if (variant == 3) {
      out += "\t" + f.key + "\t= " + value + "   # " + f.key + "\n";
    } else {
      out += f.key + " = " + value + "\n";
    }
  }
  return out;
}

/// Every spelling of every config; spelling v of config k is at k * kSpellings + v.
std::vector<std::string> spelled_configs() {
  std::vector<std::string> spelled;
  for (const auto& c : make_configs()) {
    for (int v = 0; v < kSpellings; ++v) spelled.push_back(spell(c, v));
  }
  return spelled;
}

struct Request {
  int config{0};
  int spelling{0};
  std::uint64_t base_seed{1};
  std::string text;
};

/// The round's requests: config k appears in proportion to a Zipf weight
/// 1/(k+1)^s, and its i-th request cycles through the spellings and the
/// overlapping trial ranges. The multiset is fixed, so every seed executes
/// the same trials; the seed shuffles the order.
std::vector<Request> make_requests(std::uint64_t seed, const std::vector<std::string>& spelled) {
  std::vector<double> weights;
  for (int k = 0; k < kConfigs; ++k) weights.push_back(1.0 / std::pow(k + 1.0, kZipfExponent));
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<int> counts;
  for (const double w : weights) counts.push_back(static_cast<int>(kRequestsPerRound * w / total));
  counts[0] += kRequestsPerRound - std::accumulate(counts.begin(), counts.end(), 0);

  std::vector<Request> requests;
  for (int k = 0; k < kConfigs; ++k) {
    for (int i = 0; i < counts[k]; ++i) {
      Request q;
      q.config = k;
      q.spelling = i % kSpellings;
      q.base_seed = 1 + static_cast<std::uint64_t>((i / kSpellings) % kRangeStarts) * (kTrialsPerRequest / 2);
      q.text = rst::server::format_campaign_request(
          {spelled[q.config * kSpellings + q.spelling], kTrialsPerRequest, q.base_seed});
      requests.push_back(std::move(q));
    }
  }
  std::mt19937_64 rng{seed};
  std::shuffle(requests.begin(), requests.end(), rng);
  return requests;
}

struct Response {
  bool ok{false};
  std::string artifact;  // lines between OK and ENDARTIFACT
  std::vector<std::string> trial_records;
  std::uint64_t hits{0};
  std::uint64_t executed{0};
};

Response parse_response(const std::string& text) {
  Response r;
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const auto nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos));
    if (nl == std::string::npos) break;
    pos = nl + 1;
  }
  if (lines.size() < 4 || lines.front().rfind("OK id=", 0) != 0 || lines.back() != "DONE") return r;
  const std::string& stats = lines[lines.size() - 2];
  unsigned long long hits = 0, misses = 0, executed = 0;
  if (lines[lines.size() - 3] != "ENDARTIFACT" ||
      std::sscanf(stats.c_str(), "STATS hits=%llu misses=%llu executed=%llu", &hits, &misses,
                  &executed) != 3) {
    return r;
  }
  for (std::size_t i = 1; i + 3 < lines.size(); ++i) {
    r.artifact += lines[i];
    r.artifact += '\n';
    if (lines[i].rfind("TRIAL ", 0) == 0) {
      const auto sp = lines[i].find(' ', 6);
      if (sp != std::string::npos) r.trial_records.push_back(lines[i].substr(sp + 1));
    }
  }
  r.hits = hits;
  r.executed = executed;
  r.ok = r.trial_records.size() == kTrialsPerRequest;
  return r;
}

struct RoundResult {
  double setup_s{0};
  std::vector<double> latency_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  double busy_s{0};
  std::uint64_t hits{0};
  std::uint64_t hit_requests{0};
  std::uint64_t requested{0};
  std::uint64_t executed{0};
  std::uint64_t store_bytes{0};
  std::uint64_t store_records{0};
  double replay_ms{0};
  bool replay_ok{false};
};

/// Cross-request output checks: every artifact for a (config, base seed)
/// and every TRIAL record for a (config, trial seed) must be byte-identical
/// however the config was spelled and whether it was served cold or cached.
class Oracle {
 public:
  bool accept(const Request& q, const Response& r) {
    bool ok = remember(artifacts_, key(q.config, q.base_seed), r.artifact);
    for (std::size_t i = 0; i < r.trial_records.size(); ++i) {
      ok = remember(records_, key(q.config, q.base_seed + i), r.trial_records[i]) && ok;
    }
    return ok;
  }
  [[nodiscard]] std::vector<std::string> records() const {
    std::vector<std::string> out;
    for (const auto& [k, v] : records_) out.push_back(v);
    return out;
  }

 private:
  static std::uint64_t key(int config, std::uint64_t seed) {
    return (static_cast<std::uint64_t>(config) << 32) | seed;
  }
  static bool remember(std::map<std::uint64_t, std::string>& seen, std::uint64_t k,
                       const std::string& v) {
    const auto [it, inserted] = seen.emplace(k, v);
    return inserted || it->second == v;
  }
  std::map<std::uint64_t, std::string> artifacts_;
  std::map<std::uint64_t, std::string> records_;
};

RoundResult run_round(const Options& options, unsigned threads, std::uint64_t round,
                      Oracle& oracle, Report& report, SpanRecorder* spans) {
  RoundResult out;
  const std::string store_path = options.out_dir + "/campaign-" + std::to_string(::getpid()) +
                                 "-" + std::to_string(round) + "-t" + std::to_string(threads) +
                                 ".seg";
  std::filesystem::remove(store_path);

  const auto s0 = Clock::now();
  const auto requests = make_requests(options.seed, spelled_configs());
  rst::server::CampaignEngineConfig engine_config;
  engine_config.threads = threads;
  engine_config.store_path = store_path;
  auto engine = std::make_unique<rst::server::CampaignEngine>(engine_config);
  rst::server::LineSession session{*engine};
  const auto s1 = Clock::now();
  out.setup_s = seconds_between(s0, s1);

  const std::uint32_t root =
      spans ? spans->begin("campaign.round", SpanRecorder::kNoParent, round)
            : SpanRecorder::kNoParent;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& q = requests[i];
    const auto t0 = Clock::now();
    const std::string text = session.handle_text(q.text);
    const auto t1 = Clock::now();
    if (spans) spans->add("server.handle_text", root, round * kRequestsPerRound + i, t0, t1);
    const double ms = ms_between(t0, t1);
    const Response r = parse_response(text);
    report.attempt();
    if (!r.ok || !oracle.accept(q, r)) report.fail();
    out.latency_ms.push_back(ms);
    (r.executed == 0 ? out.hit_ms : out.miss_ms).push_back(ms);
    out.busy_s += seconds_between(t0, t1);
    out.hits += r.hits;
    if (r.executed == 0) ++out.hit_requests;
    out.requested += kTrialsPerRequest;
    out.executed += r.executed;
  }
  if (spans) spans->end(root);
  out.store_bytes = engine->store().appended_bytes();
  out.store_records = engine->store().count();
  engine.reset();

  const auto r0 = Clock::now();
  {
    rst::server::ResultStore reopened{store_path};
    out.replay_ok = reopened.count() == out.store_records;
  }
  const auto r1 = Clock::now();
  if (spans) spans->add("server.store_replay", SpanRecorder::kNoParent, round, r0, r1);
  out.replay_ms = ms_between(r0, r1);
  std::filesystem::remove(store_path);
  return out;
}

/// The untraced or the traced rounds of one run.
struct Phase {
  std::vector<std::vector<double>> request_timings =
      std::vector<std::vector<double>>(kRequestsPerRound);
  std::vector<double> latency_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> setup_s;
  std::vector<double> replay_ms;
  double busy_s{0};
  std::size_t rounds{0};

  void add(const RoundResult& r) {
    for (std::size_t i = 0; i < r.latency_ms.size(); ++i) request_timings[i].push_back(r.latency_ms[i]);
    latency_ms.insert(latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    hit_ms.insert(hit_ms.end(), r.hit_ms.begin(), r.hit_ms.end());
    miss_ms.insert(miss_ms.end(), r.miss_ms.begin(), r.miss_ms.end());
    setup_s.push_back(r.setup_s);
    replay_ms.push_back(r.replay_ms);
    busy_s += r.busy_s;
    ++rounds;
  }
};

bool same_work(const RoundResult& a, const RoundResult& b) {
  return a.hits == b.hits && a.executed == b.executed && a.store_bytes == b.store_bytes &&
         a.store_records == b.store_records;
}

}  // namespace

void run_campaign_mix(const Options& options, Report& report) {
  // In traced mode every other round records spans, so drift in machine
  // speed hits traced and untraced rounds alike.
  const std::size_t kinds = options.trace ? 2 : 1;
  Oracle oracle;
  Phase untraced;
  Phase traced;
  RoundResult first;
  bool counts_equal = true;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMinRounds * kinds || seconds_between(start, Clock::now()) < options.seconds;
       ++i) {
    const bool with_spans = i % kinds == 1;
    const RoundResult r = run_round(options, options.threads, i, oracle, report,
                                    with_spans ? &report.spans : nullptr);
    if (!r.replay_ok) report.fail();
    if (i == 0) first = r;
    if (!same_work(r, first)) counts_equal = false;
    (with_spans ? traced : untraced).add(r);
  }

  // The same round on a single engine worker must do the same work.
  const RoundResult one = run_round(options, 1, 0, oracle, report, nullptr);
  report.check("campaign.counts_equal_across_rounds", counts_equal,
               std::to_string(untraced.rounds + traced.rounds) + " rounds");
  report.check("campaign.counts_equal_at_1_and_" + std::to_string(options.threads) + "_threads",
               same_work(one, first));
  report.check("campaign.artifacts_and_trial_lines_identical", report.failed() == 0);

  const double p50 = quantile(untraced.latency_ms, 0.5);
  const double p99 = quantile(untraced.latency_ms, 0.99);
  const double rate = static_cast<double>(untraced.latency_ms.size()) / untraced.busy_s;
  report.metric("campaign_ms_p50", p50, "ms", untraced.latency_ms.size());
  report.metric("campaign_ms_p99", p99, "ms", untraced.latency_ms.size());
  report.metric("campaign_requests_per_s", rate, "1/s", untraced.latency_ms.size());
  const auto request_best = per_unit_best(untraced.request_timings);
  report.metric("latency_ms_p50", median(request_best), "ms", untraced.latency_ms.size());
  report.metric("throughput_per_s",
                1000.0 * static_cast<double>(request_best.size()) /
                    std::accumulate(request_best.begin(), request_best.end(), 0.0),
                "1/s", untraced.latency_ms.size());
  report.metric("setup_s", best_tenth_median(untraced.setup_s), "s", untraced.setup_s.size());

  report.count("campaign.requests_per_round", kRequestsPerRound);
  report.count("campaign.hit_requests", first.hit_requests);
  report.count("campaign.trials_requested", first.requested);
  report.count("campaign.trials_from_store", first.hits);
  report.count("campaign.trials_executed", first.executed);
  report.count("campaign.store_bytes", first.store_bytes);
  report.count("campaign.store_records", first.store_records);

  if (!options.trace) return;

  // Unit costs on the workload's own inputs.
  const auto spelled = spelled_configs();
  const double canonicalize_ns = ns_per_op(spelled.size(), [&] {
    for (const auto& s : spelled) keep(rst::core::canonicalize_spec(s));
  });
  const auto records = oracle.records();
  const double parse_ns = ns_per_op(records.size(), [&] {
    for (const auto& r : records) keep(rst::server::parse_trial_record(r));
  });
  std::vector<rst::core::TrialResult> campaign;
  for (std::size_t i = 0; i < kTrialsPerRequest && i < records.size(); ++i) {
    campaign.push_back(rst::server::parse_trial_record(records[i]).result);
  }
  const double aggregate_ns = ns_per_op(1, [&] {
    const auto summary = rst::core::aggregate_experiment_summary(campaign);
    keep(rst::core::format_table2(summary, kTrialsPerRequest));
    keep(rst::core::format_table3(summary, kTrialsPerRequest));
  });

  const double traced_p50 = quantile(traced.latency_ms, 0.5);
  report.layer("server.cache_hit_ratio",
               static_cast<double>(first.hits) / static_cast<double>(first.requested));
  report.layer("server.hit_ms_p50", median(traced.hit_ms));
  report.layer("server.miss_ms_p50", median(traced.miss_ms));
  report.layer("server.canonicalize_us", canonicalize_ns / 1000.0);
  report.layer("server.record_parse_ns", parse_ns);
  report.layer("server.aggregate_us", aggregate_ns / 1000.0);
  report.layer("server.trials_executed", static_cast<double>(first.executed));
  report.layer("server.store_bytes", static_cast<double>(first.store_bytes));
  report.layer("server.store_replay_ms", median(traced.replay_ms));
  report.layer("trace.overhead_ms_p50", traced_p50 - p50);
  report.layer("trace.overhead_share", (traced_p50 - p50) / p50);
}

}  // namespace perfbench
