#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// Other tenants of a small shared host slow the program down by up to 60%,
// in spells from a second to minutes long; they never speed it up. The
// gated timings therefore time the same work unit (a trial seed, a city
// step, a request of the round) many times over a run and keep, per unit,
// the median of its fastest tenth; the plain statistics over every sample
// are printed beside them.

/// Median of the lowest tenth of `values` (at least one value).
[[nodiscard]] double best_tenth_median(std::vector<double> values);
/// best_tenth_median of each unit's repeated timings.
[[nodiscard]] std::vector<double> per_unit_best(const std::vector<std::vector<double>>& timings);

/// Keeps `value` alive against dead-code elimination in microbenchmarks.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median over 5 repetitions of the host nanoseconds per operation, where
/// one call of `pass` performs `ops_per_pass` operations and each
/// repetition runs passes for at least 20 ms.
template <typename Pass>
double ns_per_op(std::size_t ops_per_pass, Pass&& pass) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    std::size_t ops = 0;
    const auto t0 = Clock::now();
    auto t1 = t0;
    do {
      pass();
      ops += ops_per_pass;
      t1 = Clock::now();
    } while (t1 - t0 < std::chrono::milliseconds(20));
    reps.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   static_cast<double>(ops));
  }
  return median(std::move(reps));
}

/// What one invocation was asked to do.
struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string commit{"unknown"};
  std::string out_dir{"."};
  /// Worker threads for the parallel phases: hardware concurrency, capped.
  unsigned threads{1};
};

/// Everything a workload run reports. Metrics keep insertion order in the
/// human-readable block; the JSON line carries the subset BENCHMARK.json
/// names for the mode (end-to-end untraced, per-layer traced).
class Report {
 public:
  /// End-to-end metric, printed with its unit and sample count.
  void metric(const std::string& name, double value, const std::string& unit, std::size_t n);
  /// Per-layer metric (traced mode); the unit comes from per_layer_metrics().
  void layer(const std::string& name, double value);
  /// Deterministic work count: must repeat exactly for the same seed.
  void count(const std::string& name, std::uint64_t value);
  /// One output check. A failing check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = {});

  /// Operations attempted / failed for `failed_fraction`.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }

  [[nodiscard]] bool correct() const { return checks_failed_ == 0 && failed_ == 0; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool has_metric(const std::string& name) const { return values_.count(name) > 0; }

  SpanRecorder spans;

  /// Prints the human-readable block, then the JSON result line with the
  /// metrics listed in `json_metrics` (all of which must have been set).
  void print(const std::vector<std::string>& json_metrics) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t n;
    bool end_to_end;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> values_;
  std::vector<std::pair<std::string, std::uint64_t>> counts_;
  std::vector<std::string> check_lines_;
  std::uint64_t checks_failed_{0};
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

// Workloads. Each runs for `options.seconds`, fills the report, and in
// traced mode also records spans and per-layer metrics.
void run_brake_trials(const Options& options, Report& report);
void run_city_grid(const Options& options, Report& report);
void run_campaign_mix(const Options& options, Report& report);

}  // namespace perfbench
