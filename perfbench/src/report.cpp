#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hpp"
#include "metrics_table.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double best_tenth_median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  values.resize((values.size() + 9) / 10);
  return median(std::move(values));
}

std::vector<double> per_unit_best(const std::vector<std::vector<double>>& timings) {
  std::vector<double> out;
  for (const auto& t : timings) {
    if (!t.empty()) out.push_back(best_tenth_median(t));
  }
  return out;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report the
  // launching process's peak when that was larger.
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::size_t n) {
  values_[name] = entries_.size();
  entries_.push_back({name, value, unit, n, true});
}

void Report::layer(const std::string& name, double value) {
  for (const auto& spec : per_layer_metrics()) {
    if (name == spec.name) {
      values_[name] = entries_.size();
      entries_.push_back({name, value, spec.unit, 0, false});
      return;
    }
  }
  throw std::logic_error{"perfbench: unknown per-layer metric " + name};
}

void Report::count(const std::string& name, std::uint64_t value) {
  counts_.emplace_back(name, value);
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  if (!ok) ++checks_failed_;
  check_lines_.push_back("check " + name + (ok ? " ok" : " FAILED") +
                         (detail.empty() ? "" : " (" + detail + ")"));
}

void Report::print(const std::vector<std::string>& json_metrics) const {
  for (const auto& e : entries_) {
    if (e.end_to_end) {
      std::printf("metric %s = %.6g %s (n=%zu)\n", e.name.c_str(), e.value, e.unit.c_str(), e.n);
    } else {
      std::printf("layer %s = %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }
  for (const auto& [name, value] : counts_) {
    std::printf("count %s = %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
  for (const auto& line : check_lines_) std::printf("%s\n", line.c_str());
  const double failed_fraction =
      attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  std::printf("metric failed_fraction = %.6g ratio (n=%llu)\n", failed_fraction,
              static_cast<unsigned long long>(attempted_));

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < json_metrics.size(); ++i) {
    const Entry& e = entries_[values_.at(json_metrics[i])];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    json += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" + e.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
