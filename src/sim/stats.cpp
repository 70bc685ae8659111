#include "rst/sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <stdexcept>

namespace rst::sim {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::population_variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Edf::Edf(std::vector<double> samples) : samples_{std::move(samples)} {
  std::sort(samples_.begin(), samples_.end());
}

double Edf::at(double x) const {
  if (samples_.empty()) return 0.0;
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double Edf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error{"Edf::quantile on empty sample set"};
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples_.size())));
  return samples_[rank == 0 ? 0 : rank - 1];
}

double Edf::fraction_in(double lo, double hi) const {
  if (samples_.empty()) return 0.0;
  const auto a = std::lower_bound(samples_.begin(), samples_.end(), lo);
  const auto b = std::upper_bound(samples_.begin(), samples_.end(), hi);
  return static_cast<double>(b - a) / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Edf::steps() const {
  std::vector<std::pair<double, double>> out;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i + 1 < samples_.size() && samples_[i + 1] == samples_[i]) continue;
    out.emplace_back(samples_[i], static_cast<double>(i + 1) / static_cast<double>(samples_.size()));
  }
  return out;
}

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_{lo}, hi_{hi}, counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) throw std::invalid_argument{"Histogram: bad range/bins"};
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto i = static_cast<std::size_t>((x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size()));
  ++counts_[std::min(i, counts_.size() - 1)];
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

std::string Histogram::render(std::size_t width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = counts_[i] * width / peak;
    std::snprintf(line, sizeof line, "[%8.2f,%8.2f) %6zu |", bin_lo(i), bin_hi(i), counts_[i]);
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& samples, double confidence,
                                     int resamples, std::uint64_t seed) {
  if (samples.size() < 2) throw std::invalid_argument{"bootstrap_mean_ci: need >= 2 samples"};
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument{"bootstrap_mean_ci: confidence must be in (0, 1)"};
  }
  std::mt19937_64 engine{seed};
  std::uniform_int_distribution<std::size_t> pick{0, samples.size() - 1};

  double sum = 0;
  for (double x : samples) sum += x;
  const auto n = static_cast<double>(samples.size());

  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  for (int r = 0; r < resamples; ++r) {
    double s = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) s += samples[pick(engine)];
    means.push_back(s / n);
  }
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - confidence) / 2.0;
  const auto lo = static_cast<std::size_t>(alpha * (means.size() - 1));
  const auto hi = static_cast<std::size_t>((1.0 - alpha) * (means.size() - 1));
  return {means[lo], means[hi], sum / n};
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double gamma_p(double a, double x) {
  if (x <= 0 || a <= 0) return 0.0;
  if (x < a + 1.0) {
    // Series expansion.
    double sum = 1.0 / a;
    double term = sum;
    for (int n = 1; n < 500; ++n) {
      term *= x / (a + n);
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
  }
  // Continued fraction for Q(a, x), Lentz's method.
  double b = x + 1.0 - a;
  double c = 1e300;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < 1e-300) d = 1e-300;
    c = b + an / c;
    if (std::abs(c) < 1e-300) c = 1e-300;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
  return 1.0 - q;
}

double DistributionFit::cdf(double x) const {
  if (family == "normal") {
    return p2 > 0 ? normal_cdf((x - p1) / p2) : (x >= p1 ? 1.0 : 0.0);
  }
  if (family == "lognormal") {
    if (x <= 0) return 0.0;
    return p2 > 0 ? normal_cdf((std::log(x) - p1) / p2) : (std::log(x) >= p1 ? 1.0 : 0.0);
  }
  if (family == "gamma") {
    return x <= 0 ? 0.0 : gamma_p(p1, x / p2);
  }
  if (family == "shifted-exponential") {
    return x <= p1 ? 0.0 : 1.0 - std::exp(-(x - p1) / p2);
  }
  throw std::logic_error{"DistributionFit::cdf: unknown family " + family};
}

namespace {
double ks_stat(const std::vector<double>& sorted, const DistributionFit& fit) {
  const auto n = static_cast<double>(sorted.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = fit.cdf(sorted[i]);
    worst = std::max(worst, std::abs(f - static_cast<double>(i) / n));
    worst = std::max(worst, std::abs(static_cast<double>(i + 1) / n - f));
  }
  return worst;
}
}  // namespace

std::vector<DistributionFit> fit_distributions(const std::vector<double>& samples) {
  if (samples.size() < 2) throw std::invalid_argument{"fit_distributions: need >= 2 samples"};
  RunningStats s;
  for (double x : samples) s.add(x);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  std::vector<DistributionFit> fits;
  fits.push_back({.family = "normal", .p1 = s.mean(), .p2 = s.stddev(), .ks_statistic = 0});

  if (sorted.front() > 0) {
    RunningStats logs;
    for (double x : samples) logs.add(std::log(x));
    fits.push_back({.family = "lognormal", .p1 = logs.mean(), .p2 = logs.stddev(), .ks_statistic = 0});
    if (s.variance() > 0) {
      const double shape = s.mean() * s.mean() / s.variance();
      const double scale = s.variance() / s.mean();
      fits.push_back({.family = "gamma", .p1 = shape, .p2 = scale, .ks_statistic = 0});
    }
  }
  // Shift just below the minimum so the min sample has non-zero density.
  const double shift = sorted.front() - (s.mean() - sorted.front()) / static_cast<double>(sorted.size());
  const double rate_mean = s.mean() - shift;
  if (rate_mean > 0) {
    fits.push_back({.family = "shifted-exponential", .p1 = shift, .p2 = rate_mean, .ks_statistic = 0});
  }

  for (auto& f : fits) f.ks_statistic = ks_stat(sorted, f);
  std::sort(fits.begin(), fits.end(),
            [](const DistributionFit& a, const DistributionFit& b) { return a.ks_statistic < b.ks_statistic; });
  return fits;
}

}  // namespace rst::sim
