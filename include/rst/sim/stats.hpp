#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rst::sim {

/// Welford online accumulator for mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const;
  /// Population variance (n denominator) — the paper's Table III reports
  /// variance of 7 samples computed this way (0.0022).
  [[nodiscard]] double population_variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

 private:
  std::size_t n_{0};
  double mean_{0};
  double m2_{0};
  double min_{0};
  double max_{0};
};

/// Empirical distribution function over a stored sample set.
/// Used to regenerate the paper's Fig. 11 (EDF of total delay samples).
class Edf {
 public:
  explicit Edf(std::vector<double> samples);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  /// F(x) = fraction of samples <= x.
  [[nodiscard]] double at(double x) const;
  /// q in [0,1]; nearest-rank quantile.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] const std::vector<double>& sorted_samples() const { return samples_; }
  /// Fraction of samples in [lo, hi].
  [[nodiscard]] double fraction_in(double lo, double hi) const;

  /// Renders the step function as (x, F(x)) pairs, one per distinct sample.
  [[nodiscard]] std::vector<std::pair<double, double>> steps() const;

 private:
  std::vector<double> samples_;  // sorted ascending
};

/// Fixed-width histogram.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  /// ASCII rendering used by bench report output.
  [[nodiscard]] std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_{0};
  std::size_t underflow_{0};
  std::size_t overflow_{0};
};

/// Parametric fits for the future-work latency-CDF modelling (paper §V:
/// "model it with an appropriate distribution so that it can be used by
/// the community"). Moment-matched fits plus a Kolmogorov–Smirnov score.
struct DistributionFit {
  std::string family;  // "normal" | "lognormal" | "gamma" | "shifted-exponential"
  double p1{0};        // mean / mu / shape / shift
  double p2{0};        // stddev / sigma / scale / mean-shift
  double ks_statistic{0};

  /// CDF of the fitted distribution at x.
  [[nodiscard]] double cdf(double x) const;
};

/// Fits all supported families by method of moments and returns them sorted
/// by ascending KS statistic (best first). Requires >= 2 samples.
[[nodiscard]] std::vector<DistributionFit> fit_distributions(const std::vector<double>& samples);

/// Percentile-bootstrap confidence interval for the mean of `samples`.
struct ConfidenceInterval {
  double lower{0};
  double upper{0};
  double point{0};  ///< sample mean
};
[[nodiscard]] ConfidenceInterval bootstrap_mean_ci(const std::vector<double>& samples,
                                                   double confidence = 0.95,
                                                   int resamples = 2000,
                                                   std::uint64_t seed = 1);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double z);
/// Regularized lower incomplete gamma P(a, x) (series/continued fraction).
[[nodiscard]] double gamma_p(double a, double x);

}  // namespace rst::sim
