#include "rst/sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "rst/sim/random.hpp"

namespace rst::sim {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.population_variance(), 4.0, 1e-12);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, PaperTable3VarianceConvention) {
  // The paper reports braking distances with variance 0.0022 over 7 runs —
  // the population (1/n) convention reproduces that from its samples.
  RunningStats s;
  for (double x : {0.43, 0.37, 0.31, 0.42, 0.31, 0.36, 0.36}) s.add(x);
  EXPECT_NEAR(s.mean(), 0.3657, 5e-4);
  EXPECT_NEAR(s.population_variance(), 0.0019, 5e-4);
}

TEST(Edf, StepValuesAndQuantiles) {
  Edf edf{{44, 44, 50, 55, 70, 70, 71, 71, 71, 55}};
  EXPECT_EQ(edf.count(), 10u);
  EXPECT_DOUBLE_EQ(edf.at(43.9), 0.0);
  EXPECT_DOUBLE_EQ(edf.at(44.0), 0.2);
  EXPECT_DOUBLE_EQ(edf.at(55.0), 0.5);
  EXPECT_DOUBLE_EQ(edf.at(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(edf.quantile(0.5), 55.0);
  EXPECT_DOUBLE_EQ(edf.quantile(1.0), 71.0);
  EXPECT_DOUBLE_EQ(edf.quantile(0.0), 44.0);
}

TEST(Edf, FractionInReproducesPaperFig11Statement) {
  // Paper Fig. 11: "60% of the samples occur between 44 and 55 ms, whereas
  // the remaining 40% occur between 70 and 71 ms" (samples of Table II).
  Edf edf{{71, 70, 52, 44, 55}};
  EXPECT_DOUBLE_EQ(edf.fraction_in(44, 55), 0.6);
  EXPECT_DOUBLE_EQ(edf.fraction_in(70, 71), 0.4);
}

TEST(Edf, StepsAreMonotone) {
  Edf edf{{3, 1, 2, 2, 5}};
  const auto steps = edf.steps();
  ASSERT_FALSE(steps.empty());
  for (std::size_t i = 1; i < steps.size(); ++i) {
    EXPECT_GT(steps[i].first, steps[i - 1].first);
    EXPECT_GT(steps[i].second, steps[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(steps.back().second, 1.0);
}

TEST(Edf, QuantileOnEmptyThrows) {
  Edf edf{{}};
  EXPECT_THROW((void)edf.quantile(0.5), std::logic_error);
  EXPECT_DOUBLE_EQ(edf.at(1.0), 0.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h{0.0, 10.0, 5};
  h.add(-1);   // underflow
  h.add(0);    // bin 0
  h.add(1.9);  // bin 0
  h.add(2);    // bin 1
  h.add(9.99); // bin 4
  h.add(10);   // overflow
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_THROW((Histogram{1.0, 1.0, 4}), std::invalid_argument);
}

TEST(Histogram, RenderShowsBarsAndRanges) {
  Histogram h{0.0, 10.0, 2};
  for (int i = 0; i < 8; ++i) h.add(1.0);
  h.add(7.0);
  const std::string out = h.render(20);
  // Full-width bar for the peak bin, quarter-ish for the other.
  EXPECT_NE(out.find("[    0.00,    5.00)      8 |####################"), std::string::npos);
  EXPECT_NE(out.find("[    5.00,   10.00)      1 |##"), std::string::npos);
}

TEST(SpecialFunctions, NormalCdf) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.959963985), 0.975, 1e-6);
  EXPECT_NEAR(normal_cdf(-1.959963985), 0.025, 1e-6);
}

TEST(SpecialFunctions, GammaP) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-10);
  }
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  // P(a, a) tends to ~0.5 for large a.
  EXPECT_NEAR(gamma_p(100.0, 100.0), 0.5, 0.03);
}

TEST(DistributionFit, RecoversNormalParameters) {
  RandomStream r{77, "fit"};
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(r.normal(50.0, 5.0));
  const auto fits = fit_distributions(samples);
  ASSERT_FALSE(fits.empty());
  // The normal family should fit well (best or near-best KS).
  const auto normal_it = std::find_if(fits.begin(), fits.end(),
                                      [](const auto& f) { return f.family == "normal"; });
  ASSERT_NE(normal_it, fits.end());
  EXPECT_NEAR(normal_it->p1, 50.0, 0.5);
  EXPECT_NEAR(normal_it->p2, 5.0, 0.3);
  EXPECT_LT(normal_it->ks_statistic, 0.03);
}

TEST(DistributionFit, SortedByKs) {
  RandomStream r{78, "fit2"};
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(r.lognormal(3.0, 0.5));
  const auto fits = fit_distributions(samples);
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_LE(fits[i - 1].ks_statistic, fits[i].ks_statistic);
  }
  EXPECT_EQ(fits.front().family, "lognormal");
}

TEST(DistributionFit, CdfIsMonotoneForAllFamilies) {
  RandomStream r{79, "fit3"};
  std::vector<double> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(10.0 + r.exponential(5.0));
  for (const auto& fit : fit_distributions(samples)) {
    double prev = 0.0;
    for (double x = 0.0; x < 60.0; x += 0.5) {
      const double c = fit.cdf(x);
      EXPECT_GE(c, prev - 1e-12) << fit.family;
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
      prev = c;
    }
  }
}

TEST(BootstrapCi, CoversTheTrueMean) {
  RandomStream r{55, "boot"};
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) samples.push_back(r.normal(58.4, 12.0));
  const auto ci = bootstrap_mean_ci(samples, 0.95);
  EXPECT_LT(ci.lower, ci.point);
  EXPECT_GT(ci.upper, ci.point);
  EXPECT_LT(ci.lower, 58.4 + 3.0);
  EXPECT_GT(ci.upper, 58.4 - 3.0);
  // Width ~ 2 * 1.96 * sigma / sqrt(n) ~ 3.3 ms.
  EXPECT_NEAR(ci.upper - ci.lower, 3.3, 1.2);
}

TEST(BootstrapCi, WidthShrinksWithSampleSize) {
  RandomStream r{56, "boot2"};
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 20; ++i) small.push_back(r.normal(10, 2));
  for (int i = 0; i < 500; ++i) large.push_back(r.normal(10, 2));
  const auto ci_small = bootstrap_mean_ci(small);
  const auto ci_large = bootstrap_mean_ci(large);
  EXPECT_GT(ci_small.upper - ci_small.lower, ci_large.upper - ci_large.lower);
}

TEST(BootstrapCi, Deterministic) {
  const std::vector<double> samples{1, 2, 3, 4, 5, 6, 7, 8};
  const auto a = bootstrap_mean_ci(samples, 0.9, 500, 7);
  const auto b = bootstrap_mean_ci(samples, 0.9, 500, 7);
  EXPECT_DOUBLE_EQ(a.lower, b.lower);
  EXPECT_DOUBLE_EQ(a.upper, b.upper);
}

TEST(BootstrapCi, RejectsBadInput) {
  EXPECT_THROW((void)bootstrap_mean_ci({1.0}), std::invalid_argument);
  EXPECT_THROW((void)bootstrap_mean_ci({1.0, 2.0}, 1.5), std::invalid_argument);
}

TEST(DistributionFit, RequiresTwoSamples) {
  EXPECT_THROW((void)fit_distributions({1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace rst::sim
