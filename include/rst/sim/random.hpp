#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <string_view>

#include "rst/sim/time.hpp"

namespace rst::sim {

/// Cheap counter-based generator for per-link draws on hot paths.
///
/// Unlike RandomStream (whose mt19937_64 costs ~2.5 kB of state, seeded on
/// the stream's first draw), a CounterStream is two 64-bit words: a
/// key-derived base and a draw counter pushed through a splitmix64
/// finalizer. Constructing one per (tx, rx, sequence) link and throwing it
/// away after a couple of draws is what makes per-link randomness viable in
/// the medium's transmit path — draws depend only on the key, never on the
/// order links are visited in, so receiver culling cannot perturb them.
class CounterStream {
 public:
  /// Uniform in [0, 1).
  [[nodiscard]] double uniform01();
  [[nodiscard]] double normal(double mean, double stddev);
  /// Gamma with shape k and scale theta (mean = k*theta).
  [[nodiscard]] double gamma(double shape, double scale);
  [[nodiscard]] bool bernoulli(double p);

 private:
  friend class RandomStream;
  explicit CounterStream(std::uint64_t base) : base_{base} {}
  [[nodiscard]] std::uint64_t next_u64();

  std::uint64_t base_;
  std::uint64_t counter_{0};
};

/// Deterministic random stream derived from a (root seed, name) pair.
///
/// Every stochastic component in the testbed owns a named child stream, so
/// adding a new random consumer never perturbs the draws of existing ones
/// — a requirement for stable regression tests and paired ablations.
///
/// The engine is seeded from the derived seed on the stream's first draw.
/// Deriving children reads only the seeds, so a stream that only hands out
/// children, or is copied before it draws, never builds an engine.
class RandomStream {
 public:
  RandomStream(std::uint64_t root_seed, std::string_view name);

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform01();
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  [[nodiscard]] double normal(double mean, double stddev);
  /// Normal truncated to be >= lo (re-draws; lo should be well within
  /// a few sigma of the mean).
  [[nodiscard]] double normal_min(double mean, double stddev, double lo);
  [[nodiscard]] double lognormal(double mu, double sigma);
  [[nodiscard]] double exponential(double mean);
  [[nodiscard]] bool bernoulli(double p);
  /// Gamma with shape k and scale theta (mean = k*theta).
  [[nodiscard]] double gamma(double shape, double scale);

  [[nodiscard]] SimTime uniform_time(SimTime lo, SimTime hi);
  [[nodiscard]] SimTime normal_time(SimTime mean, SimTime stddev, SimTime min = SimTime::zero());

  /// Derives a child stream; children of distinct names are independent.
  [[nodiscard]] RandomStream child(std::string_view name) const;

  /// Derives a lightweight counter-based child keyed by an integer (e.g. a
  /// hash of (tx MAC, rx MAC, frame sequence)). Distinct keys yield
  /// independent streams; the same key always yields the same draws,
  /// regardless of how many other children were derived in between.
  [[nodiscard]] CounterStream counter_child(std::uint64_t key) const;

  [[nodiscard]] std::uint64_t root_seed() const { return root_seed_; }

 private:
  RandomStream(std::uint64_t root_seed, std::uint64_t derived);
  std::mt19937_64& engine();

  std::uint64_t root_seed_;
  std::uint64_t derived_seed_;
  std::optional<std::mt19937_64> engine_;  // empty until the first draw
};

/// Stable 64-bit FNV-1a hash used for seed derivation.
[[nodiscard]] std::uint64_t stable_hash(std::string_view s) noexcept;

}  // namespace rst::sim
