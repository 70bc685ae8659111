#include "rst/sim/random.hpp"

#include <cmath>
#include <stdexcept>

namespace rst::sim {

std::uint64_t stable_hash(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {
// splitmix64 finalizer: decorrelates seed material before feeding mt19937_64.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

RandomStream::RandomStream(std::uint64_t root_seed, std::string_view name)
    : RandomStream{root_seed, mix(root_seed ^ stable_hash(name))} {}

RandomStream::RandomStream(std::uint64_t root_seed, std::uint64_t derived)
    : root_seed_{root_seed}, derived_seed_{derived} {}

std::mt19937_64& RandomStream::engine() {
  if (!engine_) [[unlikely]] engine_.emplace(derived_seed_);
  return *engine_;
}

RandomStream RandomStream::child(std::string_view name) const {
  return RandomStream{root_seed_, mix(derived_seed_ ^ stable_hash(name))};
}

CounterStream RandomStream::counter_child(std::uint64_t key) const {
  return CounterStream{mix(derived_seed_ ^ mix(key))};
}

std::uint64_t CounterStream::next_u64() { return mix(base_ + ++counter_ * 0x9e3779b97f4a7c15ULL); }

double CounterStream::uniform01() {
  // 53 high bits -> double in [0, 1), the standard bit-twiddle.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double CounterStream::normal(double mean, double stddev) {
  // Box-Muller; one value per call keeps the draw count deterministic.
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double CounterStream::gamma(double shape, double scale) {
  // Marsaglia-Tsang squeeze; the shape < 1 boost uses the alpha+1 trick.
  if (shape < 1.0) {
    const double u = uniform01();
    return gamma(shape + 1.0, scale) * std::pow(u > 0 ? u : 0x1.0p-53, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    const double x = normal(0.0, 1.0);
    const double v_cbrt = 1.0 + c * x;
    if (v_cbrt <= 0.0) continue;
    const double v = v_cbrt * v_cbrt * v_cbrt;
    const double u = uniform01();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (std::log(u > 0 ? u : 0x1.0p-53) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v * scale;
    }
  }
}

bool CounterStream::bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform01() < p;
}

double RandomStream::uniform01() {
  return std::uniform_real_distribution<double>{0.0, 1.0}(engine());
}

double RandomStream::uniform(double lo, double hi) {
  if (hi < lo) throw std::invalid_argument{"RandomStream::uniform: hi < lo"};
  return lo + (hi - lo) * uniform01();
}

std::int64_t RandomStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument{"RandomStream::uniform_int: hi < lo"};
  return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine());
}

double RandomStream::normal(double mean, double stddev) {
  return std::normal_distribution<double>{mean, stddev}(engine());
}

double RandomStream::normal_min(double mean, double stddev, double lo) {
  for (int i = 0; i < 1000; ++i) {
    const double v = normal(mean, stddev);
    if (v >= lo) return v;
  }
  return lo;  // pathological parameters: clamp rather than spin forever
}

double RandomStream::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>{mu, sigma}(engine());
}

double RandomStream::exponential(double mean) {
  if (mean <= 0) throw std::invalid_argument{"RandomStream::exponential: mean <= 0"};
  return std::exponential_distribution<double>{1.0 / mean}(engine());
}

bool RandomStream::bernoulli(double p) {
  if (p <= 0) return false;
  if (p >= 1) return true;
  return uniform01() < p;
}

double RandomStream::gamma(double shape, double scale) {
  return std::gamma_distribution<double>{shape, scale}(engine());
}

SimTime RandomStream::uniform_time(SimTime lo, SimTime hi) {
  return SimTime::nanoseconds(uniform_int(lo.count_ns(), hi.count_ns()));
}

SimTime RandomStream::normal_time(SimTime mean, SimTime stddev, SimTime min) {
  const double v = normal_min(static_cast<double>(mean.count_ns()),
                              static_cast<double>(stddev.count_ns()),
                              static_cast<double>(min.count_ns()));
  return SimTime::nanoseconds(static_cast<std::int64_t>(v));
}

}  // namespace rst::sim
