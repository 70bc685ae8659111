// Dense-fleet medium scaling: N stations CAM-beaconing at 10 Hz for 10
// simulated seconds, once with the medium visiting every attached radio
// (fan-out) and once culling the radios recorded beyond each transmitter's
// cull radius. Both lanes run the same path-loss model; the fan-out lane
// runs it behind a decorator that claims no range bound, so its cull
// radius is infinite. The run exits 1 unless every outcome counter of
// Medium::Stats (and the receive-callback total) matches between them; it
// prints wall-clock per lane and the speedup, plus delivery stats as a
// sanity check that the run still simulates a loaded channel rather than a
// silent one.
//
// Usage: bench_dense_fleet [N ...]   (default sizes: 64 256 1024)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/dot11p/radio.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace {

using namespace rst;

constexpr double kBeaconHz = 10.0;
constexpr std::int64_t kSimSeconds = 10;
constexpr std::size_t kCamBytes = 300;

/// Forwards the inner model's losses but claims no range bound, so the
/// medium evaluates every attached radio: the fan-out lane.
class Unbounded final : public dot11p::PathLossModel {
 public:
  explicit Unbounded(std::shared_ptr<const dot11p::PathLossModel> inner)
      : inner_{std::move(inner)} {}
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override {
    return inner_->loss_db(tx, rx);
  }
  [[nodiscard]] double loss_db_capped(geo::Vec2 tx, geo::Vec2 rx, double cap_db,
                                      dot11p::CullHint* hint) const override {
    return inner_->loss_db_capped(tx, rx, cap_db, hint);
  }
  [[nodiscard]] double min_loss_db(double) const override {
    return -std::numeric_limits<double>::infinity();
  }

 private:
  std::shared_ptr<const dot11p::PathLossModel> inner_;
};

struct RunStats {
  double wall_ms{0.0};
  dot11p::Medium::Stats medium;
  std::uint64_t rx_total{0};
};

RunStats run_fleet(std::size_t n, bool culled) {
  sim::Scheduler sched;
  sim::RandomStream rng{987654321, "dense_fleet"};

  // Dense-urban propagation (exponent 3.2): the hearing radius at the
  // -95 dBm floor is ~200 m, so a station's neighbourhood is a few dozen
  // stations while the fleet spans kilometres — the regime range culling
  // is built for. Flatter exponents inflate the radius until nearly every
  // link is physically relevant and no cull can help. Shadowing keeps a
  // per-link Gaussian draw in every admitted link's power.
  auto model = std::make_shared<dot11p::LogDistanceModel>(dot11p::LogDistanceModel::its_g5(3.2));
  dot11p::ChannelModel channel;
  if (culled) {
    channel.path_loss = std::move(model);
  } else {
    channel.path_loss = std::make_shared<Unbounded>(std::move(model));
  }
  channel.shadowing_sigma_db = 3.0;
  channel.power_floor_dbm = -95.0;
  dot11p::Medium medium{sched, rng.child("medium"), channel};

  // Square lattice at 50 m pitch: the geometry of a saturated urban
  // corridor. Each station hears a neighbourhood; the fleet as a whole is
  // far wider than one hearing radius, so culling has real work to do.
  const auto side = static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<std::unique_ptr<dot11p::Radio>> radios;
  std::uint64_t rx_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 pos{static_cast<double>(i % side) * 50.0,
                        static_cast<double>(i / side) * 50.0};
    radios.push_back(std::make_unique<dot11p::Radio>(
        medium, dot11p::RadioConfig{}, [pos] { return pos; },
        rng.child("radio" + std::to_string(i)), "radio" + std::to_string(i)));
    radios.back()->set_receive_callback(
        [&rx_total](const dot11p::Frame&, const dot11p::RxInfo&) { ++rx_total; });
  }

  // 10 Hz CAM cadence, transmission phases spread across the period the
  // way ETSI CAM generation decorrelates stations.
  const auto period = sim::SimTime::from_seconds(1.0 / kBeaconHz);
  for (std::size_t i = 0; i < n; ++i) {
    const auto phase = sim::SimTime::microseconds(
        static_cast<std::int64_t>(i) * 100'000 / static_cast<std::int64_t>(n));
    for (std::int64_t k = 0; k < kSimSeconds * static_cast<std::int64_t>(kBeaconHz); ++k) {
      sched.post_at(phase + period * k, [&radios, i] {
        dot11p::Frame f;
        f.payload.assign(kCamBytes, 0xCA);
        f.ac = dot11p::AccessCategory::BestEffort;
        radios[i]->send(std::move(f));
      });
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  sched.run_until(sim::SimTime::seconds(kSimSeconds));
  const auto t1 = std::chrono::steady_clock::now();

  RunStats out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.medium = medium.stats();
  out.rx_total = rx_total;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> fleet_sizes;
  for (int i = 1; i < argc; ++i) {
    std::int64_t n = 0;
    try {
      n = rst::core::parse_spec_int(argv[i], "N");
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
    }
    if (n < 1) {
      std::fprintf(stderr, "usage: %s [N ...]   (fleet sizes >= 1; default 64 256 1024)\n",
                   argv[0]);
      return 2;
    }
    fleet_sizes.push_back(static_cast<std::size_t>(n));
  }
  if (fleet_sizes.empty()) fleet_sizes = {64, 256, 1024};

  std::printf("dense-fleet medium scaling: %lld s simulated, %.0f Hz CAM, %zu-byte PSDU\n\n",
              static_cast<long long>(kSimSeconds), kBeaconHz, kCamBytes);
  std::printf("%6s  %12s  %12s  %8s  %14s  %14s  %12s\n", "N", "fan-out (ms)", "culled (ms)",
              "speedup", "tx frames", "deliveries", "culled");

  for (const std::size_t n : fleet_sizes) {
    const RunStats fan_out = run_fleet(n, /*culled=*/false);
    const RunStats culled = run_fleet(n, /*culled=*/true);
    std::printf("%6zu  %12.1f  %12.1f  %7.2fx  %14llu  %14llu  %12llu\n", n, fan_out.wall_ms,
                culled.wall_ms, fan_out.wall_ms / culled.wall_ms,
                static_cast<unsigned long long>(culled.medium.frames_transmitted),
                static_cast<unsigned long long>(culled.medium.deliveries),
                static_cast<unsigned long long>(culled.medium.culled_below_floor));
    if (culled.rx_total != culled.medium.deliveries) {
      std::printf("  !! rx callback count %llu disagrees with medium deliveries\n",
                  static_cast<unsigned long long>(culled.rx_total));
      return 1;
    }
    // The distance cull only skips links already below the power floor, so
    // the two lanes must agree on every outcome. The budget-cache counters
    // are left out: the culled lane evaluates fewer budgets by design.
    const dot11p::Medium::Stats& a = fan_out.medium;
    const dot11p::Medium::Stats& b = culled.medium;
    if (a.frames_transmitted != b.frames_transmitted || a.deliveries != b.deliveries ||
        a.dropped_half_duplex != b.dropped_half_duplex ||
        a.dropped_below_sensitivity != b.dropped_below_sensitivity ||
        a.dropped_error != b.dropped_error || a.culled_below_floor != b.culled_below_floor ||
        fan_out.rx_total != culled.rx_total) {
      std::printf("  !! fan-out and culled lanes disagree on medium outcomes at N=%zu\n", n);
      return 1;
    }
  }
  return 0;
}
