// City-scale campaign bench: runs the four self-checking city experiments
// (coverage raster, corridor handover, CBR-vs-density sweep, coverage-gap
// DENM delivery) at a scale above the tier-1 tests and reports wall-clock
// per experiment plus the headline metrics. The shape checks mirror the
// tier-1 assertions so a bench run doubles as a smoke test; exit status is
// non-zero when any check fails.
//
// RST_THREADS fans the CBR sweep cells over a TrialPool (0/unset = auto);
// every reported number and fingerprint is identical at any thread count,
// and the final determinism section proves it by re-running the sweep on
// one thread.
//
// A density table then runs the benchmark's city at four sizes and prints
// its deterministic frame and delivery counts next to the host cost per
// delivery.
//
// Usage: bench_city_corridor [--buildings-scale N]

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/scenario/city.hpp"

namespace {

using namespace rst;

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

/// Coverage raster wall-clock for one obstacle-index setting, best of
/// `reps` so scheduler noise cannot fake a regression. Returns the map
/// fingerprint and index engagement through the out-params.
double raster_ms(const scenario::CitySpec& spec, int reps, std::uint64_t* fingerprint,
                 std::uint64_t* index_queries) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    scenario::CityScenario city{spec};
    const double step = 4.0 * static_cast<double>(spec.blocks_x * spec.blocks_x) / 16.0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto map = scenario::measure_coverage(city, 0, step);
    const double ms = wall_ms_since(t0);
    if (ms < best) best = ms;
    *fingerprint = map.fingerprint();
    *index_queries = city.obstacles() != nullptr ? city.obstacles()->index_queries() : 0;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) try {
  // --buildings-scale N: top of the obstacle-index scaling sweep (the wall
  // count grows linearly with the scale; scales run 1, 4, 16, ... up to N).
  long buildings_scale = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::int64_t scale = 0;
    try {
      if (arg == "--buildings-scale" && i + 1 < argc) scale = core::parse_spec_int(argv[++i], arg);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
    }
    if (scale < 1) {
      std::fprintf(stderr, "usage: %s [--buildings-scale N]   (N >= 1)\n", argv[0]);
      return 2;
    }
    buildings_scale = static_cast<long>(scale);
  }

  const unsigned threads = core::experiment_threads_from_env();
  std::printf("[threads: %u]\n\n", core::resolve_experiment_threads(threads));

  bool ok = true;
  const auto check = [&](const char* what, bool cond) {
    std::printf("  [%s] %s\n", cond ? "ok" : "FAIL", what);
    ok = ok && cond;
  };

  // A city noticeably larger than the tier-1 fixtures: 8x8 blocks of
  // 120 m (~1 km on a side), buildings on, an RSU every other intersection.
  scenario::CitySpec spec;
  spec.seed = 20260808;
  spec.blocks_x = 8;
  spec.blocks_y = 8;
  spec.vehicles = 0;
  spec.rsu_every = 2;

  // --- Experiment 1: coverage raster ---------------------------------------
  {
    scenario::CityScenario city{spec};
    auto t0 = std::chrono::steady_clock::now();
    const auto map = scenario::measure_coverage(city, 0, 5.0);
    const double ms = wall_ms_since(t0);
    std::printf("=== Coverage raster (RSU 0, 5 m step) ===\n");
    std::printf("  %zu street samples, covered fraction %.3f, %.1f ms wall\n", map.samples.size(),
                map.covered_fraction, ms);
    std::printf("  fingerprint %016llx\n", static_cast<unsigned long long>(map.fingerprint()));
    check("raster produced samples", !map.samples.empty());
    check("corner RSU covers part but not all of the city",
          map.covered_fraction > 0.02 && map.covered_fraction < 0.9);
  }

  // --- Experiment 2: corridor handover --------------------------------------
  {
    scenario::CitySpec hs = spec;
    hs.rsu_corridor_only = true;  // a 5-RSU line along the arterial corridor
    auto t0 = std::chrono::steady_clock::now();
    const auto report =
        scenario::run_handover_experiment(hs, sim::SimTime::seconds(hs.extent_x_m() / 8.0 + 5.0));
    const double ms = wall_ms_since(t0);
    std::printf("\n=== Corridor handover (%.0f m drive) ===\n", hs.extent_x_m());
    std::printf("  %zu beacons heard, %d handovers, max service gap %.1f ms, "
                "max serving gap %.1f ms, %.1f ms wall\n",
                report.receptions.size(), report.handovers(),
                report.max_service_gap.to_seconds() * 1e3,
                report.max_serving_gap.to_seconds() * 1e3, ms);
    std::printf("  fingerprint %016llx\n", static_cast<unsigned long long>(report.fingerprint()));
    check("at least 3 handovers along the corridor", report.handovers() >= 3);
    check("service gap bounded below 500 ms",
          report.max_service_gap < sim::SimTime::milliseconds(500));
  }

  // --- Experiment 3: CBR vs density -----------------------------------------
  std::uint64_t sweep_fp = 0;
  {
    scenario::CitySpec cs;
    cs.seed = spec.seed;
    cs.blocks_x = 2;
    cs.blocks_y = 2;
    cs.block_m = 60.0;
    cs.buildings = false;
    cs.max_rsus = 1;
    cs.obu_cam_interval = sim::SimTime::milliseconds(20);
    const std::vector<int> densities{4, 12, 24, 40, 56};
    auto t0 = std::chrono::steady_clock::now();
    const auto curve =
        scenario::run_cbr_sweep(cs, densities, sim::SimTime::seconds(3), threads);
    const double ms = wall_ms_since(t0);
    sweep_fp = scenario::cbr_sweep_fingerprint(curve);
    std::printf("\n=== CBR vs density (20 ms CAM, 3 s per cell) ===\n");
    std::printf("  %8s  %8s  %12s  %12s\n", "vehicles", "CBR", "tx frames", "deliveries");
    bool monotone = true;
    for (std::size_t i = 0; i < curve.size(); ++i) {
      std::printf("  %8d  %8.3f  %12llu  %12llu\n", curve[i].vehicles, curve[i].cbr,
                  static_cast<unsigned long long>(curve[i].frames_on_air),
                  static_cast<unsigned long long>(curve[i].deliveries));
      if (i > 0 && curve[i].cbr < curve[i - 1].cbr) monotone = false;
    }
    std::printf("  %.1f ms wall, fingerprint %016llx\n", ms,
                static_cast<unsigned long long>(sweep_fp));
    check("CBR rises monotonically with density", monotone);
    check("densest cell loads the channel above the sparsest by 0.05",
          curve.back().cbr > curve.front().cbr + 0.05);

    scenario::CitySpec ds = cs;
    ds.enable_dcc = true;
    const auto dcc = scenario::run_cbr_sweep(ds, {densities.back()}, sim::SimTime::seconds(3),
                                             threads);
    std::printf("  DCC at %d vehicles: CBR %.3f (open loop %.3f)\n", densities.back(),
                dcc[0].cbr, curve.back().cbr);
    check("DCC caps the loaded channel below the open-loop CBR",
          dcc[0].cbr < curve.back().cbr);
  }

  // --- Experiment 4: coverage-gap DENM delivery -----------------------------
  {
    scenario::CitySpec gs;
    gs.seed = spec.seed;
    gs.blocks_x = 6;
    gs.blocks_y = 2;
    gs.path_loss_exponent = 3.5;
    gs.vehicle_speed_mps = 8.0;
    auto t0 = std::chrono::steady_clock::now();
    const auto report = scenario::run_delivery_experiment(gs, sim::SimTime::seconds(100));
    const double ms = wall_ms_since(t0);
    std::printf("\n=== Coverage-gap DENM delivery (%.0f m corridor) ===\n", gs.extent_x_m());
    std::printf("  near %d/%d, far %d/%d, first near %.1f s, first far %.1f s\n",
                report.near_delivered, report.near_targets, report.far_delivered,
                report.far_targets, report.first_near_delivery.to_seconds(),
                report.first_far_delivery.to_seconds());
    std::printf("  GN forwards %llu, KAF retransmissions %llu, best direct far budget %.1f dBm\n",
                static_cast<unsigned long long>(report.gn_forwarded),
                static_cast<unsigned long long>(report.kaf_retransmissions),
                report.best_direct_far_budget_dbm);
    std::printf("  %.1f ms wall, fingerprint %016llx\n", ms,
                static_cast<unsigned long long>(report.fingerprint()));
    check("the coverage gap is real (direct far budget below -100 dBm)",
          report.best_direct_far_budget_dbm < -100.0);
    check("near chain fully delivered", report.near_delivered == report.near_targets);
    check("far cluster fully delivered via carry + KAF",
          report.far_delivered == report.far_targets);
    check("store-carry-forward produced KAF retransmissions", report.kaf_retransmissions > 0);
  }

  // --- Density: host cost per delivery as the city fills --------------------
  //
  // The benchmark's city (8x8 blocks, an RSU at every other intersection,
  // 100 ms CAMs, DCC on, seed 7) at four sizes up to 16x16 blocks and 640
  // vehicles. Frames and deliveries are deterministic; the host columns
  // are wall time over the 2 simulated seconds after a 0.3 s warm-up.
  {
    std::printf("\n=== Density (seed 7, DCC on, 2 s after a 0.3 s warm-up) ===\n");
    std::printf("  %6s  %4s  %8s  %7s  %10s  %9s  %13s  %12s\n", "blocks", "RSUs", "vehicles",
                "frames", "deliveries", "per frame", "host us/deliv", "sim s/host s");
    struct Size {
      int blocks;
      int vehicles;
    };
    for (const Size size : {Size{8, 160}, Size{8, 320}, Size{12, 360}, Size{16, 640}}) {
      scenario::CitySpec ds;
      ds.seed = 7;
      ds.blocks_x = size.blocks;
      ds.blocks_y = size.blocks;
      ds.vehicles = size.vehicles;
      ds.enable_dcc = true;
      scenario::CityScenario city{ds};
      city.start();
      auto& sched = city.scheduler();
      sched.run_until(sched.now() + sim::SimTime::milliseconds(300));
      const dot11p::Medium::Stats before = city.medium().stats();
      const auto t0 = std::chrono::steady_clock::now();
      const sim::SimTime span = sim::SimTime::seconds(2);
      sched.run_until(sched.now() + span);
      const double host_s = wall_ms_since(t0) / 1e3;
      const auto frames = city.medium().stats().frames_transmitted - before.frames_transmitted;
      const auto deliveries = city.medium().stats().deliveries - before.deliveries;
      std::printf("  %3dx%-2d  %4zu  %8zu  %7llu  %10llu  %9.1f  %13.2f  %12.2f\n", size.blocks,
                  size.blocks, city.rsu_count(), city.vehicle_count(),
                  static_cast<unsigned long long>(frames),
                  static_cast<unsigned long long>(deliveries),
                  static_cast<double>(deliveries) / static_cast<double>(frames),
                  host_s * 1e6 / static_cast<double>(deliveries), span.to_seconds() / host_s);
    }
  }

  // --- Obstacle index: walls vs wall-clock scaling curve --------------------
  //
  // One coverage raster per scale, indexed vs brute-force, over cities
  // whose building count grows linearly with the scale while the raster
  // step grows to hold the sample count roughly constant — so the curve
  // isolates the per-query wall-scan cost. Fingerprints must match bit for
  // bit at every scale, the counters must prove the indexed path really
  // ran, and at the top scale the index must win by >= 3x (the CI gate).
  {
    std::printf("\n=== Obstacle index scaling (up to %ldx buildings) ===\n", buildings_scale);
    std::printf("  %7s  %6s  %10s  %10s  %8s\n", "scale", "walls", "indexed ms", "brute ms",
                "speedup");
    double top_speedup = 0.0;
    long top_scale = 1;
    for (long scale = 1; scale <= buildings_scale; scale *= 4) {
      scenario::CitySpec os;
      os.seed = spec.seed;
      // 4x4 blocks at scale 1; block count (hence buildings and walls)
      // grows linearly with the scale.
      int side = 4;
      for (long s = scale; s > 1; s /= 4) side *= 2;
      os.blocks_x = side;
      os.blocks_y = side;
      os.vehicles = 0;
      os.max_rsus = 1;
      std::uint64_t fp_indexed = 0;
      std::uint64_t fp_brute = 0;
      std::uint64_t queries_indexed = 0;
      std::uint64_t queries_brute = 0;
      os.obstacle_index = true;
      const double ms_indexed = raster_ms(os, 3, &fp_indexed, &queries_indexed);
      os.obstacle_index = false;
      const double ms_brute = raster_ms(os, 3, &fp_brute, &queries_brute);
      const double speedup = ms_brute / ms_indexed;
      const std::size_t walls = static_cast<std::size_t>(side) * side * 4;
      std::printf("  %6ldx  %6zu  %10.2f  %10.2f  %7.2fx\n", scale, walls, ms_indexed, ms_brute,
                  speedup);
      check("indexed/brute coverage fingerprints identical", fp_indexed == fp_brute);
      check("indexed raster engaged the ray index", queries_indexed > 0);
      check("brute raster never touched the index", queries_brute == 0);
      if (scale >= top_scale) {
        top_scale = scale;
        top_speedup = speedup;
      }
    }
    // The >= 3x acceptance gate only makes sense once the wall count
    // dwarfs the per-sample fixed costs; it engages from the 256x scale
    // (16384 walls, the CI bench lane's setting) where the margin is
    // comfortably past noise. Smaller sweeps still enforce the
    // fingerprint and engagement checks at every scale.
    if (buildings_scale >= 256) {
      std::printf("  top-scale speedup %.2fx\n", top_speedup);
      check("obstacle index >= 3x faster at the largest building count", top_speedup >= 3.0);
    }
  }

  // --- Determinism: the sweep fingerprint must not depend on threads --------
  {
    scenario::CitySpec cs;
    cs.seed = spec.seed;
    cs.blocks_x = 2;
    cs.blocks_y = 2;
    cs.block_m = 60.0;
    cs.buildings = false;
    cs.max_rsus = 1;
    cs.obu_cam_interval = sim::SimTime::milliseconds(20);
    const auto single =
        scenario::run_cbr_sweep(cs, {4, 12, 24, 40, 56}, sim::SimTime::seconds(3), 1);
    std::printf("\n=== Determinism ===\n");
    check("CBR sweep fingerprint identical at 1 thread vs RST_THREADS",
          scenario::cbr_sweep_fingerprint(single) == sweep_fp);
  }

  return ok ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed RST_THREADS stops the bench with a message instead of running it.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
