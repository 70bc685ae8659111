// city_grid: one scenario::CityScenario run serially for a fixed simulated
// span. Every station runs CAM -> BTP -> GN -> UPER over the spatial medium
// and the building obstacle index, so its/asn1/dot11p/geo dominate while
// testbed supervision, HTTP and the server stay idle. A repetition rebuilds
// the city from its spec; all repetitions must count the same work.
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "common.hpp"
#include "rst/bytes.hpp"
#include "rst/dot11p/channel.hpp"
#include "rst/geo/obstacle_grid.hpp"
#include "rst/scenario/city.hpp"

namespace perfbench {
namespace {

using rst::scenario::CityScenario;
using rst::sim::SimTime;

const SimTime kWarmup = SimTime::milliseconds(300);
const SimTime kStep = SimTime::milliseconds(100);  // one CAM period
constexpr std::size_t kStepsPerRep = 20;  // 2 s of simulated time per repetition
constexpr int kMinReps = 3;

std::string city_spec_text(std::uint64_t seed) {
  return "# Manhattan grid, buildings on, an RSU at every second intersection\n"
         "seed = " + std::to_string(seed) + "\n"
         "blocks_x = 8\n"
         "blocks_y = 8\n"
         "buildings = true\n"
         "rsu_every = 2\n"
         "vehicles = 160\n"
         "obu_cam_interval_ms = 100\n"
         "rsu_cam_interval_ms = 100\n"
         "enable_dcc = true\n";
}

struct CityCounts {
  std::uint64_t events{0};
  std::uint64_t purged{0};
  std::uint64_t frames{0};
  std::uint64_t deliveries{0};
  std::uint64_t culled{0};
  std::uint64_t budget_hits{0};
  std::uint64_t budget_misses{0};
  std::uint64_t obstacle_queries{0};
  std::uint64_t cam_tx{0};
  std::uint64_t gn_rx{0};
  std::uint64_t dcc_gated{0};
  std::uint64_t allocations{0};
  std::uint64_t buffers{0};

  friend bool operator==(const CityCounts&, const CityCounts&) = default;
  CityCounts operator-(const CityCounts& o) const {
    CityCounts d;
    d.events = events - o.events;
    d.purged = purged - o.purged;
    d.frames = frames - o.frames;
    d.deliveries = deliveries - o.deliveries;
    d.culled = culled - o.culled;
    d.budget_hits = budget_hits - o.budget_hits;
    d.budget_misses = budget_misses - o.budget_misses;
    d.obstacle_queries = obstacle_queries - o.obstacle_queries;
    d.cam_tx = cam_tx - o.cam_tx;
    d.gn_rx = gn_rx - o.gn_rx;
    d.dcc_gated = dcc_gated - o.dcc_gated;
    d.allocations = allocations - o.allocations;
    d.buffers = buffers - o.buffers;
    return d;
  }
};

CityCounts read_counts(CityScenario& city) {
  CityCounts c;
  c.events = city.scheduler().executed_events();
  c.purged = city.scheduler().purged_events();
  const auto& m = city.medium().stats();
  c.frames = m.frames_transmitted;
  c.deliveries = m.deliveries;
  c.culled = m.culled_below_floor;
  c.budget_hits = m.budget_cache_hits;
  c.budget_misses = m.budget_cache_misses;
  c.obstacle_queries = city.obstacles() ? city.obstacles()->index_queries() : 0;
  const auto station = [&c](rst::core::ItsStation& s) {
    c.cam_tx += s.ca().stats().cams_sent;
    c.gn_rx += s.router().stats().delivered_up;
    if (const auto* dcc = s.dcc()) {
      c.dcc_gated += dcc->stats().queued + dcc->stats().dropped_queue_full +
                     dcc->stats().dropped_expired;
    }
  };
  for (std::size_t i = 0; i < city.rsu_count(); ++i) station(city.rsu(i));
  for (std::size_t i = 0; i < city.vehicle_count(); ++i) station(city.vehicle(i));
  c.allocations = thread_allocations();
  c.buffers = rst::Bytes::buffer_count();
  return c;
}

struct Rep {
  double setup_s{0};
  double build_ms{0};
  std::vector<double> step_ms;
  double run_s{0};
  CityCounts counts;  // over the measured span only
  double obstacle_query_ns{0};
  std::size_t stations{0};
};

/// Builds, starts, warms up and runs one city. With `spans`, records them
/// (rep id = `rep`) and measures the obstacle-index query cost on tx/rx
/// pairs sampled from the city's own positions.
Rep run_rep(const std::string& spec_text, std::uint64_t seed, SpanRecorder* spans,
            std::uint64_t rep) {
  Rep out;
  const auto t0 = Clock::now();
  CityScenario city{rst::scenario::parse_city_spec(spec_text)};
  const auto t1 = Clock::now();
  city.start();
  const auto t2 = Clock::now();
  out.build_ms = ms_between(t0, t1);
  out.stations = city.rsu_count() + city.vehicle_count();
  out.setup_s = seconds_between(t0, t2);
  std::uint32_t root = SpanRecorder::kNoParent;
  if (spans) {
    root = spans->begin("city.rep", SpanRecorder::kNoParent, rep);
    spans->add("scenario.build", root, rep, t0, t1);
    spans->add("scenario.start", root, rep, t1, t2);
  }

  auto& sched = city.scheduler();
  {
    const auto w0 = Clock::now();
    sched.run_until(sched.now() + kWarmup);
    if (spans) spans->add("city.warmup", root, rep, w0, Clock::now());
  }

  const CityCounts before = read_counts(city);
  out.step_ms.reserve(kStepsPerRep);
  for (std::size_t k = 0; k < kStepsPerRep; ++k) {
    const auto a = Clock::now();
    sched.run_until(sched.now() + kStep);
    const auto b = Clock::now();
    out.step_ms.push_back(ms_between(a, b));
    out.run_s += seconds_between(a, b);
    if (spans) spans->add("sim.run_until", root, rep, a, b);
  }
  out.counts = read_counts(city) - before;

  if (spans) {
    spans->end(root);
    const auto* grid = city.obstacles() ? city.obstacles()->index() : nullptr;
    if (grid) {
      std::mt19937_64 rng{seed};
      std::vector<std::pair<rst::geo::Vec2, rst::geo::Vec2>> pairs;
      for (int i = 0; i < 256; ++i) {
        const auto v = rng() % city.vehicle_count();
        const auto u = rng() % city.vehicle_count();
        const auto r = rng() % city.rsu_count();
        pairs.emplace_back(city.vehicle_position(v),
                           i % 2 ? city.rsu_position(r) : city.vehicle_position(u));
      }
      std::size_t crossings = 0;
      out.obstacle_query_ns = ns_per_op(pairs.size(), [&] {
        for (const auto& [a, b] : pairs) crossings += grid->crossings(a, b);
      });
      keep(crossings);
    }
  }
  return out;
}

/// The untraced or the traced repetitions of one run.
struct Phase {
  std::vector<std::vector<double>> step_timings = std::vector<std::vector<double>>(kStepsPerRep);
  std::vector<double> step_ms;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> query_ns;
  double run_s{0};
  std::size_t reps{0};
};

}  // namespace

void run_city_grid(const Options& options, Report& report) {
  // In traced mode every other repetition records spans, so drift in
  // machine speed hits traced and untraced repetitions alike.
  const std::string spec = city_spec_text(options.seed);
  const std::size_t kinds = options.trace ? 2 : 1;
  Phase untraced;
  Phase traced;
  CityCounts first;
  CityCounts reference;  // the latest warm untraced repetition
  std::size_t warm_reps = 0;
  bool counts_equal = true;
  std::size_t stations = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMinReps * kinds || seconds_between(start, Clock::now()) < options.seconds;
       ++i) {
    const bool with_spans = i % kinds == 1;
    const Rep rep = run_rep(spec, options.seed, with_spans ? &report.spans : nullptr, i);
    report.attempt();
    // Every repetition must do the same work. Allocations are compared
    // between warm untraced repetitions only: the first one grows
    // thread-local scratch, and span recording allocates.
    if (i == 0) first = rep.counts;
    CityCounts a = rep.counts;
    CityCounts b = first;
    a.allocations = b.allocations = 0;
    bool same = a == b;
    if (!with_spans && i >= 1) {
      if (warm_reps++ > 0) same = same && rep.counts.allocations == reference.allocations;
      reference = rep.counts;
    }
    if (!same) {
      counts_equal = false;
      report.fail();
    }
    Phase& phase = with_spans ? traced : untraced;
    phase.step_ms.insert(phase.step_ms.end(), rep.step_ms.begin(), rep.step_ms.end());
    for (std::size_t k = 0; k < rep.step_ms.size(); ++k) phase.step_timings[k].push_back(rep.step_ms[k]);
    phase.setup_s.push_back(rep.setup_s);
    phase.build_ms.push_back(rep.build_ms);
    phase.query_ns.push_back(rep.obstacle_query_ns);
    phase.run_s += rep.run_s;
    ++phase.reps;
    stations = rep.stations;
  }
  report.check("city.counts_equal_across_repetitions", counts_equal,
               std::to_string(untraced.reps + traced.reps) + " repetitions");

  const CityCounts& c = reference;
  const double sim_s = kStep.to_seconds() * static_cast<double>(untraced.step_ms.size());
  const double p50 = quantile(untraced.step_ms, 0.5);
  const double p99 = quantile(untraced.step_ms, 0.99);
  const double realtime_x = sim_s / untraced.run_s;
  report.metric("city_step_ms_p50", p50, "ms", untraced.step_ms.size());
  report.metric("city_step_ms_p99", p99, "ms", untraced.step_ms.size());
  report.metric("city_realtime_x", realtime_x, "sim_s/s", untraced.reps);
  const auto step_best = per_unit_best(untraced.step_timings);
  report.metric("latency_ms_p50", median(step_best), "ms", untraced.step_ms.size());
  report.metric("throughput_per_s",
                kStep.to_milliseconds() * static_cast<double>(step_best.size()) /
                    std::accumulate(step_best.begin(), step_best.end(), 0.0),
                "1/s", untraced.reps);
  report.metric("setup_s", best_tenth_median(untraced.setup_s), "s", untraced.setup_s.size());

  report.count("city.span_ms", static_cast<std::uint64_t>(kStep.to_milliseconds() * kStepsPerRep));
  report.count("city.events", c.events);
  report.count("city.events_purged", c.purged);
  report.count("city.frames", c.frames);
  report.count("city.deliveries", c.deliveries);
  report.count("city.bytes_buffers", c.buffers);
  report.count("city.allocations", c.allocations);
  report.count("city.cam_tx", c.cam_tx);
  report.count("city.gn_rx", c.gn_rx);
  report.count("city.dcc_gated", c.dcc_gated);
  report.count("city.obstacle_queries", c.obstacle_queries);

  if (!options.trace) return;

  const double span_s = kStep.to_seconds() * kStepsPerRep;
  const double frames = static_cast<double>(c.frames);
  const double traced_p50 = quantile(traced.step_ms, 0.5);
  report.layer("scenario.build_ms", median(traced.build_ms));
  report.layer("sim.ns_per_event",
               traced.run_s * 1e9 / (static_cast<double>(c.events) * static_cast<double>(traced.reps)));
  report.layer("sim.events_per_sim_s", static_cast<double>(c.events) / span_s);
  report.layer("dot11p.frames", frames);
  report.layer("dot11p.deliveries_per_frame", static_cast<double>(c.deliveries) / frames);
  report.layer("dot11p.culled_ratio",
               static_cast<double>(c.culled) / (frames * static_cast<double>(stations - 1)));
  report.layer("dot11p.budget_cache_hit_ratio",
               static_cast<double>(c.budget_hits) / static_cast<double>(c.budget_hits + c.budget_misses));
  report.layer("geo.obstacle_queries", static_cast<double>(c.obstacle_queries));
  report.layer("geo.obstacle_query_ns", median(traced.query_ns));
  report.layer("its.cam_tx", static_cast<double>(c.cam_tx));
  report.layer("its.gn_rx", static_cast<double>(c.gn_rx));
  report.layer("its.dcc_gated", static_cast<double>(c.dcc_gated));
  report.layer("alloc.per_frame", static_cast<double>(c.allocations) / frames);
  report.layer("bytes.buffers_per_frame", static_cast<double>(c.buffers) / frames);
  report.layer("trace.overhead_ms_p50", traced_p50 - p50);
  report.layer("trace.overhead_share", (traced_p50 - p50) / p50);
}

}  // namespace perfbench
