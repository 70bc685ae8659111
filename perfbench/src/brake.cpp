// brake_trials: the paper's default ITS-G5 lab chain, one fresh
// TestbedScenario per seed. A round times kRoundTrials trials one by one,
// then runs the same seeds as one batch through
// run_emergency_brake_experiment at `threads` workers; both must agree.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "common.hpp"
#include "rst/asn1/bitbuffer.hpp"
#include "rst/bytes.hpp"
#include "rst/core/config_io.hpp"
#include "rst/core/experiment.hpp"
#include "rst/core/testbed.hpp"
#include "rst/its/messages/cam.hpp"
#include "rst/its/messages/denm.hpp"
#include "rst/its/network/btp.hpp"
#include "rst/its/network/geonet.hpp"
#include "rst/middleware/frame_log.hpp"
#include "rst/server/campaign.hpp"
#include "rst/sim/scheduler.hpp"
#include "rst/sim/trial_pool.hpp"

namespace perfbench {
namespace {

using rst::core::TestbedScenario;
using rst::core::TrialResult;
using rst::sim::SimTime;
using rst::sim::Stage;

constexpr int kRoundTrials = 64;
// Rounds cycle over a fixed pool of trial-seed blocks, so every metric is
// taken over the same inputs whatever the machine speed.
constexpr std::size_t kPoolRounds = 8;
constexpr double kPaperTotalMs = 58.4;  // Table II: mean detection -> actuation
// Fine-grained (per simulated millisecond) spans for the first traced trials.
constexpr int kFineSpanTrials = 2;

rst::core::TestbedConfig trial_config(std::uint64_t trial_seed) {
  rst::core::TestbedConfig config;
  rst::core::apply_config_overrides(config, "seed = " + std::to_string(trial_seed) + "\n");
  return config;
}

struct TrialCounts {
  std::uint64_t events{0};
  std::uint64_t purged{0};
  std::uint64_t trace_events{0};
  std::uint64_t allocations{0};
  std::uint64_t frames{0};
  std::uint64_t deliveries{0};
  std::uint64_t http_requests{0};
  std::uint64_t polls{0};
  std::uint64_t cam_tx{0};
  std::uint64_t cam_rx{0};
  std::uint64_t denm_tx{0};
  std::uint64_t denm_rx{0};

  TrialCounts& operator+=(const TrialCounts& o) {
    events += o.events;
    purged += o.purged;
    trace_events += o.trace_events;
    allocations += o.allocations;
    frames += o.frames;
    deliveries += o.deliveries;
    http_requests += o.http_requests;
    polls += o.polls;
    cam_tx += o.cam_tx;
    cam_rx += o.cam_rx;
    denm_tx += o.denm_tx;
    denm_rx += o.denm_rx;
    return *this;
  }
  friend bool operator==(const TrialCounts&, const TrialCounts&) = default;
};

TrialCounts read_counts(TestbedScenario& s, std::uint64_t allocations) {
  TrialCounts c;
  c.events = s.scheduler().executed_events();
  c.purged = s.scheduler().purged_events();
  c.trace_events = s.trace().events().size();
  c.allocations = allocations;
  c.frames = s.medium().stats().frames_transmitted;
  c.deliveries = s.medium().stats().deliveries;
  c.http_requests = s.lan().requests_sent();
  c.polls = s.message_handler().stats().polls;
  c.cam_tx = s.obu().ca().stats().cams_sent + s.rsu().ca().stats().cams_sent;
  c.cam_rx = s.obu().ca().stats().cams_received + s.rsu().ca().stats().cams_received;
  c.denm_tx = s.obu().den().stats().denms_sent + s.rsu().den().stats().denms_sent;
  c.denm_rx = s.obu().den().stats().denms_received + s.rsu().den().stats().denms_received;
  return c;
}

bool trial_ok(const TrialResult& r) { return r.stopped_by_denm && !r.timed_out; }

struct SerialTrial {
  TrialResult result;
  TrialCounts counts;
  std::uint64_t buffers{0};
  double ms{0};
};

/// The timed unit of brake_trials: construction plus run_emergency_brake_trial.
SerialTrial run_serial_trial(std::uint64_t trial_seed) {
  const auto config = trial_config(trial_seed);
  SerialTrial out;
  const std::uint64_t allocs0 = thread_allocations();
  const std::uint64_t buffers0 = rst::Bytes::buffer_count();
  const auto t0 = Clock::now();
  TestbedScenario scenario{config};
  out.result = scenario.run_emergency_brake_trial();
  out.ms = ms_between(t0, Clock::now());
  out.counts = read_counts(scenario, thread_allocations() - allocs0);
  out.buffers = rst::Bytes::buffer_count() - buffers0;
  return out;
}

/// Per-trial counts of one round run on a TrialPool of `threads` workers.
/// Allocations are counted on the worker thread; Bytes buffers only as a
/// batch total (the buffer counter is process-wide).
std::vector<TrialCounts> pooled_counts(std::uint64_t base, unsigned threads,
                                       std::uint64_t* buffers_total) {
  rst::sim::TrialPool pool{threads};
  const auto run = [&](std::size_t i, TrialCounts* counts) {
    const auto config = trial_config(base + i);
    const std::uint64_t allocs0 = thread_allocations();
    TestbedScenario scenario{config};
    (void)scenario.run_emergency_brake_trial();
    if (counts) *counts = read_counts(scenario, thread_allocations() - allocs0);
  };
  // Warm every worker first, so thread-local scratch is not charged to a trial.
  pool.run_indexed(2 * static_cast<std::size_t>(threads), [&](std::size_t i) { run(i, nullptr); });
  std::vector<TrialCounts> out(kRoundTrials);
  const std::uint64_t buffers0 = rst::Bytes::buffer_count();
  pool.run_indexed(kRoundTrials, [&](std::size_t i) { run(i, &out[i]); });
  *buffers_total = rst::Bytes::buffer_count() - buffers0;
  return out;
}

struct TracedTrial {
  double total_us{0};
  double construct_us{0};
  double run_until_us{0};
  double scan_us{0};
  std::uint64_t events{0};
  std::uint64_t trace_events{0};
  bool ok{false};
};

/// A traced copy of TestbedScenario::run_emergency_brake_trial's supervision
/// loop, built from public calls only, with each call into the scheduler and
/// the trace timed. It must execute the same events as the original.
TracedTrial run_traced_trial(std::uint64_t trial_seed, SpanRecorder& spans, bool fine) {
  const auto config = trial_config(trial_seed);
  TracedTrial out;
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  const std::uint32_t root = spans.begin("trial", SpanRecorder::kNoParent, trial_seed);
  const auto t0 = Clock::now();
  TestbedScenario s{config};
  const auto t1 = Clock::now();
  spans.add("core.construct", root, trial_seed, t0, t1);
  out.construct_us = us(t0, t1);

  s.start_services();
  const auto t2 = Clock::now();
  spans.add("core.start_services", root, trial_seed, t1, t2);

  const SimTime t_start = s.scheduler().now();
  const SimTime deadline = t_start + SimTime::seconds(30);
  const auto& cfg = s.config();
  bool detection_seen = false;
  bool halted = false;
  double run_ns = 0;
  double scan_ns = 0;
  const std::uint32_t supervise = spans.begin("core.supervise", root, trial_seed);
  while (s.scheduler().now() < deadline) {
    const auto a = Clock::now();
    s.scheduler().run_until(s.scheduler().now() + SimTime::milliseconds(1));
    const auto b = Clock::now();
    run_ns += std::chrono::duration<double, std::nano>(b - a).count();
    if (fine) spans.add("sim.run_until", supervise, trial_seed, a, b);
    if (!detection_seen) {
      const auto c = Clock::now();
      detection_seen = s.trace().find_event(Stage::HazardDecision, t_start) != nullptr;
      const auto d = Clock::now();
      scan_ns += std::chrono::duration<double, std::nano>(d - c).count();
      if (fine) spans.add("sim.trace_scan", supervise, trial_seed, c, d);
    }
    if (s.dynamics().power_cut() && s.dynamics().stopped()) {
      halted = true;
      break;
    }
  }
  spans.end(supervise);

  const auto m0 = Clock::now();
  auto& trace = s.trace();
  const bool mined = trace.find_event(Stage::HazardDecision, t_start) &&
                     trace.find_event(Stage::DenmTx, t_start, cfg.rsu.station_id) &&
                     trace.find_event(Stage::DenmRx, t_start, cfg.obu.station_id) &&
                     trace.find_event(Stage::PowerCutCommand, t_start);
  const auto m1 = Clock::now();
  spans.add("core.mine", root, trial_seed, m0, m1);
  spans.end(root);
  scan_ns += std::chrono::duration<double, std::nano>(m1 - m0).count();

  out.total_us = us(t0, m1);
  out.run_until_us = run_ns / 1000.0;
  out.scan_us = scan_ns / 1000.0;
  out.events = s.scheduler().executed_events();
  out.trace_events = s.trace().events().size();
  out.ok = mined && halted;
  return out;
}

/// The trial's own CAM and DENM shapes, captured off both radios.
struct Shapes {
  std::vector<rst::its::Cam> cams;
  std::vector<std::vector<std::uint8_t>> cam_bytes;
  std::vector<rst::its::Denm> denms;
  std::vector<std::vector<std::uint8_t>> denm_bytes;
};

Shapes capture_shapes(std::uint64_t trial_seed) {
  TestbedScenario s{trial_config(trial_seed)};
  rst::middleware::FrameLog obu_log{s.scheduler()};
  rst::middleware::FrameLog rsu_log{s.scheduler()};
  obu_log.attach(s.obu().radio());
  rsu_log.attach(s.rsu().radio());
  (void)s.run_emergency_brake_trial();
  Shapes shapes;
  for (const auto* log : {&obu_log, &rsu_log}) {
    for (const auto& frame : log->frames()) {
      try {
        const auto packet = rst::its::GnPacket::decode(frame.payload);
        if (packet.payload.size() < rst::its::BtpHeader::kSize) continue;
        auto parsed = rst::its::BtpHeader::parse(packet.payload);
        if (parsed.header.destination_port == rst::its::kBtpPortCam) {
          shapes.cams.push_back(rst::its::Cam::decode(parsed.payload));
          shapes.cam_bytes.push_back(std::move(parsed.payload));
        } else if (parsed.header.destination_port == rst::its::kBtpPortDenm) {
          shapes.denms.push_back(rst::its::Denm::decode(parsed.payload));
          shapes.denm_bytes.push_back(std::move(parsed.payload));
        }
      } catch (const rst::asn1::DecodeError&) {
      }
    }
  }
  return shapes;
}

}  // namespace

void run_brake_trials(const Options& options, Report& report) {
  const unsigned threads = options.threads;

  // Inputs: kPoolRounds blocks of kRoundTrials consecutive trial seeds drawn
  // from the workload seed. A block is replaced when one of its trials does
  // not stop by DENM (the detection chain misses the vehicle in about one
  // default-config seed in 7000): the benchmark times the completed chain.
  // These reference runs also give the work counts and the reference
  // event and trace sizes for the traced copy.
  std::vector<std::uint64_t> blocks;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> reference;
  TrialCounts round0{};
  std::uint64_t round0_buffers = 0;
  std::vector<TrialCounts> round0_per_trial;
  double err_sum_ms = 0;
  std::uint64_t replaced = 0;
  (void)run_serial_trial(options.seed * 1'000'000ULL);  // first-use statics stay out of the counts
  for (std::uint64_t base = options.seed * 1'000'000ULL + 1; blocks.size() < kPoolRounds;
       base += kRoundTrials) {
    std::vector<SerialTrial> block;
    for (int i = 0; i < kRoundTrials; ++i) block.push_back(run_serial_trial(base + i));
    if (!std::all_of(block.begin(), block.end(), [](const SerialTrial& t) { return trial_ok(t.result); })) {
      ++replaced;
      continue;
    }
    for (int i = 0; i < kRoundTrials; ++i) {
      const SerialTrial& t = block[i];
      reference[base + i] = {t.counts.events, t.counts.trace_events};
      if (blocks.empty()) {
        round0 += t.counts;
        round0_buffers += t.buffers;
        round0_per_trial.push_back(t.counts);
      }
      err_sum_ms += t.result.meas_total_ms;
    }
    blocks.push_back(base);
  }
  const std::size_t err_n = kPoolRounds * kRoundTrials;

  // Rounds cycle over the blocks. In traced mode every other round runs the
  // traced supervision-loop copy instead, so drift in machine speed hits
  // traced and untraced rounds alike.
  std::vector<double> setup_s;
  std::vector<double> serial_ms;
  std::vector<double> batch_s;
  // Repeated timings of the same work, per pool trial.
  std::vector<std::vector<double>> trial_timings(kPoolRounds * kRoundTrials);
  std::vector<double> construct_us;
  std::vector<double> run_until_us;
  std::vector<double> scan_us;
  std::vector<double> traced_ms;
  double run_ns_total = 0;
  std::uint64_t events_total = 0;
  bool copy_matches = true;
  bool tables_equal = true;
  bool results_equal = true;
  std::size_t traced = 0;
  const std::size_t kinds = options.trace ? 2 : 1;
  const auto start = Clock::now();
  for (std::size_t round = 0; round < kinds || seconds_between(start, Clock::now()) < options.seconds;
       ++round) {
    const std::size_t block = (round / kinds) % kPoolRounds;
    const std::uint64_t base = blocks[block];
    if (round % kinds == 1) {
      for (int i = 0; i < kRoundTrials; ++i) {
        const TracedTrial t = run_traced_trial(base + i, report.spans, traced < kFineSpanTrials);
        ++traced;
        if (reference.at(base + i) != std::make_pair(t.events, t.trace_events) || !t.ok) {
          copy_matches = false;
        }
        construct_us.push_back(t.construct_us);
        run_until_us.push_back(t.run_until_us);
        scan_us.push_back(t.scan_us);
        traced_ms.push_back(t.total_us / 1000.0);
        run_ns_total += t.run_until_us * 1000.0;
        events_total += t.events;
      }
      continue;
    }

    // Set-up of the round: its configs through the text parser plus one
    // warm trial. Taken every round, so its samples span the run.
    {
      const auto t0 = Clock::now();
      std::vector<rst::core::TestbedConfig> configs;
      for (int i = 0; i < kRoundTrials; ++i) configs.push_back(trial_config(base + i));
      TestbedScenario warm{configs.front()};
      (void)warm.run_emergency_brake_trial();
      setup_s.push_back(seconds_between(t0, Clock::now()));
    }

    std::vector<TrialResult> serial(kRoundTrials);
    for (int i = 0; i < kRoundTrials; ++i) {
      SerialTrial t = run_serial_trial(base + i);
      serial_ms.push_back(t.ms);
      trial_timings[block * kRoundTrials + i].push_back(t.ms);
      report.attempt();
      if (!trial_ok(t.result)) report.fail();
      serial[i] = t.result;
    }

    auto config = trial_config(base);
    const auto b0 = Clock::now();
    const auto batch = rst::core::run_emergency_brake_experiment(config, kRoundTrials, threads);
    batch_s.push_back(seconds_between(b0, Clock::now()));

    for (int i = 0; i < kRoundTrials; ++i) {
      report.attempt();
      const bool same = rst::server::serialize_trial_record(base + i, serial[i]) ==
                        rst::server::serialize_trial_record(base + i, batch.trials[i]);
      if (!same) results_equal = false;
      if (!same || !trial_ok(batch.trials[i])) report.fail();
    }
    const auto serial_summary = rst::core::aggregate_experiment_summary(serial);
    if (rst::core::format_table2(serial_summary) != rst::core::format_table2(batch) ||
        rst::core::format_table3(serial_summary) != rst::core::format_table3(batch)) {
      tables_equal = false;
    }
  }
  report.check("brake.serial_equals_batch_results", results_equal);
  report.check("brake.serial_equals_batch_tables", tables_equal);

  std::uint64_t pooled_buffers = 0;
  const auto pooled = pooled_counts(blocks.front(), threads, &pooled_buffers);
  bool counts_match = pooled_buffers == round0_buffers;
  for (int i = 0; i < kRoundTrials; ++i) counts_match = counts_match && pooled[i] == round0_per_trial[i];
  report.check("brake.counts_equal_at_1_and_" + std::to_string(threads) + "_threads", counts_match);

  const double p50 = quantile(serial_ms, 0.5);
  const double p99 = quantile(serial_ms, 0.99);
  const double rate = kRoundTrials / median(batch_s);
  report.metric("trial_ms_p50", p50, "ms", serial_ms.size());
  report.metric("trial_ms_p99", p99, "ms", serial_ms.size());
  report.metric("trials_per_s", rate, "1/s", batch_s.size());
  report.metric("sim_err_total_ms", std::abs(err_sum_ms / static_cast<double>(err_n) - kPaperTotalMs),
                "ms", err_n);
  report.metric("latency_ms_p50", median(per_unit_best(trial_timings)), "ms", serial_ms.size());
  report.metric("throughput_per_s", kRoundTrials / best_tenth_median(batch_s), "1/s",
                batch_s.size());
  report.metric("setup_s", best_tenth_median(setup_s), "s", setup_s.size());

  report.count("brake.round_trials", kRoundTrials);
  report.count("brake.first_trial_seed", blocks.front());
  report.count("brake.blocks_replaced", replaced);
  report.count("brake.events", round0.events);
  report.count("brake.events_purged", round0.purged);
  report.count("brake.trace_events", round0.trace_events);
  report.count("brake.frames", round0.frames);
  report.count("brake.deliveries", round0.deliveries);
  report.count("brake.bytes_buffers", round0_buffers);
  report.count("brake.allocations", round0.allocations);
  report.count("brake.http_requests", round0.http_requests);
  report.count("brake.polls", round0.polls);
  report.count("brake.cam_tx", round0.cam_tx);
  report.count("brake.denm_tx", round0.denm_tx);

  if (!options.trace) return;

  report.check("brake.traced_copy_matches_reference", copy_matches,
               std::to_string(traced) + " traced trials");

  // Unit costs on the workload's own shapes.
  const Shapes shapes = capture_shapes(blocks.front());
  report.check("brake.captured_cam_and_denm", !shapes.cams.empty() && !shapes.denms.empty());
  const auto per_item = [](std::size_t n, auto&& fn) {
    return ns_per_op(n == 0 ? 1 : n, [&] {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    });
  };
  const double cam_enc = per_item(shapes.cams.size(), [&](std::size_t i) { keep(shapes.cams[i].encode()); });
  const double cam_dec = per_item(shapes.cam_bytes.size(), [&](std::size_t i) { keep(rst::its::Cam::decode(shapes.cam_bytes[i])); });
  const double denm_enc = per_item(shapes.denms.size(), [&](std::size_t i) { keep(shapes.denms[i].encode()); });
  const double denm_dec = per_item(shapes.denm_bytes.size(), [&](std::size_t i) { keep(rst::its::Denm::decode(shapes.denm_bytes[i])); });

  // Bare scheduler cost: post + pop + invoke of a trivial event.
  rst::sim::Scheduler sched;
  std::uint64_t fired = 0;
  constexpr std::size_t kDispatchBatch = 1024;
  const double dispatch_ns = ns_per_op(kDispatchBatch, [&] {
    for (std::size_t i = 0; i < kDispatchBatch; ++i) {
      sched.post_in(SimTime::microseconds(static_cast<std::int64_t>(i % 97)), [&fired] { ++fired; });
    }
    sched.run();
  });
  keep(fired);

  const double n = kRoundTrials;
  const double trial_us = median(traced_ms) * 1000.0;
  const double codec_us = (static_cast<double>(round0.cam_tx) * cam_enc +
                           static_cast<double>(round0.cam_rx) * cam_dec +
                           static_cast<double>(round0.denm_tx) * denm_enc +
                           static_cast<double>(round0.denm_rx) * denm_dec) / n / 1000.0;
  const double explained_us = median(construct_us) + median(scan_us) +
                              static_cast<double>(round0.events) / n * dispatch_ns / 1000.0 +
                              codec_us;
  std::printf("ledger trial_us=%.2f construct_us=%.2f trace_scan_us=%.2f dispatch_us=%.2f "
              "codec_us=%.2f unexplained_us=%.2f\n",
              trial_us, median(construct_us), median(scan_us),
              static_cast<double>(round0.events) / n * dispatch_ns / 1000.0, codec_us,
              trial_us - explained_us);

  const double serial_rate = 1000.0 / (std::accumulate(serial_ms.begin(), serial_ms.end(), 0.0) /
                                       static_cast<double>(serial_ms.size()));
  report.layer("core.construct_us", median(construct_us));
  report.layer("sim.run_until_us", median(run_until_us));
  report.layer("sim.trace_scan_us", median(scan_us));
  report.layer("sim.events", static_cast<double>(round0.events) / n);
  report.layer("sim.events_purged", static_cast<double>(round0.purged) / n);
  report.layer("sim.trace_events", static_cast<double>(round0.trace_events) / n);
  report.layer("sim.ns_per_event", run_ns_total / static_cast<double>(events_total));
  report.layer("sim.dispatch_ns", dispatch_ns);
  report.layer("alloc.per_trial", static_cast<double>(round0.allocations) / n);
  report.layer("bytes.buffers_per_trial", static_cast<double>(round0_buffers) / n);
  report.layer("dot11p.frames_per_trial", static_cast<double>(round0.frames) / n);
  report.layer("middleware.http_requests_per_trial", static_cast<double>(round0.http_requests) / n);
  report.layer("vehicle.polls_per_trial", static_cast<double>(round0.polls) / n);
  report.layer("its.cam_tx_per_trial", static_cast<double>(round0.cam_tx) / n);
  report.layer("its.denm_tx_per_trial", static_cast<double>(round0.denm_tx) / n);
  report.layer("sim.pool_efficiency", rate / (threads * serial_rate));
  report.layer("asn1.cam_encode_ns", cam_enc);
  report.layer("asn1.cam_decode_ns", cam_dec);
  report.layer("asn1.denm_encode_ns", denm_enc);
  report.layer("asn1.denm_decode_ns", denm_dec);
  report.layer("core.ledger_residual", 1.0 - explained_us / trial_us);
  report.layer("trace.overhead_ms_p50", median(traced_ms) - p50);
  report.layer("trace.overhead_share", (median(traced_ms) - p50) / p50);
}

}  // namespace perfbench
