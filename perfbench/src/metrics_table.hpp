#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics of every workload (untraced mode), in BENCHMARK.json
/// order. Each workload maps them onto its unit of work; see README.md.
inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"latency_ms_p50", "ms"},
      {"throughput_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

/// Per-layer metrics (traced mode), in BENCHMARK.json order. A metric whose
/// layer a workload does not exercise reads 0 there.
inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      // brake_trials
      {"core.construct_us", "us"},
      {"sim.run_until_us", "us"},
      {"sim.trace_scan_us", "us"},
      {"sim.events", "count"},
      {"sim.events_purged", "count"},
      {"sim.trace_events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.dispatch_ns", "ns"},
      {"alloc.per_trial", "count"},
      {"bytes.buffers_per_trial", "count"},
      {"dot11p.frames_per_trial", "count"},
      {"middleware.http_requests_per_trial", "count"},
      {"vehicle.polls_per_trial", "count"},
      {"its.cam_tx_per_trial", "count"},
      {"its.denm_tx_per_trial", "count"},
      {"sim.pool_efficiency", "ratio"},
      {"asn1.cam_encode_ns", "ns"},
      {"asn1.cam_decode_ns", "ns"},
      {"asn1.denm_encode_ns", "ns"},
      {"asn1.denm_decode_ns", "ns"},
      {"core.ledger_residual", "ratio"},
      // city_grid
      {"scenario.build_ms", "ms"},
      {"sim.events_per_sim_s", "1/s"},
      {"dot11p.frames", "count"},
      {"dot11p.deliveries_per_frame", "ratio"},
      {"dot11p.culled_ratio", "ratio"},
      {"dot11p.budget_cache_hit_ratio", "ratio"},
      {"geo.obstacle_queries", "count"},
      {"geo.obstacle_query_ns", "ns"},
      {"its.cam_tx", "count"},
      {"its.gn_rx", "count"},
      {"its.dcc_gated", "count"},
      {"alloc.per_frame", "count"},
      {"bytes.buffers_per_frame", "count"},
      // campaign_mix
      {"server.cache_hit_ratio", "ratio"},
      {"server.hit_ms_p50", "ms"},
      {"server.miss_ms_p50", "ms"},
      {"server.canonicalize_us", "us"},
      {"server.record_parse_ns", "ns"},
      {"server.aggregate_us", "us"},
      {"server.trials_executed", "count"},
      {"server.store_bytes", "B"},
      {"server.store_replay_ms", "ms"},
      // every workload: traced minus untraced latency_ms_p50
      {"trace.overhead_ms_p50", "ms"},
      {"trace.overhead_share", "ratio"},
      {"trace.spans", "count"},
  };
  return kMetrics;
}

}  // namespace perfbench
