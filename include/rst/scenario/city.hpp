#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rst/core/its_station.hpp"
#include "rst/dot11p/channel.hpp"
#include "rst/dot11p/medium.hpp"
#include "rst/geo/geodesy.hpp"
#include "rst/geo/vec2.hpp"
#include "rst/middleware/http.hpp"
#include "rst/sim/random.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::scenario {

/// Deterministic description of a city-scale ITS-G5 workload: a Manhattan
/// street grid with an arterial corridor, buildings as NLOS obstacles,
/// RSUs with overlapping coverage and seeded vehicle flows. Everything a
/// run produces is a pure function of (seed, spec) — the generator and the
/// scenario draw only from named child streams of `seed`.
///
/// The defaults describe a small city usable in tier-1 tests; the spec
/// file format (`parse_city_spec`, same `key = value` syntax as the
/// testbed config) scales every knob up for benches and campaigns.
struct CitySpec {
  std::uint64_t seed{1};

  // --- Road network (local east-north metres) ---
  int blocks_x{4};
  int blocks_y{4};
  double block_m{120.0};
  double street_m{12.0};
  /// East-west street index carrying the arterial corridor (vehicle flows
  /// and the handover drive concentrate there); -1 selects the middle row.
  int corridor_row{-1};

  // --- Buildings (NLOS obstacles fed into the channel model) ---
  bool buildings{true};
  double building_loss_db{18.0};
  /// Building facade setback from the street edge.
  double building_setback_m{2.0};

  // --- RSUs ---
  /// An RSU at every Nth intersection along both axes.
  int rsu_every{2};
  /// Cap on the number of RSUs (placement order: south rows first, west to
  /// east); 0 means no cap. `max_rsus = 1` leaves a single RSU at the
  /// south-west corner — the coverage-gap topology.
  int max_rsus{0};
  /// Restrict RSU placement to corridor-row intersections (handover line).
  bool rsu_corridor_only{false};
  /// Fixed RSU CAM beacon period (both generation bounds pinned to it).
  sim::SimTime rsu_cam_interval{sim::SimTime::milliseconds(100)};

  // --- Vehicle flows ---
  int vehicles{8};
  double vehicle_speed_mps{8.0};
  double vehicle_speed_jitter_mps{2.0};
  sim::SimTime obu_cam_interval{sim::SimTime::milliseconds(100)};
  /// Gate every station's transmissions through a reactive DCC.
  bool enable_dcc{false};
  /// DEN keep-alive forwarding on vehicle stations (the store-carry-forward
  /// substrate of the delivery experiment).
  bool enable_kaf{false};
  /// Collective Perception service on every station (opt-in; the default
  /// keeps the four city fingerprints byte-identical to a CPM-less build).
  bool cpm_enable{false};
  sim::SimTime cpm_interval{sim::SimTime::milliseconds(250)};
  sim::SimTime cpm_object_lifetime{sim::SimTime::milliseconds(1500)};
  sim::SimTime cpm_redundancy_window{sim::SimTime::milliseconds(500)};

  // --- Radio channel ---
  /// Urban fits run hotter than the lab's 2.1 (City-Scale ITS-G5 reports
  /// street-canyon attenuation well above free space).
  double path_loss_exponent{3.2};
  double shadowing_sigma_db{0.0};
  double tx_power_dbm{23.0};
  /// Ray-index the building walls (geo::ObstacleGrid); off falls back to
  /// the brute-force wall scan. Bit-identical either way — the knob exists
  /// for equivalence testing and tiny maps.
  bool obstacle_index{true};
  double power_floor_dbm{-110.0};

  geo::GeoPosition origin{41.1780, -8.6080};

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
  [[nodiscard]] int resolved_corridor_row() const;
  [[nodiscard]] double extent_x_m() const { return blocks_x * block_m; }
  [[nodiscard]] double extent_y_m() const { return blocks_y * block_m; }
};

/// Parses a city spec from `key = value` lines (same syntax, comment and
/// error conventions as the testbed config format). Unknown keys and
/// out-of-bound values throw naming the key; the result is validated.
[[nodiscard]] CitySpec parse_city_spec(const std::string& text);
/// Renders a spec as `key = value` lines; parse_city_spec(format_city_spec(s))
/// reproduces every parseable field of `s` exactly (CAM intervals print in
/// whole milliseconds — the only granularity the parser accepts — and
/// `origin` has no spec key, so it keeps its default).
[[nodiscard]] std::string format_city_spec(const CitySpec& spec);

/// One vehicle's route: a polyline over street centerlines, traversed at
/// constant speed and closed into a loop (last waypoint connects back to
/// the first). `speed_mps == 0` parks the vehicle at the first waypoint.
struct VehicleFlow {
  std::vector<geo::Vec2> waypoints;
  double speed_mps{0.0};
  /// Starting offset along the loop, in metres of arc length.
  double phase_m{0.0};
};

/// The generated static topology, before any station is constructed.
struct RoadNetwork {
  /// Intersection grid, row-major: index = iy * cols + ix.
  std::vector<geo::Vec2> intersections;
  /// Intersections per row (blocks_x + 1).
  int cols{0};
  std::vector<dot11p::Wall> building_walls;
  /// RSU placement in (row, column) order.
  std::vector<geo::Vec2> rsu_positions;
  /// Seeded vehicle flows (corridor runs alternate with block rings).
  std::vector<VehicleFlow> flows;
  double extent_x{0};
  double extent_y{0};
  /// y coordinate of the arterial corridor centerline.
  double corridor_y{0};

  [[nodiscard]] geo::Vec2 intersection(int ix, int iy) const;
};

/// Deterministic topology generation from (seed, spec).
[[nodiscard]] RoadNetwork generate_road_network(const CitySpec& spec);

/// The assembled city: one shared medium (range-culled), buildings wired
/// into the channel model, an ITS station per RSU and per vehicle — all of
/// them running the full CAM/DENM/BTP/GN stack of `core::ItsStation`.
class CityScenario {
 public:
  static constexpr its::StationId kRsuIdBase = 900;
  static constexpr its::StationId kVehicleIdBase = 1;

  explicit CityScenario(CitySpec spec);
  ~CityScenario();
  CityScenario(const CityScenario&) = delete;
  CityScenario& operator=(const CityScenario&) = delete;

  [[nodiscard]] const CitySpec& spec() const { return spec_; }
  [[nodiscard]] const RoadNetwork& network() const { return net_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] dot11p::Medium& medium() { return *medium_; }
  [[nodiscard]] const geo::LocalFrame& frame() const { return frame_; }
  /// Null when the spec has no buildings.
  [[nodiscard]] const dot11p::ObstacleShadowingModel* obstacles() const { return obstacles_; }

  [[nodiscard]] std::size_t rsu_count() const { return rsus_.size(); }
  [[nodiscard]] core::ItsStation& rsu(std::size_t i) { return *rsus_[i]; }
  [[nodiscard]] geo::Vec2 rsu_position(std::size_t i) const { return net_.rsu_positions[i]; }

  [[nodiscard]] std::size_t vehicle_count() const { return vehicles_.size(); }
  [[nodiscard]] core::ItsStation& vehicle(std::size_t i);
  /// Where vehicle `i` is on its flow now (a pure function of the time:
  /// vehicle motion needs no events).
  [[nodiscard]] geo::Vec2 vehicle_position(std::size_t i) const;

  /// Adds one extra vehicle station following `flow`; call before start().
  /// Returns the vehicle index.
  std::size_t add_vehicle(VehicleFlow flow);

  /// Starts CAM generation on every station (RSUs beacon at the fixed
  /// `rsu_cam_interval`). Idempotent.
  void start();

 private:
  class VehicleEntry;

  CitySpec spec_;
  RoadNetwork net_;
  sim::RandomStream rng_;
  geo::LocalFrame frame_;
  sim::Scheduler sched_;
  std::unique_ptr<dot11p::Medium> medium_;
  std::unique_ptr<middleware::HttpLan> lan_;
  const dot11p::ObstacleShadowingModel* obstacles_{nullptr};
  std::vector<std::unique_ptr<core::ItsStation>> rsus_;
  std::vector<std::unique_ptr<VehicleEntry>> vehicles_;
  bool started_{false};
};

// --- Experiment 1: coverage / RSSI map -------------------------------------
//
// Deterministic link-budget raster over the street centerlines from one
// RSU, through the full channel model (log-distance + building walls). The
// City-Scale ITS-G5 invariants: power decays monotonically with distance
// along LOS rays, and every NLOS sample sits at least one wall loss below
// the LOS budget at the same distance.

struct CoverageSample {
  geo::Vec2 pos;
  double distance_m{0};
  double rssi_dbm{0};
  std::size_t walls_crossed{0};
};

struct CoverageMap {
  std::size_t rsu_index{0};
  geo::Vec2 rsu_pos;
  std::vector<CoverageSample> samples;
  /// Fraction of street samples at or above `sensitivity_dbm`.
  double covered_fraction{0};
  double sensitivity_dbm{-95.0};

  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Rasterises the streets at `step_m` and measures the deterministic
/// receive power from RSU `rsu_index` through the medium's channel model.
[[nodiscard]] CoverageMap measure_coverage(CityScenario& city, std::size_t rsu_index,
                                           double step_m = 10.0);

// --- Experiment 2: RSU <-> OBU handover ------------------------------------

struct HandoverReport {
  struct Reception {
    sim::SimTime t;
    its::StationId rsu;
    double rssi_dbm;
  };
  std::vector<Reception> receptions;
  /// Serving-RSU timeline (hysteresis rule), deduplicated.
  std::vector<its::StationId> serving_sequence;
  /// Longest interval without a beacon from any RSU, from first reception
  /// to the end of the drive.
  sim::SimTime max_service_gap{};
  /// Longest interval without a beacon from the *serving* RSU while it was
  /// serving (the handover service interruption).
  sim::SimTime max_serving_gap{};

  [[nodiscard]] int handovers() const {
    return serving_sequence.empty() ? 0 : static_cast<int>(serving_sequence.size()) - 1;
  }
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Drives one OBU along the arterial corridor past the spec's RSU line and
/// reports beacon receptions, serving-RSU handovers (switch when another
/// RSU's beacon is `hysteresis_db` stronger than the last one heard from
/// the serving RSU) and service-gap latencies.
[[nodiscard]] HandoverReport run_handover_experiment(const CitySpec& spec, sim::SimTime duration,
                                                     double hysteresis_db = 3.0);

// --- Experiment 3: channel load (CBR) vs vehicle density --------------------

struct CbrPoint {
  int vehicles{0};
  /// Smoothed channel busy ratio at the monitor RSU at the end of the run.
  double cbr{0};
  std::uint64_t frames_on_air{0};
  std::uint64_t deliveries{0};

  friend bool operator==(const CbrPoint&, const CbrPoint&) = default;
};

/// Runs one city per density (spec.vehicles overridden), measures the CBR
/// at RSU 0 with a DCC channel probe, and returns the curve in density
/// order. `threads` fans the cells over a TrialPool; the result is
/// identical at any thread count.
[[nodiscard]] std::vector<CbrPoint> run_cbr_sweep(const CitySpec& base,
                                                  const std::vector<int>& densities,
                                                  sim::SimTime duration, unsigned threads = 1);

[[nodiscard]] std::uint64_t cbr_sweep_fingerprint(const std::vector<CbrPoint>& curve);

// --- Experiment 4: multi-hop GBC DENM delivery across a coverage gap --------

struct DeliveryReport {
  /// Relay chain inside RSU coverage (multi-hop GBC forwarding reaches it).
  int near_targets{0};
  int near_delivered{0};
  /// Cluster beyond the coverage gap (only a carrier crossing the gap and
  /// keep-alive-forwarding the DENM can reach it).
  int far_targets{0};
  int far_delivered{0};
  sim::SimTime first_near_delivery{};
  sim::SimTime first_far_delivery{};
  std::uint64_t gn_forwarded{0};
  std::uint64_t kaf_retransmissions{0};
  /// Deterministic precondition: best direct RSU -> far-cluster budget in
  /// dBm (must sit below sensitivity for the gap to be real).
  double best_direct_far_budget_dbm{0};

  [[nodiscard]] double far_ratio() const {
    return far_targets == 0 ? 0.0 : static_cast<double>(far_delivered) / far_targets;
  }
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Builds a corridor city from `spec` (vehicles are placed by the
/// experiment: a parked relay chain under the single RSU's coverage, a
/// parked cluster beyond the gap, and one mover crossing it), triggers a
/// repeated GBC DENM at the RSU scoped to the whole corridor, and measures
/// who received it and by which mechanism.
[[nodiscard]] DeliveryReport run_delivery_experiment(const CitySpec& spec, sim::SimTime duration);

}  // namespace rst::scenario
