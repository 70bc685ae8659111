#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "rst/geo/vec2.hpp"
#include "rst/sim/random.hpp"

namespace rst::geo {
class ObstacleGrid;
}

namespace rst::dot11p {

/// Deterministic (position-only) part of a propagation model.
class PathLossModel {
 public:
  virtual ~PathLossModel() = default;
  /// Path loss in dB between transmitter and receiver positions.
  [[nodiscard]] virtual double loss_db(geo::Vec2 tx, geo::Vec2 rx) const = 0;

  /// Lower bound on the loss between any two positions `distance_m` apart.
  /// The spatial index inverts this to derive a conservative culling radius:
  /// over-estimating loss here would cull radios that can still hear, so
  /// models whose loss is not a pure function of distance must override it
  /// with a true lower bound. The default evaluates the model along an
  /// arbitrary axis, which is exact for the distance-radial models above.
  [[nodiscard]] virtual double min_loss_db(double distance_m) const {
    return loss_db({0.0, 0.0}, {distance_m, 0.0});
  }
};

/// Friis free-space loss at 5.9 GHz (ITS-G5 band).
class FreeSpaceModel final : public PathLossModel {
 public:
  explicit FreeSpaceModel(double frequency_hz = 5.9e9);
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override;

 private:
  double fixed_term_db_;
};

/// Log-distance model: loss(d) = loss(d0) + 10 n log10(d/d0).
class LogDistanceModel final : public PathLossModel {
 public:
  LogDistanceModel(double exponent, double reference_loss_db, double reference_distance_m = 1.0);
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override;

  /// Convenience: log-distance anchored to free space at 1 m, 5.9 GHz.
  [[nodiscard]] static LogDistanceModel its_g5(double exponent = 2.2);

 private:
  double exponent_;
  double reference_loss_db_;
  double reference_distance_m_;
};

/// Dual-slope log-distance model (common VANET fit, e.g. Cheng et al.):
/// exponent n1 up to the breakpoint distance, n2 beyond it. Captures the
/// ground-reflection breakpoint of 5.9 GHz V2X links.
class DualSlopeModel final : public PathLossModel {
 public:
  DualSlopeModel(double near_exponent, double far_exponent, double breakpoint_m,
                 double reference_loss_db, double reference_distance_m = 1.0);
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override;

  /// Anchored to free space at 1 m, 5.9 GHz; typical highway fit
  /// (n1 = 2.0 to ~100 m, n2 = 3.8 beyond).
  [[nodiscard]] static DualSlopeModel its_g5(double near_exponent = 2.0,
                                             double far_exponent = 3.8,
                                             double breakpoint_m = 100.0);

 private:
  double near_exponent_;
  double far_exponent_;
  double breakpoint_m_;
  double reference_loss_db_;
  double reference_distance_m_;
};

/// An opaque wall segment; any link whose LOS ray crosses it incurs an
/// extra obstruction loss. Models the paper's blind-corner scenario
/// ("vehicles do not have Line-of-Sight visually nor wirelessly").
struct Wall {
  geo::Vec2 a;
  geo::Vec2 b;
  double obstruction_loss_db{20.0};
};

/// Decorates a base model with obstacle (NLOS) losses from wall segments.
///
/// City-scale obstacle maps (the scenario generator emits four walls per
/// building) make this the inner loop of every link-budget evaluation. By
/// default the walls are held in a `geo::ObstacleGrid` ray index: a query
/// walks only the grid cells along the tx-rx ray, deduplicates the walls it
/// finds there and applies the same bounding-box reject and exact
/// `segments_intersect` test, in the same ascending-wall order, as the
/// brute-force scan — so `loss_db`/`is_nlos`/`walls_crossed` are
/// bit-identical to the O(walls) path at O(cells-along-ray) cost
/// (obstacle_index_test proves it on random soups and adversarial rays).
/// `use_index = false` keeps the brute-force scan, as the equivalence
/// baseline and for tiny wall sets.
///
/// The index is immutable after construction and queries use per-thread
/// scratch only, so media on different threads may share one model and
/// evaluate link budgets through it concurrently without locks.
class ObstacleShadowingModel final : public PathLossModel {
 public:
  /// `index_cell_m == 0` derives the grid cell size from the wall geometry
  /// (`geo::ObstacleGrid::derive_cell_size`).
  ObstacleShadowingModel(std::unique_ptr<PathLossModel> base, std::vector<Wall> walls,
                         bool use_index = true, double index_cell_m = 0.0);
  ~ObstacleShadowingModel() override;
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override;
  /// Walls only ever add loss, so the base model's bound stays valid.
  [[nodiscard]] double min_loss_db(double distance_m) const override;

  /// True when the segment tx-rx crosses at least one wall.
  [[nodiscard]] bool is_nlos(geo::Vec2 tx, geo::Vec2 rx) const;

  /// Walls crossed by the segment tx-rx (the NLOS "depth" of a link).
  [[nodiscard]] std::size_t walls_crossed(geo::Vec2 tx, geo::Vec2 rx) const;

  [[nodiscard]] const std::vector<Wall>& walls() const { return walls_; }
  [[nodiscard]] bool index_enabled() const { return grid_ != nullptr; }
  /// Null when the model runs brute force.
  [[nodiscard]] const geo::ObstacleGrid* index() const { return grid_.get(); }
  /// Queries served through the ray index so far — the engagement proof for
  /// benches and CI (relaxed counter: queries may come from several
  /// threads sharing the model). Always 0 in brute-force mode.
  [[nodiscard]] std::uint64_t index_queries() const {
    return index_queries_.load(std::memory_order_relaxed);
  }

 private:
  struct WallBox {
    double min_x, min_y, max_x, max_y;
  };

  template <typename OnWall>
  void for_each_crossing(geo::Vec2 tx, geo::Vec2 rx, OnWall&& on_wall) const;

  std::unique_ptr<PathLossModel> base_;
  std::vector<Wall> walls_;
  std::vector<WallBox> boxes_;  // parallel to walls_
  std::unique_ptr<const geo::ObstacleGrid> grid_;  // null = brute force
  mutable std::atomic<std::uint64_t> index_queries_{0};
};

/// True when segments ab and cd intersect (shared endpoints, T-touches and
/// collinear overlaps count; see geo::segments_intersect for the pinned
/// contract — this forwards to it).
[[nodiscard]] bool segments_intersect(geo::Vec2 a, geo::Vec2 b, geo::Vec2 c, geo::Vec2 d);

/// Small-scale fading applied per transmission per receiver.
enum class FadingModel : std::uint8_t {
  None,
  /// Nakagami-m amplitude fading (m=1 is Rayleigh; m>=3 near-LOS). The
  /// received power is scaled by a unit-mean gamma draw with shape m.
  Nakagami,
};

/// Full channel = deterministic path loss + log-normal shadowing sigma +
/// optional small-scale fading. The stochastic draws are made per
/// transmission per receiver by the Medium, from counter-based streams
/// keyed on (tx MAC, rx MAC, tx frame count).
struct ChannelModel {
  std::shared_ptr<const PathLossModel> path_loss;
  double shadowing_sigma_db{0.0};
  FadingModel fading{FadingModel::None};
  /// Nakagami shape parameter (ignored unless fading == Nakagami).
  double nakagami_m{3.0};

  // --- Dense-fleet scaling (README "Scaling the medium") ---

  /// Cull receivers through a uniform spatial hash grid instead of the full
  /// radio fan-out. A pure performance switch: it must not change any
  /// delivery outcome, because the grid radius is derived by inverting
  /// PathLossModel::min_loss_db at power_floor_dbm.
  bool spatial_index{false};
  /// Links below this deterministic receive power (dBm, path loss and
  /// antenna gains only) are out of range: no draw, no interference, counted
  /// as dropped_below_sensitivity. Keep a healthy margin below
  /// rx_sensitivity_dbm so post-shadowing/fading upside cannot matter:
  /// default is 15 dB under the default -95 dBm sensitivity (> 5 sigma of
  /// typical shadowing).
  double power_floor_dbm{-110.0};
  /// Grid cell edge; 0 derives it from the inverted power floor range.
  double cell_size_m{0.0};
  /// How often the grid re-reads every radio's position (amortised into
  /// begin_transmission, no standing event). Zero means the 100 ms default.
  sim::SimTime reindex_period{};
  /// Upper bound on station speed, used to pad the query radius against
  /// positions that are up to one reindex period stale. Stations moving
  /// faster than this can be culled while audible.
  double max_station_speed_mps{50.0};
};

}  // namespace rst::dot11p
