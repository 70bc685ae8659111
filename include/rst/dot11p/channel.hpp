#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "rst/geo/vec2.hpp"

namespace rst::geo {
class CrossingIds;
class ObstacleGrid;
}

namespace rst::dot11p {

/// What `PathLossModel::loss_db_capped` may leave with its caller for a
/// link it gave up on: up to two ids (wall indices for
/// `ObstacleShadowingModel`) that it tries first when the same link is
/// asked again. The caller only stores it, one per link. Any content is a
/// valid input, so a hint is never invalidated: a stale or foreign one
/// costs a failed re-test, not a wrong answer.
struct CullHint {
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t ids[2]{kNone, kNone};
};

/// Deterministic (position-only) part of a propagation model.
class PathLossModel {
 public:
  /// How far past its cap a loss must lie before `loss_db_capped` may give
  /// up on it. Far above the rounding of any sum of dB terms near a power
  /// floor, so a link given up on is one the exact loss culls as well.
  static constexpr double kCapMarginDb = 1e-6;

  virtual ~PathLossModel() = default;
  /// Path loss in dB between transmitter and receiver positions.
  [[nodiscard]] virtual double loss_db(geo::Vec2 tx, geo::Vec2 rx) const = 0;

  /// `loss_db(tx, rx)`, except that it may return +infinity when that loss
  /// exceeds `cap_db` by more than `kCapMarginDb`. The medium passes the
  /// loss that puts a link at the power floor, so a model may stop working
  /// on a link as soon as it knows the link is culled. Every other answer
  /// keeps the bits of `loss_db`. A non-null `hint` is the link's own
  /// `CullHint`, read and rewritten by the call.
  [[nodiscard]] virtual double loss_db_capped(geo::Vec2 tx, geo::Vec2 rx, double cap_db,
                                              CullHint* hint = nullptr) const {
    (void)cap_db;
    (void)hint;
    return loss_db(tx, rx);
  }

  /// Lower bound on the loss between any two positions `distance_m` apart.
  /// The medium inverts this at the power floor to derive each
  /// transmitter's cull radius: over-estimating loss here would cull radios
  /// that can still hear, so models whose loss is not a pure function of
  /// distance must override it with a true lower bound. The default
  /// evaluates the model along an arbitrary axis, which is exact for the
  /// distance-radial models below. A model with no range bound returns a
  /// bound that never reaches the budget, and the medium then culls nothing
  /// by distance.
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
/// walks only the grid cells along the tx-rx ray and applies the same
/// bounding-box reject and exact `segments_intersect` test as the
/// brute-force scan to each wall it finds there, collecting the distinct
/// crossing walls; the loss adds their attenuations in ascending wall
/// order, as the scan does. So `loss_db` and `walls_crossed` are
/// bit-identical to the O(walls) path at O(cells-along-ray) cost
/// (obstacle_index_test proves it on random soups and adversarial rays).
/// `use_index = false` keeps the brute-force scan, as the equivalence
/// baseline and for tiny wall sets.
///
/// `loss_db_capped` stops early: it skips the walk when the base loss is
/// already past the cap, and ends it as soon as the walls found so far are.
/// Walls only add loss, so the exact loss is past the cap too. Before
/// walking, it re-tests the walls of the link's `CullHint` (the two
/// costliest walls of its last cull) with the walk's own crossing test, and
/// gives up without a walk when those still crossing are past the cap on
/// their own: the ascending sum over any subset of the crossing walls
/// bounds the exact loss from below.
///
/// The index is immutable after construction and queries keep their state
/// on the stack, so media on different threads may share one model and
/// evaluate link budgets through it concurrently without locks.
class ObstacleShadowingModel final : public PathLossModel {
 public:
  /// `index_cell_m == 0` derives the grid cell size from the wall geometry
  /// (`geo::ObstacleGrid::derive_cell_size`). Throws std::invalid_argument
  /// for a wall whose `obstruction_loss_db` is negative or not finite: the
  /// early stop and `min_loss_db` both rely on walls only adding loss.
  ObstacleShadowingModel(std::unique_ptr<PathLossModel> base, std::vector<Wall> walls,
                         bool use_index = true, double index_cell_m = 0.0);
  ~ObstacleShadowingModel() override;
  [[nodiscard]] double loss_db(geo::Vec2 tx, geo::Vec2 rx) const override;
  [[nodiscard]] double loss_db_capped(geo::Vec2 tx, geo::Vec2 rx, double cap_db,
                                      CullHint* hint = nullptr) const override;
  /// Walls only ever add loss, so the base model's bound stays valid.
  [[nodiscard]] double min_loss_db(double distance_m) const override;

  /// Walls crossed by the segment tx-rx (the NLOS "depth" of a link).
  [[nodiscard]] std::size_t walls_crossed(geo::Vec2 tx, geo::Vec2 rx) const;

  [[nodiscard]] const std::vector<Wall>& walls() const { return walls_; }
  [[nodiscard]] bool index_enabled() const { return grid_ != nullptr; }
  /// Null when the model runs brute force.
  [[nodiscard]] const geo::ObstacleGrid* index() const { return grid_.get(); }
  /// Queries that reached the index so far — the engagement proof for
  /// benches and CI (relaxed counter: queries may come from several threads
  /// sharing the model). Each ray walk counts, and so does a capped query
  /// whose hint settled it without a walk. A capped query whose base loss
  /// is already past its cap reaches nothing and is not counted. Always 0
  /// in brute-force mode.
  [[nodiscard]] std::uint64_t index_queries() const {
    return index_queries_.load(std::memory_order_relaxed);
  }

 private:
  /// Axis-aligned bounds of a wall or of a ray.
  struct Box {
    double min_x, min_y, max_x, max_y;
    [[nodiscard]] static Box of(geo::Vec2 a, geo::Vec2 b);
  };

  /// True when wall `i` crosses ray tx-rx (bounds `ray`): a bounding-box
  /// reject, then the exact `segments_intersect`.
  [[nodiscard]] bool crosses(const Box& ray, geo::Vec2 tx, geo::Vec2 rx, std::uint32_t i) const;
  /// Adds each wall crossing ray tx-rx to `found` and calls `on_new(i)` for
  /// it once, in walk order through the index or ascending on a scan.
  /// `on_new` returns false to stop; the result is false when it stopped.
  template <typename OnNew>
  bool collect_crossings(geo::Vec2 tx, geo::Vec2 rx, geo::CrossingIds& found,
                         OnNew&& on_new) const;
  /// True when the hinted walls that still cross ray tx-rx, summed onto
  /// `base_db` in ascending order, pass `limit_db`.
  [[nodiscard]] bool hint_confirms(geo::Vec2 tx, geo::Vec2 rx, double base_db, double limit_db,
                                   const CullHint& hint) const;
  /// `base_db` plus the attenuation of every wall in `found`, in ascending
  /// wall order.
  [[nodiscard]] double ascending_sum(double base_db, const geo::CrossingIds& found) const;

  std::unique_ptr<PathLossModel> base_;
  std::vector<Wall> walls_;
  std::vector<Box> boxes_;  // parallel to walls_
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

  // --- Range culling (README "Scaling the medium") ---

  /// Links below this deterministic receive power (dBm, path loss and
  /// antenna gains only) are out of range: no draw, no interference, counted
  /// as dropped_below_sensitivity. Keep a healthy margin below
  /// rx_sensitivity_dbm so post-shadowing/fading upside cannot matter:
  /// default is 15 dB under the default -95 dBm sensitivity (> 5 sigma of
  /// typical shadowing).
  double power_floor_dbm{-110.0};
  /// Upper bound on station speed, used to pad the cull radius against
  /// recorded positions that are up to one position sweep (100 ms) stale.
  /// Stations moving faster than this can be culled while audible.
  double max_station_speed_mps{50.0};
};

}  // namespace rst::dot11p
