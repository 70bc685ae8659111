#include "rst/dot11p/channel.hpp"

#include <algorithm>
#include <cmath>

#include "rst/geo/obstacle_grid.hpp"

namespace rst::dot11p {

namespace {
constexpr double kSpeedOfLight = 299792458.0;
constexpr double kMinDistance = 0.1;  // clamp to avoid singularity at d=0
}  // namespace

FreeSpaceModel::FreeSpaceModel(double frequency_hz)
    : fixed_term_db_{20.0 * std::log10(4.0 * M_PI * frequency_hz / kSpeedOfLight)} {}

double FreeSpaceModel::loss_db(geo::Vec2 tx, geo::Vec2 rx) const {
  const double d = std::max(geo::distance(tx, rx), kMinDistance);
  return fixed_term_db_ + 20.0 * std::log10(d);
}

LogDistanceModel::LogDistanceModel(double exponent, double reference_loss_db, double reference_distance_m)
    : exponent_{exponent}, reference_loss_db_{reference_loss_db}, reference_distance_m_{reference_distance_m} {}

LogDistanceModel LogDistanceModel::its_g5(double exponent) {
  // Free-space loss at 1 m, 5.9 GHz = 47.86 dB.
  const double ref = 20.0 * std::log10(4.0 * M_PI * 5.9e9 / kSpeedOfLight);
  return LogDistanceModel{exponent, ref, 1.0};
}

double LogDistanceModel::loss_db(geo::Vec2 tx, geo::Vec2 rx) const {
  const double d = std::max(geo::distance(tx, rx), kMinDistance);
  return reference_loss_db_ + 10.0 * exponent_ * std::log10(d / reference_distance_m_);
}

DualSlopeModel::DualSlopeModel(double near_exponent, double far_exponent, double breakpoint_m,
                               double reference_loss_db, double reference_distance_m)
    : near_exponent_{near_exponent},
      far_exponent_{far_exponent},
      breakpoint_m_{breakpoint_m},
      reference_loss_db_{reference_loss_db},
      reference_distance_m_{reference_distance_m} {}

DualSlopeModel DualSlopeModel::its_g5(double near_exponent, double far_exponent,
                                      double breakpoint_m) {
  const double ref = 20.0 * std::log10(4.0 * M_PI * 5.9e9 / kSpeedOfLight);
  return DualSlopeModel{near_exponent, far_exponent, breakpoint_m, ref, 1.0};
}

double DualSlopeModel::loss_db(geo::Vec2 tx, geo::Vec2 rx) const {
  const double d = std::max(geo::distance(tx, rx), kMinDistance);
  if (d <= breakpoint_m_) {
    return reference_loss_db_ + 10.0 * near_exponent_ * std::log10(d / reference_distance_m_);
  }
  // Continuous at the breakpoint: near-slope up to it, far-slope beyond.
  return reference_loss_db_ +
         10.0 * near_exponent_ * std::log10(breakpoint_m_ / reference_distance_m_) +
         10.0 * far_exponent_ * std::log10(d / breakpoint_m_);
}

bool segments_intersect(geo::Vec2 a, geo::Vec2 b, geo::Vec2 c, geo::Vec2 d) {
  return geo::segments_intersect(a, b, c, d);
}

ObstacleShadowingModel::ObstacleShadowingModel(std::unique_ptr<PathLossModel> base,
                                               std::vector<Wall> walls, bool use_index,
                                               double index_cell_m)
    : base_{std::move(base)}, walls_{std::move(walls)} {
  boxes_.reserve(walls_.size());
  for (const auto& w : walls_) {
    boxes_.push_back({std::min(w.a.x, w.b.x), std::min(w.a.y, w.b.y),
                      std::max(w.a.x, w.b.x), std::max(w.a.y, w.b.y)});
  }
  if (use_index && !walls_.empty()) {
    std::vector<geo::Segment> segments;
    segments.reserve(walls_.size());
    for (const auto& w : walls_) segments.push_back({w.a, w.b});
    grid_ = std::make_unique<const geo::ObstacleGrid>(std::move(segments), index_cell_m);
  }
}

ObstacleShadowingModel::~ObstacleShadowingModel() = default;

namespace {
struct RayBox {
  double min_x, min_y, max_x, max_y;
  RayBox(geo::Vec2 a, geo::Vec2 b)
      : min_x{std::min(a.x, b.x)},
        min_y{std::min(a.y, b.y)},
        max_x{std::max(a.x, b.x)},
        max_y{std::max(a.y, b.y)} {}
};
}  // namespace

/// Visits the index of every wall crossing ray tx-rx in ascending wall
/// order, through the grid when enabled or a full scan otherwise. Both
/// paths apply the same box reject and exact test in the same order, so any
/// crossing-order-sensitive accumulation downstream is path-invariant.
template <typename OnWall>
void ObstacleShadowingModel::for_each_crossing(geo::Vec2 tx, geo::Vec2 rx, OnWall&& on_wall) const {
  const RayBox ray{tx, rx};
  const auto crosses = [&](std::size_t i) {
    const auto& box = boxes_[i];
    if (box.max_x < ray.min_x || box.min_x > ray.max_x || box.max_y < ray.min_y ||
        box.min_y > ray.max_y) {
      return false;
    }
    return geo::segments_intersect(tx, rx, walls_[i].a, walls_[i].b);
  };
  if (grid_) {
    index_queries_.fetch_add(1, std::memory_order_relaxed);
    grid_->for_each_candidate(tx, rx, [&](std::uint32_t i) {
      if (crosses(i)) on_wall(static_cast<std::size_t>(i));
    });
  } else {
    for (std::size_t i = 0; i < walls_.size(); ++i) {
      if (crosses(i)) on_wall(i);
    }
  }
}

bool ObstacleShadowingModel::is_nlos(geo::Vec2 tx, geo::Vec2 rx) const {
  bool nlos = false;
  for_each_crossing(tx, rx, [&](std::size_t) { nlos = true; });
  return nlos;
}

std::size_t ObstacleShadowingModel::walls_crossed(geo::Vec2 tx, geo::Vec2 rx) const {
  std::size_t crossed = 0;
  for_each_crossing(tx, rx, [&](std::size_t) { ++crossed; });
  return crossed;
}

double ObstacleShadowingModel::min_loss_db(double distance_m) const {
  return base_->min_loss_db(distance_m);
}

double ObstacleShadowingModel::loss_db(geo::Vec2 tx, geo::Vec2 rx) const {
  double loss = base_->loss_db(tx, rx);
  for_each_crossing(tx, rx, [&](std::size_t i) { loss += walls_[i].obstruction_loss_db; });
  return loss;
}

}  // namespace rst::dot11p
