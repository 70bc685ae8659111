#include "rst/dot11p/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

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
    if (!(std::isfinite(w.obstruction_loss_db) && w.obstruction_loss_db >= 0.0)) {
      throw std::invalid_argument{"obstacle wall: obstruction_loss_db must be finite and >= 0, got " +
                                  std::to_string(w.obstruction_loss_db)};
    }
    boxes_.push_back(Box::of(w.a, w.b));
  }
  if (use_index && !walls_.empty()) {
    std::vector<geo::Segment> segments;
    segments.reserve(walls_.size());
    for (const auto& w : walls_) segments.push_back({w.a, w.b});
    grid_ = std::make_unique<const geo::ObstacleGrid>(std::move(segments), index_cell_m);
  }
}

ObstacleShadowingModel::~ObstacleShadowingModel() = default;

ObstacleShadowingModel::Box ObstacleShadowingModel::Box::of(geo::Vec2 a, geo::Vec2 b) {
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x), std::max(a.y, b.y)};
}

bool ObstacleShadowingModel::crosses(const Box& ray, geo::Vec2 tx, geo::Vec2 rx,
                                     std::uint32_t i) const {
  const Box& box = boxes_[i];
  if (box.max_x < ray.min_x || box.min_x > ray.max_x || box.max_y < ray.min_y ||
      box.min_y > ray.max_y) {
    return false;
  }
  return geo::segments_intersect(tx, rx, walls_[i].a, walls_[i].b);
}

template <typename OnNew>
bool ObstacleShadowingModel::collect_crossings(geo::Vec2 tx, geo::Vec2 rx,
                                               geo::CrossingIds& found, OnNew&& on_new) const {
  const Box ray = Box::of(tx, rx);
  const auto visit = [&](std::uint32_t i) {
    if (!crosses(ray, tx, rx, i) || !found.insert(i)) return true;
    return on_new(i);
  };
  if (grid_) {
    index_queries_.fetch_add(1, std::memory_order_relaxed);
    return grid_->for_each_candidate(tx, rx, visit);
  }
  for (std::uint32_t i = 0; i < walls_.size(); ++i) {
    if (!visit(i)) return false;
  }
  return true;
}

double ObstacleShadowingModel::ascending_sum(double base_db, const geo::CrossingIds& found) const {
  double loss = base_db;
  for (const std::uint32_t i : found) loss += walls_[i].obstruction_loss_db;
  return loss;
}

std::size_t ObstacleShadowingModel::walls_crossed(geo::Vec2 tx, geo::Vec2 rx) const {
  geo::CrossingIds found;
  collect_crossings(tx, rx, found, [](std::uint32_t) { return true; });
  return found.size();
}

double ObstacleShadowingModel::min_loss_db(double distance_m) const {
  return base_->min_loss_db(distance_m);
}

double ObstacleShadowingModel::loss_db(geo::Vec2 tx, geo::Vec2 rx) const {
  return loss_db_capped(tx, rx, std::numeric_limits<double>::infinity());
}

bool ObstacleShadowingModel::hint_confirms(geo::Vec2 tx, geo::Vec2 rx, double base_db,
                                           double limit_db, const CullHint& hint) const {
  std::uint32_t lo = hint.ids[0];
  std::uint32_t hi = hint.ids[1];
  if (hi < lo) std::swap(lo, hi);
  if (lo >= walls_.size()) return false;  // empty, or ids from another wall set
  const Box ray = Box::of(tx, rx);
  double loss = base_db;
  if (crosses(ray, tx, rx, lo)) loss += walls_[lo].obstruction_loss_db;
  if (hi != lo && hi < walls_.size() && crosses(ray, tx, rx, hi)) {
    loss += walls_[hi].obstruction_loss_db;
  }
  return loss > limit_db;
}

double ObstacleShadowingModel::loss_db_capped(geo::Vec2 tx, geo::Vec2 rx, double cap_db,
                                              CullHint* hint) const {
  constexpr double kGiveUp = std::numeric_limits<double>::infinity();
  const double base = base_->loss_db(tx, rx);
  const double limit = cap_db + kCapMarginDb;
  if (base > limit) return kGiveUp;
  // Adding a non-negative wall loss never lowers a rounded sum, so the
  // ascending sum over any set of crossing walls bounds the exact one from
  // below: once it passes the limit, the exact loss does too. That holds
  // for the hinted walls and for the walls a walk has found so far. The
  // running sum (walk order) only decides when the check is worth making;
  // on the ascending scan the two sums are the same.
  if (hint != nullptr && hint_confirms(tx, rx, base, limit, *hint)) {
    if (grid_) index_queries_.fetch_add(1, std::memory_order_relaxed);
    return kGiveUp;
  }
  geo::CrossingIds found;
  double running = base;
  const bool finished = collect_crossings(tx, rx, found, [&](std::uint32_t i) {
    running += walls_[i].obstruction_loss_db;
    return !(running > limit && ascending_sum(base, found) > limit);
  });
  if (hint != nullptr) {
    // Keep the two costliest walls of a cull for the link's next query.
    *hint = CullHint{};
    if (!finished) {
      for (const std::uint32_t i : found) {
        const double loss = walls_[i].obstruction_loss_db;
        if (hint->ids[0] == CullHint::kNone || loss > walls_[hint->ids[0]].obstruction_loss_db) {
          hint->ids[1] = hint->ids[0];
          hint->ids[0] = i;
        } else if (hint->ids[1] == CullHint::kNone ||
                   loss > walls_[hint->ids[1]].obstruction_loss_db) {
          hint->ids[1] = i;
        }
      }
    }
  }
  return finished ? ascending_sum(base, found) : kGiveUp;
}

}  // namespace rst::dot11p
