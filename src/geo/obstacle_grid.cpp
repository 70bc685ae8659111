#include "rst/geo/obstacle_grid.hpp"

namespace rst::geo {

bool segments_intersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d) {
  const auto orient = [](Vec2 p, Vec2 q, Vec2 r) {
    const double v = (q - p).cross(r - p);
    return v > 0 ? 1 : (v < 0 ? -1 : 0);
  };
  const int o1 = orient(a, b, c);
  const int o2 = orient(a, b, d);
  const int o3 = orient(c, d, a);
  const int o4 = orient(c, d, b);
  if (o1 != o2 && o3 != o4) return true;
  const auto on_segment = [](Vec2 p, Vec2 q, Vec2 r) {
    return std::min(p.x, r.x) <= q.x && q.x <= std::max(p.x, r.x) &&
           std::min(p.y, r.y) <= q.y && q.y <= std::max(p.y, r.y);
  };
  if (o1 == 0 && on_segment(a, c, b)) return true;
  if (o2 == 0 && on_segment(a, d, b)) return true;
  if (o3 == 0 && on_segment(c, a, d)) return true;
  if (o4 == 0 && on_segment(c, b, d)) return true;
  return false;
}

double ObstacleGrid::derive_cell_size(const std::vector<Segment>& segments) {
  if (segments.empty()) return 64.0;
  double sum = 0.0;
  for (const Segment& s : segments) {
    sum += std::max(std::abs(s.b.x - s.a.x), std::abs(s.b.y - s.a.y));
  }
  return std::clamp(sum / static_cast<double>(segments.size()), 4.0, 1024.0);
}

ObstacleGrid::ObstacleGrid(std::vector<Segment> segments, double cell_m)
    : cell_m_{cell_m > 0.0 ? cell_m : derive_cell_size(segments)},
      segments_{std::move(segments)} {
  // Two passes over the per-segment cell ranges build the CSR layout
  // without intermediate per-cell vectors: count, prefix-sum, fill.
  const auto for_each_cell_of = [this](const Segment& s, auto&& fn) {
    const std::int32_t cx0 = cell_coord(std::min(s.a.x, s.b.x));
    const std::int32_t cx1 = cell_coord(std::max(s.a.x, s.b.x));
    const std::int32_t cy0 = cell_coord(std::min(s.a.y, s.b.y));
    const std::int32_t cy1 = cell_coord(std::max(s.a.y, s.b.y));
    for (std::int32_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int32_t cx = cx0; cx <= cx1; ++cx) fn(key(cx, cy));
    }
  };
  std::size_t total = 0;
  for (const Segment& s : segments_) {
    for_each_cell_of(s, [&](std::uint64_t k) {
      ++cells_[k].end;  // count phase: `end` temporarily holds the bin size
      ++total;
    });
  }
  std::uint32_t offset = 0;
  for (auto& [k, range] : cells_) {
    range.begin = offset;
    offset += range.end;
    range.end = range.begin;  // fill cursor; advances to the true end below
  }
  ids_.resize(total);
  for (std::uint32_t id = 0; id < segments_.size(); ++id) {
    for_each_cell_of(segments_[id], [&](std::uint64_t k) { ids_[cells_[k].end++] = id; });
  }
}

std::int32_t ObstacleGrid::cell_coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_m_));
}

std::size_t ObstacleGrid::crossings(Vec2 a, Vec2 b) const {
  CrossingIds found;
  for_each_candidate(a, b, [&](std::uint32_t id) {
    const Segment& s = segments_[id];
    if (segments_intersect(a, b, s.a, s.b)) found.insert(id);
    return true;
  });
  return found.size();
}

}  // namespace rst::geo
