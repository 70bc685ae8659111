#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rst/geo/vec2.hpp"

namespace rst::geo {

/// True when segments ab and cd intersect. The contract, pinned by
/// obstacle_index_test before any index is allowed to rely on it:
///  - proper (transversal) crossings are true;
///  - touching counts: a shared endpoint, or an endpoint lying anywhere on
///    the other segment (T-junctions), is true;
///  - collinear segments are true iff their overlap is non-empty (a single
///    shared point counts), false when collinear but disjoint;
///  - zero-length segments degenerate to points: true iff the point lies on
///    the other segment (two coincident points are true);
///  - the test is exact for exactly-representable inputs — orientation signs
///    and bounding checks only, no constructed intersection point.
[[nodiscard]] bool segments_intersect(Vec2 a, Vec2 b, Vec2 c, Vec2 d);

/// A 2-D segment with a caller-meaningful identity (its index).
struct Segment {
  Vec2 a;
  Vec2 b;
};

/// Static-obstacle ray-acceleration structure: segments bucketed into a
/// uniform cell grid (same floor/key conventions as `SpatialGrid`), queried
/// by a supercover walk that visits only the cells a tx->rx ray passes
/// through. Candidates are deduplicated (a segment spans every cell its
/// bounding box overlaps) and yielded in ascending segment-index order, so a
/// caller applying the exact `segments_intersect` test per candidate gets
/// answers — including floating-point accumulation order — bit-identical to
/// a brute-force scan in index order, at O(cells-along-ray) instead of
/// O(segments).
///
/// The structure is immutable after construction: queries touch only const
/// data plus per-thread scratch, so concurrent readers (scenarios on
/// different threads sharing one index) need no locks. Steady-state
/// queries are allocation-free once each querying thread's scratch has
/// reached its high-water capacity (obstacle_alloc_test).
class ObstacleGrid {
 public:
  /// `cell_size_m == 0` derives a size from the segment geometry
  /// (`derive_cell_size`).
  explicit ObstacleGrid(std::vector<Segment> segments, double cell_size_m = 0.0);

  [[nodiscard]] double cell_size_m() const { return cell_size_m_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] std::size_t occupied_cells() const { return cells_.size(); }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }

  /// Cell-size heuristic: the mean dominant extent of a segment, clamped to
  /// [4 m, 1024 m]. One cell then holds a handful of segments and a typical
  /// segment spans one or two cells, which keeps both the bin fan-out and
  /// the dedup set small. Correctness never depends on the choice — any
  /// positive size yields the same answers.
  [[nodiscard]] static double derive_cell_size(const std::vector<Segment>& segments);

  /// Visits a superset of the stored segments crossing ray a->b — every
  /// segment binned in a cell the ray walk passes through — exactly once, in
  /// ascending index order. Callers must re-apply the exact intersection
  /// test; candidates that merely share a cell with the ray are included.
  template <typename Visit>
  void for_each_candidate(Vec2 a, Vec2 b, Visit&& visit) const {
    if (segments_.empty()) return;
    std::vector<std::uint32_t>& seen = query_scratch();
    seen.clear();
    walk_ray_cells(a, b, [&](std::uint64_t key) {
      const auto it = cells_.find(key);
      if (it == cells_.end()) return;
      for (std::uint32_t i = it->second.begin; i != it->second.end; ++i) {
        seen.push_back(ids_[i]);
      }
    });
    dedup_ascending(seen);
    for (const std::uint32_t id : seen) visit(id);
  }

  /// Number of stored segments crossing ray a->b (exact test applied).
  [[nodiscard]] std::size_t crossings(Vec2 a, Vec2 b) const;

 private:
  struct Range {
    std::uint32_t begin{0};
    std::uint32_t end{0};
  };

  [[nodiscard]] std::int32_t cell_coord(double v) const;
  [[nodiscard]] static std::uint64_t key(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }

  /// Supercover walk: invokes `cell` for (at least) every grid cell that
  /// contains a point of segment a->b under the floor mapping. Walks the
  /// x-columns the segment spans and, per column, the y-band the segment
  /// covers there, padded by an epsilon far above interpolation rounding —
  /// floating-point error can only add candidate cells, never lose the cell
  /// holding a true crossing.
  template <typename Cell>
  void walk_ray_cells(Vec2 a, Vec2 b, Cell&& cell) const {
    if (b.x < a.x) {
      const Vec2 tmp = a;
      a = b;
      b = tmp;
    }
    const double dx = b.x - a.x;
    const double y_min = a.y < b.y ? a.y : b.y;
    const double y_max = a.y < b.y ? b.y : a.y;
    const double eps =
        1e-9 * (std::abs(a.x) + std::abs(a.y) + std::abs(b.x) + std::abs(b.y) + cell_size_m_ + 1.0);
    const std::int32_t cx0 = cell_coord(a.x);
    const std::int32_t cx1 = cell_coord(b.x);
    for (std::int32_t cx = cx0; cx <= cx1; ++cx) {
      double lo = y_min;
      double hi = y_max;
      if (dx > 0.0) {
        // The segment's y-band over this column's x-interval; endpoints of a
        // linear function sit at the clipped interval ends. Clamping keeps
        // the interpolation inside the segment's overall band.
        const double x_lo = std::max(a.x, cx * cell_size_m_);
        const double x_hi = std::min(b.x, (cx + 1) * cell_size_m_);
        const double slope = (b.y - a.y) / dx;
        const double y0 = std::clamp(a.y + (x_lo - a.x) * slope, y_min, y_max);
        const double y1 = std::clamp(a.y + (x_hi - a.x) * slope, y_min, y_max);
        lo = y0 < y1 ? y0 : y1;
        hi = y0 < y1 ? y1 : y0;
      }
      const std::int32_t cy0 = cell_coord(lo - eps);
      const std::int32_t cy1 = cell_coord(hi + eps);
      for (std::int32_t cy = cy0; cy <= cy1; ++cy) cell(key(cx, cy));
    }
  }

  /// Per-thread candidate scratch: concurrent queries never share it, and
  /// it keeps its high-water capacity so warmed threads stop allocating.
  [[nodiscard]] static std::vector<std::uint32_t>& query_scratch();
  static void dedup_ascending(std::vector<std::uint32_t>& ids);

  double cell_size_m_{0.0};
  std::vector<Segment> segments_;
  /// CSR bins: cell key -> contiguous id range in `ids_`. Built once;
  /// queries only `find`.
  std::unordered_map<std::uint64_t, Range> cells_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace rst::geo
