#pragma once

#include <cstdint>
#include <vector>

#include "rst/geo/vec2.hpp"
#include "rst/sim/time.hpp"

namespace rst::roadside {

struct AssociatorConfig {
  /// Maximum distance between a detection and a track's predicted position
  /// for them to be associated.
  double gating_distance_m{0.9};
  /// Tracks not updated for this long are dropped.
  sim::SimTime track_timeout{sim::SimTime::milliseconds(1200)};
  /// Velocity smoothing factor for the constant-velocity prediction.
  double velocity_blend{0.4};
};

/// Frame-to-frame data association: real detectors output anonymous boxes,
/// so downstream services need track identities assigned by geometry.
/// Greedy nearest-neighbour assignment against constant-velocity track
/// predictions, with gating and track aging.
class DetectionAssociator {
 public:
  using Config = AssociatorConfig;

  explicit DetectionAssociator(Config config = {}) : config_{config} {}

  /// Associates one frame's detections (world positions) and returns the
  /// track id for each input, in order. Unmatched detections start new
  /// tracks. The ids stay valid until the next call; the working vectors
  /// keep their capacity, so a warm associator allocates nothing per frame.
  const std::vector<std::uint32_t>& associate(const std::vector<geo::Vec2>& detections,
                                              sim::SimTime now);

  [[nodiscard]] std::size_t active_tracks() const { return tracks_.size(); }

 private:
  struct Track {
    std::uint32_t id;
    geo::Vec2 position;
    geo::Vec2 velocity;
    sim::SimTime last_update;
  };

  Config config_;
  std::vector<Track> tracks_;
  std::uint32_t next_id_{1};
  // Per-frame working state, kept for its capacity.
  std::vector<geo::Vec2> predicted_;
  std::vector<bool> track_used_;
  std::vector<bool> det_used_;
  std::vector<std::uint32_t> assigned_;
};

}  // namespace rst::roadside
