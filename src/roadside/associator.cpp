#include "rst/roadside/associator.hpp"

#include <algorithm>
#include <limits>

namespace rst::roadside {

const std::vector<std::uint32_t>& DetectionAssociator::associate(
    const std::vector<geo::Vec2>& detections, sim::SimTime now) {
  // Age out stale tracks.
  std::erase_if(tracks_, [&](const Track& t) { return now - t.last_update > config_.track_timeout; });

  // Predicted positions for this instant.
  predicted_.clear();
  for (const auto& t : tracks_) {
    predicted_.push_back(t.position + t.velocity * (now - t.last_update).to_seconds());
  }

  assigned_.assign(detections.size(), 0);
  track_used_.assign(tracks_.size(), false);
  det_used_.assign(detections.size(), false);

  // Greedy global-nearest-neighbour: repeatedly take the closest
  // (track, detection) pair inside the gate.
  while (true) {
    double best = config_.gating_distance_m;
    std::size_t best_track = tracks_.size();
    std::size_t best_det = detections.size();
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
      if (track_used_[t]) continue;
      for (std::size_t d = 0; d < detections.size(); ++d) {
        if (det_used_[d]) continue;
        const double dist = geo::distance(predicted_[t], detections[d]);
        if (dist <= best) {
          best = dist;
          best_track = t;
          best_det = d;
        }
      }
    }
    if (best_track == tracks_.size()) break;
    track_used_[best_track] = true;
    det_used_[best_det] = true;

    Track& track = tracks_[best_track];
    const double dt = (now - track.last_update).to_seconds();
    if (dt > 0) {
      const geo::Vec2 raw_velocity = (detections[best_det] - track.position) / dt;
      track.velocity = track.velocity * (1.0 - config_.velocity_blend) +
                       raw_velocity * config_.velocity_blend;
    }
    track.position = detections[best_det];
    track.last_update = now;
    assigned_[best_det] = track.id;
  }

  // New tracks for unmatched detections.
  for (std::size_t d = 0; d < detections.size(); ++d) {
    if (det_used_[d]) continue;
    Track fresh;
    fresh.id = next_id_++;
    fresh.position = detections[d];
    fresh.velocity = {};
    fresh.last_update = now;
    tracks_.push_back(fresh);
    assigned_[d] = fresh.id;
  }
  return assigned_;
}

}  // namespace rst::roadside
