#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rst/dot11p/channel.hpp"
#include "rst/geo/vec2.hpp"
#include "rst/sim/scheduler.hpp"

namespace rst::sim {
class FaultInjector;
}

namespace rst::roadside {

/// How the scale vehicle presents itself to the road-side camera — the
/// three options the paper explored to get a steady detection (Fig. 7):
/// the bare robot (flickering 'motorbike'), the original Traxxas body
/// shell ('car'/'truck' oscillation, angle-sensitive), and the cardboard
/// stop sign on top (resilient).
enum class Presentation : std::uint8_t { BareRobot, BodyShell, StopSign };

/// An object the camera can observe.
struct CameraObject {
  std::uint32_t id{0};
  std::function<geo::Vec2()> position;
  Presentation presentation{Presentation::StopSign};
  std::string ground_truth_class{"car"};
};

/// One observed object within a captured frame.
struct ObservedObject {
  std::uint32_t id{0};
  double true_distance_m{0};
  double bearing_rad{0};  ///< relative to the camera axis
  Presentation presentation{Presentation::StopSign};
};

/// One captured frame.
struct CameraFrame {
  sim::SimTime capture_time{};
  std::uint64_t frame_number{0};
  std::vector<ObservedObject> objects;
};

/// The road-side ZED camera: fixed pose, horizontal field of view, maximum
/// range. `capture()` renders the currently visible objects. Frame pacing
/// is driven by the consumer (the ObjectDetectionService processes at
/// ~4 FPS, slower than the sensor's native rate, and always grabs the most
/// recent frame — so capture-on-demand is equivalent).
class RoadsideCamera {
 public:
  struct Config {
    geo::Vec2 position{};
    double facing_rad{0};           ///< ITS heading of the optical axis
    double fov_half_angle_rad{0.96};  ///< ZED ~110 deg horizontal FOV
    double max_range_m{12.0};
  };

  RoadsideCamera(sim::Scheduler& sched, Config config);

  void add_object(CameraObject object);
  /// Walls block the optical line of sight (as they do for radio/LiDAR).
  void set_walls(std::vector<dot11p::Wall> walls) { walls_ = std::move(walls); }

  [[nodiscard]] CameraFrame capture() {
    CameraFrame frame;
    capture(frame);
    return frame;
  }
  /// Captures into `frame`, reusing its object list's capacity.
  void capture(CameraFrame& frame);
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] std::uint64_t frames_captured() const { return frame_counter_; }

  /// Subscribes the camera to a fault plan (injection point "camera"):
  /// CameraFreeze replays the last pre-window frame's objects, CameraDrop
  /// returns empty frames with probability `severity`. Null detaches.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

  struct Stats {
    std::uint64_t frames_frozen{0};
    std::uint64_t frames_dropped{0};
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  sim::Scheduler& sched_;
  Config config_;
  std::vector<CameraObject> objects_;
  std::vector<dot11p::Wall> walls_;
  std::uint64_t frame_counter_{0};
  sim::FaultInjector* faults_{nullptr};
  /// Object list of the last live frame, replayed during a freeze window.
  std::vector<ObservedObject> last_objects_;
  Stats stats_;
};

}  // namespace rst::roadside
