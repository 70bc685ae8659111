#pragma once

#include <string>
#include <vector>

#include "rst/roadside/camera.hpp"
#include "rst/sim/random.hpp"

namespace rst::sim {
class FaultInjector;
}

namespace rst::roadside {

/// A single YOLO bounding-box result for one frame.
struct YoloDetection {
  std::uint32_t object_id{0};  ///< simulator-side identity (perfect tracking)
  std::string label;           ///< predicted class ("motorbike", "car", "stop sign", ...)
  double confidence{0};
  double estimated_distance_m{0};
  double bearing_rad{0};
};

struct ClassProfile {
  double detection_probability{0.9};
  double max_range_m{6.0};
  /// (label, weight) pairs the classifier samples from per frame.
  std::vector<std::pair<std::string, double>> labels;
  double confidence_mean{0.7};
  double confidence_sigma{0.12};
};

struct YoloConfig {
  double distance_noise_sigma_m{0.03};
  double min_working_distance_m{0.75};
  double default_distance_m{1.73};
  ClassProfile bare_robot{
      .detection_probability = 0.45,
      .max_range_m = 2.0,
      .labels = {{"motorbike", 0.75}, {"bicycle", 0.25}},
      .confidence_mean = 0.42,
      .confidence_sigma = 0.12,
  };
  ClassProfile body_shell{
      .detection_probability = 0.65,
      .max_range_m = 2.5,
      .labels = {{"car", 0.55}, {"truck", 0.45}},
      .confidence_mean = 0.55,
      .confidence_sigma = 0.12,
  };
  ClassProfile stop_sign{
      .detection_probability = 0.97,
      .max_range_m = 6.0,
      .labels = {{"stop sign", 1.0}},
      .confidence_mean = 0.88,
      .confidence_sigma = 0.05,
  };
};

/// Behavioural simulator of the YOLOv3/Darknet detector the paper runs on
/// the Jetson NX, reproducing the empirically observed quirks (§III-C2):
///  * per-frame detection is unreliable and class labels flicker for the
///    bare robot; the Traxxas body shell oscillates between car and truck;
///    the stop sign is detected resiliently;
///  * the usable recognition range depends on the presentation;
///  * distance estimation has a minimum working range: "YOLO can only
///    detect objects up to approximately 75 cm; under this value,
///    estimated distance defaults to 1.73 m".
class YoloSimulator {
 public:
  using ClassProfile = roadside::ClassProfile;

  using Config = YoloConfig;

  YoloSimulator(sim::RandomStream rng, Config config = {});

  /// Runs detection over one frame (no latency here; the caller models the
  /// inference pipeline timing).
  [[nodiscard]] std::vector<YoloDetection> detect(const CameraFrame& frame) {
    std::vector<YoloDetection> out;
    detect(frame, out);
    return out;
  }
  /// As above, into `out` (cleared first, its capacity reused).
  void detect(const CameraFrame& frame, std::vector<YoloDetection>& out);

  [[nodiscard]] const ClassProfile& profile(Presentation p) const;
  [[nodiscard]] const Config& config() const { return config_; }

  /// Subscribes the detector to a fault plan (injection point "yolo"):
  /// YoloMiss suppresses detections with probability `severity` (on top of
  /// the profile's own miss rate), YoloMisclassify corrupts labels with
  /// probability `severity`, YoloConfidence multiplies confidences by
  /// 1-severity (collapse). All draws come from the injector's streams, so
  /// the detector's own stream is untouched outside fault windows.
  void set_fault_injector(sim::FaultInjector* faults) { faults_ = faults; }

 private:
  sim::RandomStream rng_;
  Config config_;
  sim::FaultInjector* faults_{nullptr};
};

}  // namespace rst::roadside
