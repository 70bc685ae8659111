#include "rst/roadside/yolo_sim.hpp"

#include <algorithm>
#include <array>

#include "rst/sim/fault_plan.hpp"

namespace rst::roadside {

namespace {
/// Labels a misclassification burst corrupts detections into: classes YOLO
/// knows but the hazard logic has no business reacting to.
constexpr std::array<std::string_view, 4> kWrongLabels = {"bird", "kite", "umbrella",
                                                          "fire hydrant"};
}  // namespace

YoloSimulator::YoloSimulator(sim::RandomStream rng, Config config)
    : rng_{rng.child("yolo")}, config_{std::move(config)} {}

const YoloSimulator::ClassProfile& YoloSimulator::profile(Presentation p) const {
  switch (p) {
    case Presentation::BareRobot: return config_.bare_robot;
    case Presentation::BodyShell: return config_.body_shell;
    case Presentation::StopSign: return config_.stop_sign;
  }
  throw std::logic_error{"YoloSimulator::profile: unknown presentation"};
}

void YoloSimulator::detect(const CameraFrame& frame, std::vector<YoloDetection>& out) {
  out.clear();
  for (const auto& obj : frame.objects) {
    const ClassProfile& prof = profile(obj.presentation);
    if (obj.true_distance_m > prof.max_range_m) continue;
    if (!rng_.bernoulli(prof.detection_probability)) continue;
    if (faults_ && faults_->active(sim::FaultKind::YoloMiss, "yolo") &&
        faults_->draw_bernoulli(sim::FaultKind::YoloMiss,
                                faults_->severity(sim::FaultKind::YoloMiss, "yolo"))) {
      continue;
    }

    YoloDetection det;
    det.object_id = obj.id;
    det.bearing_rad = obj.bearing_rad;

    // Per-frame class sampling: reproduces the label flicker the paper
    // reports for the robot/shell presentations.
    double total = 0;
    for (const auto& [label, w] : prof.labels) total += w;
    double pick = rng_.uniform(0.0, total);
    det.label = prof.labels.back().first;
    for (const auto& [label, w] : prof.labels) {
      if (pick < w) {
        det.label = label;
        break;
      }
      pick -= w;
    }
    det.confidence = std::clamp(rng_.normal(prof.confidence_mean, prof.confidence_sigma), 0.05, 0.99);
    if (faults_) {
      if (faults_->active(sim::FaultKind::YoloMisclassify, "yolo") &&
          faults_->draw_bernoulli(sim::FaultKind::YoloMisclassify,
                                  faults_->severity(sim::FaultKind::YoloMisclassify, "yolo"))) {
        auto& stream = faults_->stream(sim::FaultKind::YoloMisclassify);
        det.label = kWrongLabels[static_cast<std::size_t>(
            stream.uniform_int(0, static_cast<std::int64_t>(kWrongLabels.size()) - 1))];
      }
      // Confidence collapse: severity is the fraction of confidence lost.
      const double collapse = faults_->severity(sim::FaultKind::YoloConfidence, "yolo");
      if (collapse > 0) det.confidence = std::max(0.0, det.confidence * (1.0 - collapse));
    }

    if (obj.true_distance_m < config_.min_working_distance_m) {
      // Below the minimum working range the estimator returns its default.
      det.estimated_distance_m = config_.default_distance_m;
    } else {
      det.estimated_distance_m =
          std::max(0.0, obj.true_distance_m + rng_.normal(0.0, config_.distance_noise_sigma_m));
    }
    out.push_back(std::move(det));
  }
}

}  // namespace rst::roadside
