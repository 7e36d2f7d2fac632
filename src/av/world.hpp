// Synthetic NuScenes-like autonomous-vehicle world.
//
// The paper's AV task (§5.1) runs two detectors over time-aligned data: the
// Second/PointPillars LIDAR model over point clouds and SSD over camera
// images, sampled at 2 Hz in scenes. The `agree` assertion projects LIDAR 3D
// boxes onto the camera plane and checks overlap with 2D detections; a
// custom weak-supervision rule imputes 2D boxes from the 3D predictions.
//
// This simulator builds 3D scenes of moving vehicles and derives the two
// modalities from the shared world:
//   * LIDAR: a fixed (bootstrapped) detector simulated with distance-
//     dependent recall, box-size noise, occasional oversized boxes and rare
//     ghosts — decorrelated from the camera's failure modes.
//   * Camera: trainable proposal scoring, exactly like the video domain,
//     with its own hard sub-populations (distant and dark vehicles under-
//     represented in pretraining; reflections for multibox).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "eval/detection_metrics.hpp"
#include "geometry/box.hpp"
#include "nn/trainer.hpp"

namespace omg::av {

/// Camera-visibility sub-population of a vehicle.
enum class VehicleKind {
  kNear,        ///< close, well-lit: matches camera pretraining
  kDistant,     ///< far: camera-hard, LIDAR still sees it
  kDark,        ///< boundary camera features, high frame noise
  kReflective,  ///< spawns camera reflection distractors (multibox)
};

/// One candidate camera region with features (same contract as video).
struct CameraProposal {
  geometry::Box2D box;
  std::vector<double> features;
  bool is_vehicle = false;
  std::int64_t truth_id = -1;
};

/// One time-aligned sample (2 Hz): camera proposals + LIDAR detections +
/// ground truth in both spaces.
struct AvSample {
  std::size_t index = 0;
  double timestamp = 0.0;
  std::string scene;
  std::vector<CameraProposal> proposals;
  /// The fixed LIDAR model's output 3D boxes for this sample.
  std::vector<geometry::Box3D> lidar_boxes;
  /// Ground truth.
  std::vector<geometry::Box3D> truths_3d;
  std::vector<eval::GroundTruthBox> truths_2d;
  std::vector<std::int64_t> truth_ids;
};

/// World parameters (defaults used by the benches).
struct AvWorldConfig {
  double sample_hz = 2.0;
  std::size_t samples_per_scene = 40;  ///< 20 s scenes, as in NuScenes
  double expected_vehicles = 5.0;      ///< per scene
  /// Hard sub-populations are rare, as on the road: random sampling meets
  /// them slowly, which is what assertion-driven selection exploits.
  double frac_distant = 0.16;
  double frac_dark = 0.08;
  double frac_reflective = 0.09;
  std::size_t feature_dim = 8;
  geometry::Camera camera;
  /// LIDAR model characteristics.
  double lidar_recall_near = 0.97;   ///< z < 30 m
  double lidar_recall_far = 0.82;    ///< z >= 30 m
  double lidar_oversize_rate = 0.03;
  double lidar_ghost_rate = 0.05;    ///< expected ghosts per sample
  /// Expected camera clutter proposals per sample.
  double clutter_rate = 1.2;
};

/// Deterministic AV world.
class AvWorld {
 public:
  AvWorld(AvWorldConfig config, std::uint64_t seed);

  /// Generates `count` complete scenes (count * samples_per_scene samples).
  std::vector<AvSample> GenerateScenes(std::size_t count);

  /// Camera pretraining set: near vehicles + generic clutter only.
  nn::Dataset PretrainingSet(std::size_t positives, std::size_t negatives);

  /// Human labels for every camera proposal of a sample.
  static nn::Dataset LabelSample(const AvSample& sample);

 private:
  struct Vehicle {
    std::int64_t id;
    VehicleKind kind;
    double x, z;        // lateral / depth, metres (y = ground)
    double vx, vz;      // metres per sample step
    double width, height, depth;
    std::size_t archetype = 0;
    std::vector<double> appearance_offset;
    int reflection_steps_left = 0;
  };

  geometry::Box3D VehicleBox(const Vehicle& vehicle) const;
  std::vector<double> VehicleFeatures(const Vehicle& vehicle);
  std::vector<double> ReflectionFeatures(const Vehicle& vehicle);
  std::vector<double> ClutterFeatures();

  AvWorldConfig config_;
  common::Rng rng_;
  std::vector<std::vector<double>> hard_archetypes_;
  std::vector<std::vector<double>> reflection_archetypes_;
  std::int64_t next_vehicle_id_ = 0;
  std::size_t sample_index_ = 0;
  std::size_t scene_counter_ = 0;
};

}  // namespace omg::av
