// TV-news substrate (§2.2, §4.1 "Face identification in TV footage").
//
// The paper's media-studies lab runs face detection every three seconds over
// a decade of TV news, then identifies each face and classifies gender and
// hair colour with separate models; scene cuts are also computed. Because
// most hosts do not move between cuts of the same scene, the lab can assert
// that identity, gender and hair colour of faces that highly overlap within
// one scene are consistent.
//
// The simulator generates segments of scenes with anchors at stable desk
// positions and applies independent per-frame error processes to the three
// attribute models. The consistency assertion uses Id = (scene, desk slot)
// — a spatial anchor, which is why Table 3 distinguishes identifier errors
// from model-output errors — and Attrs = {identity, gender, hair}.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/assertion.hpp"
#include "core/consistency_adapter.hpp"
#include "geometry/box.hpp"

namespace omg::tvnews {

/// One face with the upstream models' outputs and the simulator's truth.
struct FaceOutput {
  geometry::Box2D box;
  // Model outputs.
  std::string identity;
  std::string gender;
  std::string hair;
  // Simulator ground truth (never visible to the assertion layer).
  std::int64_t person_id = -1;
  std::string true_identity;
  std::string true_gender;
  std::string true_hair;
};

/// One sampled frame (the paper samples every three seconds).
struct NewsFrame {
  std::size_t index = 0;
  double timestamp = 0.0;
  std::int64_t scene_id = -1;
  std::vector<FaceOutput> faces;
};

/// Generator parameters.
struct NewsConfig {
  double sample_period_seconds = 3.0;
  std::size_t min_scene_frames = 3;
  std::size_t max_scene_frames = 12;
  std::size_t people_catalog = 40;
  double identity_error_rate = 0.015;
  double gender_error_rate = 0.02;
  double hair_error_rate = 0.03;
  double frame_width = 1280.0;
  double frame_height = 720.0;
};

/// Deterministic TV-news segment generator.
class NewsGenerator {
 public:
  NewsGenerator(NewsConfig config, std::uint64_t seed);

  /// Generates `frames` sampled frames across consecutive scenes.
  std::vector<NewsFrame> Generate(std::size_t frames);

 private:
  struct Person {
    std::int64_t id;
    std::string name;
    std::string gender;
    std::string hair;
  };

  NewsConfig config_;
  common::Rng rng_;
  std::vector<Person> catalog_;
  std::size_t frame_counter_ = 0;
  std::int64_t scene_counter_ = 0;
};

/// The news suite: consistency assertions over identity/gender/hair with a
/// spatial-anchor Id function; no temporal threshold (scene cuts are hard
/// boundaries).
struct NewsSuite {
  core::AssertionSuite<NewsFrame> suite;
  std::shared_ptr<core::ConsistencyAnalyzer<NewsFrame>> consistency;
};

NewsSuite BuildNewsSuite();

/// The Id/Attrs extractor: identifier = scene + desk-slot (quantised box
/// centre), attributes = the three model outputs. Exposed for tests.
core::ConsistencyExtraction ExtractNewsRecords(
    std::span<const NewsFrame> examples);

/// Table 3 precision for the news assertions: a firing is a correct catch
/// when some face in the flagged frame has a wrong attribute (model-output
/// column); the identifier column additionally accepts anchor-association
/// mistakes (two different people sharing a desk slot within one scene).
struct NewsPrecisionSample {
  std::string assertion;
  std::size_t sampled = 0;
  std::size_t correct_model_output = 0;
  std::size_t correct_with_identifier = 0;
};

std::vector<NewsPrecisionSample> MeasureNewsAssertionPrecision(
    std::span<const NewsFrame> frames, std::size_t sample_size,
    std::uint64_t seed);

}  // namespace omg::tvnews
