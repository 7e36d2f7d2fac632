// Property-based sweeps (parameterized gtest) over cross-cutting library
// invariants: randomised consistency streams, BAL budget discipline across
// seeds and pool shapes, severity-matrix/bandit contracts, and detection
// metric bounds under random workloads.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "bandit/bal.hpp"
#include "common/rng.hpp"
#include "core/consistency.hpp"
#include "eval/detection_metrics.hpp"
#include "video/assertions.hpp"

namespace omg {
namespace {

// ---------- Consistency engine properties over random streams ----------

struct ConsistencyCase {
  std::uint64_t seed;
  double threshold;
  std::size_t frames;
};

class ConsistencyRandomStream
    : public ::testing::TestWithParam<ConsistencyCase> {};

TEST_P(ConsistencyRandomStream, InvariantsHold) {
  const auto param = GetParam();
  common::Rng rng(param.seed);

  // Random presence patterns for a handful of identifiers across frames.
  std::vector<core::ConsistencyFrame> frames;
  for (std::size_t i = 0; i < param.frames; ++i) {
    frames.push_back({i, static_cast<double>(i), "g"});
  }
  std::vector<core::ConsistencyRecord> records;
  std::map<std::string, std::vector<bool>> presence;
  for (int id = 0; id < 4; ++id) {
    const std::string identifier = "obj-" + std::to_string(id);
    auto& mask = presence[identifier];
    mask.resize(param.frames);
    for (std::size_t i = 0; i < param.frames; ++i) {
      mask[i] = rng.Bernoulli(0.6);
      if (!mask[i]) continue;
      core::ConsistencyRecord record;
      record.example_index = i;
      record.timestamp = static_cast<double>(i);
      record.group = "g";
      record.identifier = identifier;
      records.push_back(std::move(record));
    }
  }

  core::ConsistencyConfig config;
  config.temporal_threshold = param.threshold;
  const core::ConsistencyEngine engine(config);
  const auto result = engine.Analyze(frames, records, param.frames);

  ASSERT_EQ(result.assertion_names.size(), 2u);
  // (1) Severities are non-negative and sized to the stream.
  for (const auto& column : result.severities) {
    ASSERT_EQ(column.size(), param.frames);
    for (const double s : column) EXPECT_GE(s, 0.0);
  }
  // (2) flicker only fires on frames where at least one identifier is
  // absent between two presences, and the enclosing gap is < threshold.
  for (std::size_t i = 0; i < param.frames; ++i) {
    if (result.severities[0][i] <= 0.0) continue;
    bool justified = false;
    for (const auto& [identifier, mask] : presence) {
      if (mask[i]) continue;
      // Find the enclosing gap.
      std::size_t lo = i;
      while (lo > 0 && !mask[lo - 1]) --lo;
      std::size_t hi = i;
      while (hi + 1 < param.frames && !mask[hi + 1]) ++hi;
      if (lo == 0 || hi + 1 >= param.frames) continue;  // boundary gap
      const double gap =
          static_cast<double>(hi + 1) - static_cast<double>(lo - 1);
      if (gap < param.threshold) justified = true;
    }
    EXPECT_TRUE(justified) << "unjustified flicker at frame " << i;
  }
  // (3) every correction points at a valid example.
  for (const auto& correction : result.corrections) {
    EXPECT_LT(correction.example_index, param.frames);
    if (correction.kind == core::CorrectionKind::kAddOutput) {
      EXPECT_FALSE(correction.support_records.empty());
      for (const std::size_t r : correction.support_records) {
        EXPECT_LT(r, records.size());
      }
    }
  }
  // (4) determinism: re-analysis is identical, corrections field by field.
  const auto again = engine.Analyze(frames, records, param.frames);
  EXPECT_EQ(again.severities, result.severities);
  const auto fields = [](const core::Correction& c) {
    return std::tie(c.kind, c.group, c.identifier, c.example_index,
                    c.timestamp, c.output_index, c.attribute_key,
                    c.proposed_value, c.support_records);
  };
  ASSERT_EQ(again.corrections.size(), result.corrections.size());
  for (std::size_t c = 0; c < result.corrections.size(); ++c) {
    EXPECT_TRUE(fields(again.corrections[c]) == fields(result.corrections[c]))
        << "correction " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, ConsistencyRandomStream,
    ::testing::Values(ConsistencyCase{1, 2.0, 30},
                      ConsistencyCase{2, 3.0, 50},
                      ConsistencyCase{3, 1.5, 80},
                      ConsistencyCase{4, 5.0, 40},
                      ConsistencyCase{5, 2.5, 120},
                      ConsistencyCase{6, 4.0, 25}));

// ---------- BAL discipline across seeds / budgets / pool shapes ----------

struct BalCase {
  std::uint64_t seed;
  std::size_t pool;
  std::size_t assertions;
  std::size_t budget;
};

class BalDiscipline : public ::testing::TestWithParam<BalCase> {};

TEST_P(BalDiscipline, BudgetAndUniquenessUnderRandomSeverities) {
  const auto param = GetParam();
  common::Rng rng(param.seed);
  core::SeverityMatrix severities(param.pool, param.assertions);
  for (std::size_t e = 0; e < param.pool; ++e) {
    for (std::size_t a = 0; a < param.assertions; ++a) {
      if (rng.Bernoulli(0.2)) severities.Set(e, a, rng.Uniform(0.1, 5.0));
    }
  }
  std::vector<double> confidences(param.pool);
  for (double& c : confidences) c = rng.Uniform(0.34, 1.0);

  bandit::BalStrategy bal(bandit::BalConfig{},
                          std::make_unique<bandit::RandomStrategy>());
  std::vector<std::size_t> labeled;
  for (std::size_t round = 0; round < 4; ++round) {
    bandit::RoundContext context;
    context.severities = &severities;
    context.confidences = confidences;
    context.round = round;
    context.already_labeled = labeled;
    const auto picked = bal.Select(context, param.budget, rng);
    // Budget respected; no duplicates; no already-labeled repeats;
    // indices valid.
    EXPECT_LE(picked.size(), param.budget);
    std::set<std::size_t> unique(picked.begin(), picked.end());
    EXPECT_EQ(unique.size(), picked.size());
    for (const auto p : picked) {
      EXPECT_LT(p, param.pool);
      EXPECT_EQ(std::count(labeled.begin(), labeled.end(), p), 0);
    }
    labeled.insert(labeled.end(), picked.begin(), picked.end());
    if (labeled.size() == param.pool) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, BalDiscipline,
    ::testing::Values(BalCase{1, 50, 1, 10}, BalCase{2, 50, 3, 10},
                      BalCase{3, 200, 2, 25}, BalCase{4, 200, 5, 60},
                      BalCase{5, 30, 4, 30},  // budget == pool
                      BalCase{6, 10, 2, 20},  // budget > pool
                      BalCase{7, 500, 3, 40}));

// ---------- Detection metrics over random workloads ----------

class ApRandomWorkload : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApRandomWorkload, BoundsAndPerfectionInvariants) {
  common::Rng rng(GetParam());
  std::vector<eval::FrameEval> frames;
  for (int f = 0; f < 30; ++f) {
    eval::FrameEval frame;
    const auto truths = static_cast<std::size_t>(rng.UniformInt(0, 4));
    for (std::size_t t = 0; t < truths; ++t) {
      const double x = rng.Uniform(0, 400);
      const double y = rng.Uniform(0, 400);
      frame.truths.push_back(
          {geometry::Box2D{x, y, x + 40, y + 30}, "car"});
    }
    const auto dets = static_cast<std::size_t>(rng.UniformInt(0, 6));
    for (std::size_t d = 0; d < dets; ++d) {
      const double x = rng.Uniform(0, 400);
      const double y = rng.Uniform(0, 400);
      frame.detections.push_back({geometry::Box2D{x, y, x + 40, y + 30},
                                  "car", rng.Uniform(), -1});
    }
    frames.push_back(std::move(frame));
  }
  const double ap = eval::AveragePrecision(frames, "car");
  EXPECT_GE(ap, 0.0);
  EXPECT_LE(ap, 1.0);

  // Replacing detections with the exact ground truth yields AP = 1.
  std::vector<eval::FrameEval> perfect = frames;
  for (auto& frame : perfect) {
    frame.detections.clear();
    for (const auto& truth : frame.truths) {
      frame.detections.push_back({truth.box, truth.label, 0.9, 0});
    }
  }
  bool any_truth = false;
  for (const auto& frame : perfect) any_truth |= !frame.truths.empty();
  if (any_truth) {
    EXPECT_DOUBLE_EQ(eval::AveragePrecision(perfect, "car"), 1.0);
  }

  // Adding a low-confidence false positive never raises AP.
  std::vector<eval::FrameEval> degraded = frames;
  degraded.front().detections.push_back(
      {geometry::Box2D{900, 900, 940, 930}, "car", 0.01, -1});
  EXPECT_LE(eval::AveragePrecision(degraded, "car") - 1e-12, ap);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApRandomWorkload,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------- Multibox combinatorics ----------

class MultiboxStacks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiboxStacks, CountsChooseThree) {
  const std::size_t n = GetParam();
  std::vector<geometry::Detection> dets;
  for (std::size_t i = 0; i < n; ++i) {
    dets.push_back({geometry::Box2D{i * 1.0, 0, i * 1.0 + 100, 50}, "car",
                    0.9, static_cast<std::int64_t>(i)});
  }
  const double expected =
      n >= 3 ? static_cast<double>(n * (n - 1) * (n - 2) / 6) : 0.0;
  EXPECT_DOUBLE_EQ(video::MultiboxSeverity(dets, 0.3), expected);
}

INSTANTIATE_TEST_SUITE_P(StackSizes, MultiboxStacks,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

// ---------- Severity matrix round-trips ----------

class SeverityMatrixShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {
};

TEST_P(SeverityMatrixShapes, FireCountsMatchColumns) {
  const auto [n, d] = GetParam();
  common::Rng rng(n * 31 + d);
  core::SeverityMatrix matrix(n, d);
  std::vector<std::size_t> expected(d, 0);
  for (std::size_t e = 0; e < n; ++e) {
    for (std::size_t a = 0; a < d; ++a) {
      if (rng.Bernoulli(0.3)) {
        matrix.Set(e, a, rng.Uniform(0.1, 2.0));
        ++expected[a];
      }
    }
  }
  EXPECT_EQ(matrix.FireCounts(), expected);
  std::size_t total = 0;
  for (const auto c : expected) total += c;
  EXPECT_EQ(matrix.TotalFired(), total);
  for (std::size_t a = 0; a < d; ++a) {
    EXPECT_EQ(matrix.ExamplesFiring(a).size(), expected[a]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SeverityMatrixShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{10, 1},
                      std::pair<std::size_t, std::size_t>{1, 10},
                      std::pair<std::size_t, std::size_t>{64, 4},
                      std::pair<std::size_t, std::size_t>{200, 7}));

}  // namespace
}  // namespace omg
