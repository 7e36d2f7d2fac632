// Cross-module integration tests: full deployment flows through the public
// API, spanning simulator -> model -> assertions -> monitoring / selection
// / weak supervision, plus the report layer.
#include <gtest/gtest.h>

#include <set>

#include "bandit/bal.hpp"
#include "bandit/ccmab.hpp"
#include "core/incremental.hpp"
#include "core/report.hpp"
#include "ecg/pipeline.hpp"
#include "video/pipeline.hpp"

namespace omg {
namespace {

video::VideoPipelineConfig SmallVideoConfig() {
  video::VideoPipelineConfig config;
  config.pool_frames = 200;
  config.test_frames = 60;
  config.pretrain_positives = 300;
  config.pretrain_negatives = 400;
  return config;
}

TEST(Integration, MonitorAndBatchAgreeOnFirings) {
  // Streaming evaluation over the deployed stream must emit exactly the
  // firings the batch suite reports for settled examples (the windowed
  // view can only miss long-range retroactive effects, which the chosen
  // window is large enough to contain).
  video::VideoPipeline pipeline(SmallVideoConfig());
  const auto examples = pipeline.MakeExamples(pipeline.pool());

  video::VideoSuite batch_suite = video::BuildVideoSuite();
  const core::SeverityMatrix batch = batch_suite.suite.CheckAll(examples);

  video::VideoSuite stream_suite = video::BuildVideoSuite();
  core::IncrementalWindowEvaluator<video::VideoExample> evaluator(
      stream_suite.suite, {/*window=*/40, /*settle_lag=*/10, {}});
  const auto names = batch_suite.suite.Names();
  std::set<std::pair<std::size_t, std::string>> streamed;
  for (const auto& example : examples) {
    stream_suite.consistency->Invalidate();
    evaluator.Observe(example, [&](std::size_t global, std::size_t a,
                                   double) {
      streamed.insert({global, names[a]});
    });
  }

  // Every batch firing in the settled region must have been streamed.
  std::size_t batch_fired = 0;
  for (std::size_t e = 0; e + 10 < examples.size(); ++e) {
    if (e < 40) continue;  // ramp-up region: window semantics differ
    for (std::size_t a = 0; a < names.size(); ++a) {
      if (!batch.Fired(e, a)) continue;
      // Temporal assertions evaluated over the full stream can fire on
      // gaps longer than the streaming window view; only same-window
      // phenomena must match. All our video assertions act within a
      // 1-second (5-frame) horizon, well inside the window.
      ++batch_fired;
      EXPECT_TRUE(streamed.contains({e, names[a]}))
          << "missed " << names[a] << " at " << e;
    }
  }
  EXPECT_GT(batch_fired, 0u);
}

TEST(Integration, ReportSummariesMatchMatrix) {
  video::VideoPipeline pipeline(SmallVideoConfig());
  const core::SeverityMatrix matrix = pipeline.ComputeSeverities();
  const auto names = pipeline.suite().suite.Names();
  const auto summaries = core::Summarize(matrix, names);
  ASSERT_EQ(summaries.size(), names.size());
  const auto counts = matrix.FireCounts();
  for (std::size_t a = 0; a < names.size(); ++a) {
    EXPECT_EQ(summaries[a].examples_fired, counts[a]);
    EXPECT_EQ(summaries[a].assertion, names[a]);
    if (counts[a] > 0) {
      EXPECT_GT(summaries[a].max_severity, 0.0);
      EXPECT_GT(summaries[a].mean_severity, 0.0);
      EXPECT_LE(summaries[a].mean_severity, summaries[a].max_severity);
    }
  }
  const std::string rendered = core::RenderSummaries(summaries);
  for (const auto& name : names) {
    EXPECT_NE(rendered.find(name), std::string::npos);
  }
}

TEST(Integration, FullActiveLearningLoopIsDeterministic) {
  auto run = [] {
    video::VideoPipeline pipeline(SmallVideoConfig());
    bandit::BalStrategy bal(bandit::BalConfig{},
                            std::make_unique<bandit::RandomStrategy>());
    return bandit::RunActiveLearning(pipeline, bal, 2, 15, 99)
        .metric_per_round;
  };
  EXPECT_EQ(run(), run());
}

TEST(Integration, StrategiesNeverShareLabelsAcrossRounds) {
  video::VideoPipeline pipeline(SmallVideoConfig());
  bandit::UniformAssertionStrategy strategy;
  common::Rng rng(3);
  std::vector<std::size_t> labeled;
  for (std::size_t round = 0; round < 3; ++round) {
    const core::SeverityMatrix severities = pipeline.ComputeSeverities();
    const auto confidences = pipeline.Confidences();
    bandit::RoundContext context;
    context.severities = &severities;
    context.confidences = confidences;
    context.round = round;
    context.already_labeled = labeled;
    const auto picked = strategy.Select(context, 20, rng);
    for (const auto p : picked) {
      EXPECT_EQ(std::count(labeled.begin(), labeled.end(), p), 0);
    }
    labeled.insert(labeled.end(), picked.begin(), picked.end());
    pipeline.LabelAndTrain(picked);
  }
  const std::set<std::size_t> unique(labeled.begin(), labeled.end());
  EXPECT_EQ(unique.size(), labeled.size());
}

TEST(Integration, WeakSupervisionThenActiveLearningCompose) {
  // The two improvement mechanisms are complementary: weak supervision
  // first, then a round of assertion-driven labeling, should end at or
  // above weak supervision alone.
  video::VideoPipeline pipeline(SmallVideoConfig());
  const auto ws = RunVideoWeakSupervision(pipeline, 60, 20, 5);
  const double after_ws = pipeline.Evaluate();
  EXPECT_NEAR(after_ws, ws.weakly_supervised_metric, 1e-9);

  const core::SeverityMatrix severities = pipeline.ComputeSeverities();
  auto flagged = severities.FlaggedExamples();
  if (flagged.size() > 40) flagged.resize(40);
  pipeline.LabelAndTrain(flagged);
  EXPECT_GE(pipeline.Evaluate(), after_ws - 0.02);
}

TEST(Integration, EcgMonitorFlagsOscillationsLive) {
  ecg::EcgPipelineConfig config;
  config.pool_records = 20;
  config.test_records = 8;
  config.pretrain_windows = 400;
  ecg::EcgPipeline pipeline(config);
  const auto examples = pipeline.MakeExamples(pipeline.pool());

  ecg::EcgSuite suite = ecg::BuildEcgSuite(30.0);
  // Window must cover a full record so record-boundary semantics hold.
  core::IncrementalWindowEvaluator<ecg::EcgExample> evaluator(
      suite.suite, {config.generator.windows_per_record + 4, 6, {}});
  const auto names = suite.suite.Names();
  std::size_t events = 0;
  for (const auto& example : examples) {
    suite.consistency->Invalidate();
    evaluator.Observe(example, [&](std::size_t, std::size_t a, double) {
      EXPECT_EQ(names[a], "ECG");
      ++events;
    });
  }
  EXPECT_GT(events, 0u);
}

TEST(Integration, SeverityContextsFeedCcMabDirectly) {
  // The severity matrix rows are valid CC-MAB contexts once normalised —
  // the exact coupling §3 describes before simplifying to BAL.
  video::VideoPipeline pipeline(SmallVideoConfig());
  const core::SeverityMatrix severities = pipeline.ComputeSeverities();
  double max_severity = 1e-9;
  for (std::size_t e = 0; e < severities.num_examples(); ++e) {
    for (const double s : severities.Context(e)) {
      max_severity = std::max(max_severity, s);
    }
  }
  std::vector<std::vector<double>> contexts;
  for (std::size_t e = 0; e < severities.num_examples(); ++e) {
    const auto row = severities.Context(e);
    std::vector<double> context(row.begin(), row.end());
    for (double& v : context) v /= max_severity;
    contexts.push_back(std::move(context));
  }
  bandit::CcMab mab(severities.num_assertions(), bandit::CcMabConfig{});
  common::Rng rng(4);
  const auto picked = mab.SelectArms(contexts, 10, 1, rng);
  EXPECT_EQ(picked.size(), 10u);
  const std::set<std::size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), picked.size());
}

}  // namespace
}  // namespace omg
