#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "core/assertion.hpp"
#include "core/incremental.hpp"
#include "core/severity_matrix.hpp"

namespace omg::core {
namespace {

TEST(SeverityMatrix, DefaultsToAbstain) {
  SeverityMatrix m(3, 2);
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t a = 0; a < 2; ++a) {
      EXPECT_DOUBLE_EQ(m.At(e, a), kAbstain);
      EXPECT_FALSE(m.Fired(e, a));
    }
  }
  EXPECT_EQ(m.TotalFired(), 0u);
}

TEST(SeverityMatrix, SetAndQuery) {
  SeverityMatrix m(3, 2);
  m.Set(1, 0, 2.5);
  EXPECT_TRUE(m.Fired(1, 0));
  EXPECT_TRUE(m.AnyFired(1));
  EXPECT_FALSE(m.AnyFired(0));
  EXPECT_EQ(m.FireCounts(), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(m.ExamplesFiring(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(m.FlaggedExamples(), (std::vector<std::size_t>{1}));
}

TEST(SeverityMatrix, RejectsNegativeSeverity) {
  SeverityMatrix m(1, 1);
  EXPECT_THROW(m.Set(0, 0, -1.0), common::CheckError);
}

TEST(SeverityMatrix, BoundsChecked) {
  SeverityMatrix m(2, 2);
  EXPECT_THROW(m.At(2, 0), common::CheckError);
  EXPECT_THROW(m.At(0, 2), common::CheckError);
}

TEST(SeverityMatrix, ContextIsRow) {
  SeverityMatrix m(2, 3);
  m.Set(1, 0, 1.0);
  m.Set(1, 2, 4.0);
  const auto context = m.Context(1);
  ASSERT_EQ(context.size(), 3u);
  EXPECT_DOUBLE_EQ(context[0], 1.0);
  EXPECT_DOUBLE_EQ(context[1], 0.0);
  EXPECT_DOUBLE_EQ(context[2], 4.0);
}

TEST(SeverityMatrix, SetColumn) {
  SeverityMatrix m(3, 2);
  m.SetColumn(1, std::vector<double>{1.0, 0.0, 2.0});
  EXPECT_DOUBLE_EQ(m.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 2.0);
  EXPECT_THROW(m.SetColumn(0, std::vector<double>{1.0}),
               common::CheckError);
}

struct Toy {
  double value = 0.0;
};

TEST(AssertionSuite, PointwiseAssertionRuns) {
  AssertionSuite<Toy> suite;
  suite.AddPointwise("positive",
                     [](const Toy& t) { return t.value > 0 ? 1.0 : 0.0; });
  const std::vector<Toy> stream = {{-1.0}, {2.0}, {0.0}};
  const SeverityMatrix m = suite.CheckAll(stream);
  EXPECT_FALSE(m.Fired(0, 0));
  EXPECT_TRUE(m.Fired(1, 0));
  EXPECT_FALSE(m.Fired(2, 0));
}

TEST(AssertionSuite, StreamAssertionSeesWholeStream) {
  AssertionSuite<Toy> suite;
  suite.AddFunction("delta", [](std::span<const Toy> stream) {
    std::vector<double> severities(stream.size(), 0.0);
    for (std::size_t i = 1; i < stream.size(); ++i) {
      if (stream[i].value < stream[i - 1].value) severities[i] = 1.0;
    }
    return severities;
  });
  const std::vector<Toy> stream = {{1.0}, {2.0}, {1.5}};
  const SeverityMatrix m = suite.CheckAll(stream);
  EXPECT_FALSE(m.Fired(1, 0));
  EXPECT_TRUE(m.Fired(2, 0));
}

TEST(AssertionSuite, DuplicateNamesRejected) {
  AssertionSuite<Toy> suite;
  suite.AddPointwise("a", [](const Toy&) { return 0.0; });
  EXPECT_THROW(suite.AddPointwise("a", [](const Toy&) { return 0.0; }),
               common::CheckError);
}

TEST(AssertionSuite, NamesAndIndexOf) {
  AssertionSuite<Toy> suite;
  suite.AddPointwise("a", [](const Toy&) { return 0.0; });
  suite.AddPointwise("b", [](const Toy&) { return 0.0; });
  EXPECT_EQ(suite.Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(suite.IndexOf("b"), 1u);
  EXPECT_THROW(suite.IndexOf("c"), common::CheckError);
}

TEST(AssertionSuite, WrongSeverityCountRejected) {
  AssertionSuite<Toy> suite;
  suite.AddFunction("bad", [](std::span<const Toy>) {
    return std::vector<double>{1.0};  // always one entry
  });
  const std::vector<Toy> stream = {{1.0}, {2.0}};
  EXPECT_THROW(suite.CheckAll(stream), common::CheckError);
}

TEST(AssertionSuite, NegativeSeverityRejected) {
  AssertionSuite<Toy> suite;
  suite.AddPointwise("neg", [](const Toy&) { return -1.0; });
  const std::vector<Toy> stream = {{1.0}};
  EXPECT_THROW(suite.CheckAll(stream), common::CheckError);
}

TEST(AssertionSuite, EmptyNameRejected) {
  AssertionSuite<Toy> suite;
  EXPECT_THROW(suite.AddPointwise("", [](const Toy&) { return 0.0; }),
               common::CheckError);
}

/// One emitted firing: (stream position, assertion index, severity).
using Firing = std::tuple<std::size_t, std::size_t, double>;

/// Feeds one example and returns the firings the evaluator emitted for it.
std::vector<Firing> Observe(IncrementalWindowEvaluator<Toy>& evaluator,
                            Toy example) {
  std::vector<Firing> fired;
  evaluator.Observe(example, [&](std::size_t global, std::size_t assertion,
                                 double severity) {
    fired.emplace_back(global, assertion, severity);
  });
  return fired;
}

TEST(IncrementalEvaluator, EmitsAfterSettleLag) {
  AssertionSuite<Toy> suite;
  suite.AddPointwise("positive",
                     [](const Toy& t) { return t.value > 0 ? 1.0 : 0.0; });
  IncrementalWindowEvaluator<Toy> evaluator(
      suite, {/*window=*/4, /*settle_lag=*/1, {}});
  // Firing example at stream position 0 must not emit until position 1
  // arrives.
  EXPECT_TRUE(Observe(evaluator, Toy{5.0}).empty());
  EXPECT_EQ(Observe(evaluator, Toy{-1.0}),
            (std::vector<Firing>{{0, 0, 1.0}}));
}

TEST(IncrementalEvaluator, EmitsEachFiringOnce) {
  AssertionSuite<Toy> suite;
  suite.AddPointwise("positive",
                     [](const Toy& t) { return t.value > 0 ? 1.0 : 0.0; });
  IncrementalWindowEvaluator<Toy> evaluator(suite, {4, 1, {}});
  std::vector<Firing> all;
  for (const double value : {5.0, 5.0, 5.0, -1.0}) {
    const std::vector<Firing> fired = Observe(evaluator, Toy{value});
    all.insert(all.end(), fired.begin(), fired.end());
  }
  // Three firing examples, each emitted exactly once, in stream order.
  EXPECT_EQ(all, (std::vector<Firing>{{0, 0, 1.0}, {1, 0, 1.0}, {2, 0, 1.0}}));
  EXPECT_EQ(evaluator.examples_seen(), 4u);
}

TEST(IncrementalEvaluator, RetroactiveAssertionSettles) {
  // Fires on example i when example i+1 has a larger value — requires the
  // future frame, like flicker.
  AssertionSuite<Toy> suite;
  suite.AddFunction("rising", [](std::span<const Toy> stream) {
    std::vector<double> severities(stream.size(), 0.0);
    for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
      if (stream[i + 1].value > stream[i].value) severities[i] = 1.0;
    }
    return severities;
  });
  IncrementalWindowEvaluator<Toy> evaluator(suite, {4, 1, {}});
  EXPECT_TRUE(Observe(evaluator, Toy{1.0}).empty());
  EXPECT_EQ(Observe(evaluator, Toy{2.0}), (std::vector<Firing>{{0, 0, 1.0}}));
}

}  // namespace
}  // namespace omg::core
