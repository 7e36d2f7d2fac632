#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/assertion.hpp"
#include "core/incremental.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/metrics.hpp"
#include "runtime/stream_registry.hpp"

namespace omg::runtime {
namespace {

struct Tick {
  double value = 0.0;
};

/// A deterministic per-stream signal (streams differ by seed).
std::vector<Tick> MakeStream(std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed);
  std::vector<Tick> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(Tick{rng.Uniform(-2.0, 2.0)});
  }
  return stream;
}

/// A suite mixing all three assertion classes the evaluator handles:
/// pointwise (radius 0), bounded stream-level (radius 1 and 2), and — when
/// `with_unbounded` — a whole-window assertion with no declared radius.
void PopulateSuite(core::AssertionSuite<Tick>& suite, bool with_unbounded) {
  suite.AddPointwise("positive",
                     [](const Tick& t) { return t.value > 1.0 ? t.value : 0.0; });
  suite.AddFunction(
      "rising",
      [](std::span<const Tick> stream) {
        std::vector<double> severities(stream.size(), 0.0);
        for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
          if (stream[i + 1].value > stream[i].value + 1.5) severities[i] = 1.0;
        }
        return severities;
      },
      /*temporal_radius=*/1);
  suite.AddFunction(
      "local-jump",
      [](std::span<const Tick> stream) {
        std::vector<double> severities(stream.size(), 0.0);
        for (std::size_t i = 2; i < stream.size(); ++i) {
          const double jump = std::abs(stream[i].value - stream[i - 2].value);
          if (jump > 3.0) severities[i] = jump;
        }
        return severities;
      },
      /*temporal_radius=*/2);
  if (with_unbounded) {
    // Unbounded (no declared radius) but *append-stable*: example i's score
    // depends on the whole prefix [0, i] and never changes as later
    // examples arrive, so settled streaming verdicts match batch scores.
    suite.AddFunction("above-prefix-mean", [](std::span<const Tick> stream) {
      std::vector<double> severities(stream.size(), 0.0);
      double sum = 0.0;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        sum += stream[i].value;
        const double mean = sum / static_cast<double>(i + 1);
        if (stream[i].value > mean + 1.0) severities[i] = 1.0;
      }
      return severities;
    });
  }
}

using Firing = std::tuple<std::size_t, std::string, double>;

/// Ground truth: run the suite in batch over the whole stream and keep the
/// firings for examples old enough to have settled.
std::vector<Firing> SettledBatchFirings(std::span<const Tick> stream,
                                        std::size_t settle_lag,
                                        bool with_unbounded) {
  core::AssertionSuite<Tick> suite;
  PopulateSuite(suite, with_unbounded);
  const core::SeverityMatrix matrix = suite.CheckAll(stream);
  const auto names = suite.Names();
  std::vector<Firing> firings;
  if (stream.size() <= settle_lag) return firings;
  for (std::size_t e = 0; e + settle_lag < stream.size(); ++e) {
    for (std::size_t a = 0; a < names.size(); ++a) {
      if (matrix.Fired(e, a)) firings.emplace_back(e, names[a], matrix.At(e, a));
    }
  }
  return firings;
}

// ------------------------------------------- IncrementalWindowEvaluator ---

TEST(IncrementalEvaluator, MatchesBatchForAnyChunking) {
  const std::size_t n = 200;
  const std::size_t settle_lag = 4;
  const auto stream = MakeStream(17, n);
  // Window covers the whole stream so even the unbounded assertion sees
  // exactly what batch CheckAll sees.
  const auto expected = SettledBatchFirings(stream, settle_lag, true);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t batch_size : {1ul, 3ul, 7ul, 50ul, n}) {
    core::AssertionSuite<Tick> suite;
    PopulateSuite(suite, true);
    core::IncrementalWindowEvaluator<Tick> evaluator(
        suite, {/*window=*/n + 8, settle_lag, {}});
    const auto names = suite.Names();
    std::vector<Firing> got;
    for (std::size_t begin = 0; begin < n; begin += batch_size) {
      const std::size_t count = std::min(batch_size, n - begin);
      std::vector<Tick> batch(stream.begin() + begin,
                              stream.begin() + begin + count);
      evaluator.ObserveBatch(std::move(batch),
                             [&](std::size_t g, std::size_t a, double s) {
                               got.emplace_back(g, names[a], s);
                             });
    }
    EXPECT_EQ(got, expected) << "batch_size=" << batch_size;
  }
}

TEST(IncrementalEvaluator, SlidingWindowExactForBoundedAssertions) {
  // With only radius-bounded assertions, a small window must still
  // reproduce full-stream batch scores: the suffix re-scoring always keeps
  // the 2r context each score needs.
  const std::size_t n = 300;
  const std::size_t settle_lag = 4;
  const auto stream = MakeStream(23, n);
  const auto expected = SettledBatchFirings(stream, settle_lag, false);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t batch_size : {1ul, 5ul, 64ul}) {
    core::AssertionSuite<Tick> suite;
    PopulateSuite(suite, false);
    core::IncrementalWindowEvaluator<Tick> evaluator(
        suite, {/*window=*/16, settle_lag, {}});
    const auto names = suite.Names();
    std::vector<Firing> got;
    for (std::size_t begin = 0; begin < n; begin += batch_size) {
      const std::size_t count = std::min(batch_size, n - begin);
      std::vector<Tick> batch(stream.begin() + begin,
                              stream.begin() + begin + count);
      evaluator.ObserveBatch(std::move(batch),
                             [&](std::size_t g, std::size_t a, double s) {
                               got.emplace_back(g, names[a], s);
                             });
    }
    EXPECT_EQ(got, expected) << "batch_size=" << batch_size;
  }
}

TEST(IncrementalEvaluator, InvokesInvalidationHookForUnboundedOnly) {
  core::AssertionSuite<Tick> bounded_suite;
  PopulateSuite(bounded_suite, false);
  std::size_t hook_calls = 0;
  core::IncrementalWindowEvaluator<Tick> bounded_eval(
      bounded_suite, {8, 2, [&] { ++hook_calls; }});
  for (int i = 0; i < 5; ++i) bounded_eval.Observe(Tick{0.0}, [](auto...) {});
  // The first chunk primes the bounded columns with one full-window pass.
  EXPECT_EQ(hook_calls, 0u);

  core::AssertionSuite<Tick> unbounded_suite;
  PopulateSuite(unbounded_suite, true);
  core::IncrementalWindowEvaluator<Tick> unbounded_eval(
      unbounded_suite, {8, 2, [&] { ++hook_calls; }});
  for (int i = 0; i < 5; ++i) {
    unbounded_eval.Observe(Tick{0.0}, [](auto...) {});
  }
  EXPECT_EQ(hook_calls, 5u);  // once per ingested chunk
}

TEST(IncrementalEvaluator, EmitsLateFiringsDiscoveredAfterSettling) {
  // An unbounded assertion can turn positive on an example only after that
  // example has already passed the settle boundary (the paper's ECG blip:
  // an A -> B -> A oscillation is only detectable when A reappears). Such
  // firings must still be emitted — late, once — as the seed monitor did.
  core::AssertionSuite<Tick> suite;
  suite.AddFunction("echo", [](std::span<const Tick> stream) {
    std::vector<double> severities(stream.size(), 0.0);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      for (std::size_t j = i + 1; j < stream.size(); ++j) {
        if (stream[j].value == stream[i].value) severities[i] = 1.0;
      }
    }
    return severities;
  });
  core::IncrementalWindowEvaluator<Tick> evaluator(
      suite, {/*window=*/16, /*settle_lag=*/1, {}});
  std::vector<Firing> got;
  for (const double value : {5.0, 1.0, 2.0, 5.0}) {
    evaluator.Observe(Tick{value}, [&](std::size_t g, std::size_t a, double s) {
      got.emplace_back(g, suite.Names()[a], s);
    });
  }
  // Example 0 settled at head 1 scoring 0; the echo at example 3 flips it
  // positive afterwards — emitted late, exactly once.
  EXPECT_EQ(got, (std::vector<Firing>{{0, "echo", 1.0}}));
}

TEST(IncrementalEvaluator, RejectsNonFiniteSeverity) {
  core::AssertionSuite<Tick> suite;
  suite.AddFunction("inf", [](std::span<const Tick> stream) {
    return std::vector<double>(stream.size(),
                               std::numeric_limits<double>::infinity());
  });
  core::IncrementalWindowEvaluator<Tick> evaluator(suite, {8, 1, {}});
  EXPECT_THROW(evaluator.Observe(Tick{1.0}, [](auto...) {}),
               common::CheckError);
}

TEST(IncrementalEvaluator, ValidatesConfig) {
  core::AssertionSuite<Tick> suite;
  EXPECT_THROW(core::IncrementalWindowEvaluator<Tick>(suite, {2, 2, {}}),
               common::CheckError);
  EXPECT_THROW(core::IncrementalWindowEvaluator<Tick>(suite, {0, 0, {}}),
               common::CheckError);
}

TEST(IncrementalEvaluator, ObserveBatchMatchesPerExampleObserve) {
  const auto stream = MakeStream(31, 120);

  core::AssertionSuite<Tick> suite_a;
  PopulateSuite(suite_a, false);
  const auto names = suite_a.Names();
  core::IncrementalWindowEvaluator<Tick> one_by_one(suite_a, {16, 4, {}});
  std::vector<Firing> a;
  for (const Tick& tick : stream) {
    one_by_one.Observe(tick, [&](std::size_t g, std::size_t i, double s) {
      a.emplace_back(g, names[i], s);
    });
  }

  core::AssertionSuite<Tick> suite_b;
  PopulateSuite(suite_b, false);
  core::IncrementalWindowEvaluator<Tick> batched(suite_b, {16, 4, {}});
  std::vector<Firing> b;
  batched.ObserveBatch(stream, [&](std::size_t g, std::size_t i, double s) {
    b.emplace_back(g, names[i], s);
  });

  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(one_by_one.examples_seen(), batched.examples_seen());
}

TEST(TemporalRadius, DeclaredPerAssertionClass) {
  core::AssertionSuite<Tick> suite;
  suite.AddPointwise("p", [](const Tick&) { return 0.0; });
  suite.AddFunction("default-unbounded",
                    [](std::span<const Tick> s) {
                      return std::vector<double>(s.size(), 0.0);
                    });
  suite.AddFunction(
      "radius-3",
      [](std::span<const Tick> s) {
        return std::vector<double>(s.size(), 0.0);
      },
      3);
  EXPECT_EQ(suite.at(0).temporal_radius(), 0u);
  EXPECT_EQ(suite.at(1).temporal_radius(), core::kUnboundedRadius);
  EXPECT_EQ(suite.at(2).temporal_radius(), 3u);
}

// ---------------------------------------------------------- StreamRegistry ---

TEST(StreamRegistry, AssignsDenseIdsAndRejectsDuplicates) {
  StreamRegistry registry;
  EXPECT_EQ(registry.Register("cam-0"), 0u);
  EXPECT_EQ(registry.Register("cam-1"), 1u);
  EXPECT_THROW(registry.Register("cam-0"), common::CheckError);
  EXPECT_THROW(registry.Register(""), common::CheckError);
  EXPECT_EQ(registry.Name(1), "cam-1");
  EXPECT_EQ(registry.Id("cam-0"), 0u);
  EXPECT_THROW(registry.Id("nope"), common::CheckError);
  EXPECT_TRUE(registry.Contains("cam-1"));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"cam-0", "cam-1"}));
}

// --------------------------------------------------------- MetricsRegistry ---

TEST(MetricsRegistry, ExposesPerAssertionFlaggedRate) {
  MetricsRegistry metrics(1);  // one shard: every stream records into cell 0
  metrics.RegisterStream(0, "a");
  metrics.RegisterStream(1, "b");
  const std::vector<StreamEvent> events_a = {{0, "a", 1, "x", 1.0},
                                             {0, "a", 2, "x", 1.0},
                                             {0, "a", 3, "y", 2.0}};
  metrics.RecordScoredBatch(0, 0, 10, events_a, /*latency_seconds=*/0.0);
  metrics.RecordScoredBatch(1, 0, 10, {}, /*latency_seconds=*/0.0);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  // Stream "a": x fired twice over 10 examples.
  EXPECT_DOUBLE_EQ(snapshot.streams[0].FlaggedRate("x"), 0.2);
  EXPECT_DOUBLE_EQ(snapshot.streams[0].FlaggedRate("y"), 0.1);
  // Service-wide: same fires over 20 observed examples.
  EXPECT_DOUBLE_EQ(snapshot.FlaggedRate("x"), 0.1);
  // Unknown assertion / empty stream: rate 0, not a throw.
  EXPECT_DOUBLE_EQ(snapshot.FlaggedRate("nope"), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.streams[1].FlaggedRate("x"), 0.0);
  EXPECT_DOUBLE_EQ(StreamMetrics{}.FlaggedRate("x"), 0.0);
}

TEST(MetricsRegistry, AggregatesAcrossStreams) {
  MetricsRegistry metrics(1);
  metrics.RegisterStream(0, "a");
  metrics.RegisterStream(1, "b");
  const std::vector<StreamEvent> events_a = {{0, "a", 3, "x", 2.0},
                                             {0, "a", 4, "y", 1.0}};
  const std::vector<StreamEvent> events_b = {{1, "b", 0, "x", 5.0}};
  metrics.RecordScoredBatch(0, 0, 10, events_a, /*latency_seconds=*/0.001);
  metrics.RecordScoredBatch(1, 0, 7, events_b, /*latency_seconds=*/0.001);
  metrics.RecordScoredBatch(0, 0, 5, {}, /*latency_seconds=*/0.001);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.examples_seen, 22u);
  EXPECT_EQ(snapshot.events, 3u);
  ASSERT_EQ(snapshot.streams.size(), 2u);
  EXPECT_EQ(snapshot.streams[0].examples_seen, 15u);
  EXPECT_EQ(snapshot.streams[0].events, 2u);
  EXPECT_EQ(snapshot.streams[1].assertions.at("x").max_severity, 5.0);
  EXPECT_EQ(snapshot.assertions.at("x").fires, 2u);
  EXPECT_DOUBLE_EQ(snapshot.assertions.at("x").sum_severity, 7.0);
  EXPECT_DOUBLE_EQ(snapshot.assertions.at("x").MeanSeverity(), 3.5);
  // The shard cell folds the same batches into its own counters.
  ASSERT_EQ(snapshot.shards.size(), 1u);
  EXPECT_EQ(snapshot.shards[0].batches, 3u);
  EXPECT_EQ(snapshot.shards[0].examples, 22u);
  EXPECT_EQ(snapshot.shards[0].events, 3u);
  EXPECT_EQ(snapshot.shards[0].latency.count(), 3u);
}

// ------------------------------------------------------------------ sinks ---

TEST(Sinks, JsonLinesEscapesAndCounts) {
  std::ostringstream out;
  JsonLinesSink sink(out);
  sink.Consume({0, "cam \"0\"", 7, "multi\nbox", 1.5});
  sink.Flush();
  EXPECT_EQ(out.str(),
            "{\"stream\":\"cam \\\"0\\\"\",\"example\":7,"
            "\"assertion\":\"multi\\nbox\",\"severity\":1.5}\n");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape("a\\b\t"), "a\\\\b\\t");
}

TEST(Sinks, CountingAndCollectingAgree) {
  CountingSink counting;
  CollectingSink collecting;
  const StreamEvent event{2, "s", 1, "a", 4.0};
  counting.Consume(event);
  counting.Consume({2, "s", 2, "a", 1.0});
  counting.Consume({2, "s", 3, "b", 2.0});
  collecting.Consume(event);
  EXPECT_EQ(counting.count(), 3u);
  EXPECT_DOUBLE_EQ(counting.max_severity(), 4.0);
  const auto by_assertion = counting.counts_by_assertion();
  EXPECT_EQ(by_assertion.at("a"), 2u);
  EXPECT_EQ(by_assertion.at("b"), 1u);
  const auto events = collecting.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].stream, "s");
  EXPECT_EQ(events[0].assertion, "a");
}

}  // namespace
}  // namespace omg::runtime
