// The type-erased serving facade: AnyExample storage semantics, erased
// bundles (qualified names, a typed scorer, flag-sequence equivalence with
// the templated engine for all four domains), mixed-domain hosting in one
// Monitor, typed-error paths, and concurrent Subscribe/Unsubscribe under
// load (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "av/factory.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "config/spec.hpp"
#include "ecg/factory.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/sharded_service.hpp"
#include "serve/any_example.hpp"
#include "serve/any_suite.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"
#include "tvnews/factory.hpp"
#include "video/assertions.hpp"
#include "video/factory.hpp"

// Two synthetic facade domains local to this test: one that fits the
// small-buffer optimisation and one that cannot.
struct Tick {
  std::size_t index = 0;
  double value = 0.0;
};

struct BigBlob {
  std::size_t index = 0;
  std::array<double, 64> payload{};  // 520 bytes: always heap-allocated
};

static_assert(sizeof(Tick) <= omg::serve::AnyExample::kInlineCapacity);
static_assert(sizeof(BigBlob) > omg::serve::AnyExample::kInlineCapacity);

namespace omg::serve {

template <>
struct DomainTraits<Tick> {
  static constexpr std::string_view kDomain = "tick";
  static std::string DebugString(const Tick& tick) {
    return "tick " + std::to_string(tick.index);
  }
};

template <>
struct DomainTraits<BigBlob> {
  static constexpr std::string_view kDomain = "blob";
  static std::string DebugString(const BigBlob& blob) {
    return "blob " + std::to_string(blob.index);
  }
};

}  // namespace omg::serve

namespace omg::serve {
namespace {

// ------------------------------------------------------------ AnyExample ---

TEST(AnyExample, InlineStorageRoundTrip) {
  AnyExample example = AnyExample::Make(Tick{7, 2.5});
  EXPECT_TRUE(example.has_value());
  EXPECT_EQ(example.domain(), "tick");
  EXPECT_TRUE(example.Is<Tick>());
  EXPECT_FALSE(example.Is<BigBlob>());
  ASSERT_NE(example.TryGet<Tick>(), nullptr);
  EXPECT_EQ(example.TryGet<Tick>()->index, 7u);
  EXPECT_DOUBLE_EQ(example.Get<Tick>().value, 2.5);
  EXPECT_EQ(example.DebugString(), "tick 7");
  EXPECT_EQ(example.TryGet<BigBlob>(), nullptr);
  EXPECT_THROW(example.Get<BigBlob>(), common::CheckError);
}

TEST(AnyExample, HeapStorageCloneAndMove) {
  BigBlob blob;
  blob.index = 3;
  blob.payload[63] = 1.25;
  AnyExample example = AnyExample::Make(blob);
  EXPECT_EQ(example.domain(), "blob");
  ASSERT_TRUE(example.Is<BigBlob>());
  EXPECT_DOUBLE_EQ(example.Get<BigBlob>().payload[63], 1.25);

  // Clone: independent payloads.
  AnyExample clone(example);
  EXPECT_TRUE(clone.Is<BigBlob>());
  EXPECT_DOUBLE_EQ(clone.Get<BigBlob>().payload[63], 1.25);

  // Move: the source empties, the destination owns the payload.
  AnyExample moved(std::move(example));
  // NOLINTNEXTLINE(bugprone-use-after-move): asserts the moved-from state
  EXPECT_FALSE(example.has_value());
  EXPECT_EQ(example.domain(), "");
  EXPECT_EQ(example.DebugString(), "<empty>");
  EXPECT_DOUBLE_EQ(moved.Get<BigBlob>().payload[63], 1.25);

  // Copy-assign over an existing payload of another domain.
  AnyExample reassigned = AnyExample::Make(Tick{1, 1.0});
  reassigned = clone;
  EXPECT_EQ(reassigned.domain(), "blob");
}

// ------------------------------------------------------------- any suite ---

runtime::SuiteFactory<Tick> TickSuiteFactory() {
  return [] {
    auto suite = std::make_shared<core::AssertionSuite<Tick>>();
    suite->AddPointwise(
        "positive", [](const Tick& t) { return t.value > 1.0 ? t.value : 0.0; });
    suite->AddFunction(
        "rising",
        [](std::span<const Tick> stream) {
          std::vector<double> severities(stream.size(), 0.0);
          for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
            if (stream[i + 1].value > stream[i].value + 1.5) {
              severities[i] = 1.0;
            }
          }
          return severities;
        },
        /*temporal_radius=*/1);
    return runtime::SuiteBundle<Tick>{suite, {}};
  };
}

TEST(AnySuite, QualifiesNamesAndRejectsForeignPayloads) {
  const AnySuiteBundle bundle =
      EraseSuiteBundle<Tick>("tick", TickSuiteFactory()());
  EXPECT_EQ(bundle.names,
            (std::vector<std::string>{"tick/positive", "tick/rising"}));

  // A payload of another type poisons the batch with a CheckError (the
  // facade's scoring itself is pinned by FacadeEquivalence below).
  const std::unique_ptr<runtime::StreamScorer<AnyExample>> scorer =
      bundle.scorer({16, 2});
  std::vector<AnyExample> foreign;
  foreign.push_back(AnyExample::Make(BigBlob{}));
  EXPECT_THROW(scorer->ObserveBatch(std::move(foreign),
                                    [](std::size_t, std::size_t, double) {}),
               common::CheckError);
}

TEST(AnySuite, NameHelpers) {
  EXPECT_EQ(QualifiedName("video", "flicker"), "video/flicker");
  EXPECT_EQ(DomainOfQualifiedName("video/flicker"), "video");
  EXPECT_EQ(DomainOfQualifiedName("flicker"), "");
  EXPECT_EQ(UnqualifiedName("video/flicker"), "flicker");
  EXPECT_EQ(UnqualifiedName("flicker"), "flicker");
}

// ------------------------------------------- erased-vs-templated serving ---

struct Firing {
  std::size_t example = 0;
  std::string assertion;
  double severity = 0.0;
  bool operator==(const Firing&) const = default;
};

/// One stream through the templated engine directly.
template <typename Example>
std::vector<Firing> TypedFirings(runtime::SuiteFactory<Example> factory,
                                 const std::vector<Example>& examples) {
  runtime::ShardedRuntimeConfig config;
  config.shards = 1;
  config.window = 48;
  config.settle_lag = 8;
  config.queue_capacity = 4096;
  runtime::ShardedMonitorService<Example> service(config, std::move(factory));
  auto sink = std::make_shared<runtime::CollectingSink>();
  service.AddSink(sink);
  const runtime::StreamId id = service.RegisterStream("s");
  for (std::size_t begin = 0; begin < examples.size(); begin += 16) {
    const std::size_t count =
        std::min<std::size_t>(16, examples.size() - begin);
    service.ObserveBatch(
        id, std::vector<Example>(examples.begin() + begin,
                                 examples.begin() + begin + count));
  }
  service.Flush();
  EXPECT_TRUE(service.Errors().empty());
  std::vector<Firing> firings;
  for (const auto& event : sink->Events()) {
    firings.push_back({event.example_index, event.assertion, event.severity});
  }
  return firings;
}

/// The same stream through the facade; assertion names come back
/// unqualified (after checking the qualification) for comparison.
template <typename Example>
std::vector<Firing> FacadeFirings(const std::string& domain,
                                  runtime::SuiteFactory<Example> factory,
                                  const std::vector<Example>& examples) {
  Result<std::unique_ptr<Monitor>> built = Monitor::Builder()
                                               .Shards(1)
                                               .Window(48)
                                               .SettleLag(8)
                                               .QueueCapacity(4096)
                                               .Build();
  EXPECT_TRUE(built.ok());
  const std::unique_ptr<Monitor> monitor = std::move(built.value());
  auto sink = std::make_shared<runtime::CollectingSink>();
  const Subscription subscription =
      monitor->Subscribe(EventFilter{}, sink);
  Result<StreamHandle> handle = monitor->RegisterStream(
      domain, EraseSuiteFactory<Example>(domain, std::move(factory)));
  EXPECT_TRUE(handle.ok());
  for (std::size_t begin = 0; begin < examples.size(); begin += 16) {
    const std::size_t count =
        std::min<std::size_t>(16, examples.size() - begin);
    std::vector<AnyExample> batch;
    batch.reserve(count);
    for (std::size_t i = begin; i < begin + count; ++i) {
      batch.push_back(AnyExample::Make(examples[i]));
    }
    const Result<ObserveOutcome> outcome =
        monitor->ObserveBatch(handle.value(), std::move(batch));
    EXPECT_TRUE(outcome.ok());
  }
  monitor->Flush();
  EXPECT_TRUE(monitor->Errors().empty());
  std::vector<Firing> firings;
  for (const auto& event : sink->Events()) {
    EXPECT_EQ(DomainOfQualifiedName(event.assertion), domain);
    firings.push_back({event.example_index,
                       std::string(UnqualifiedName(event.assertion)),
                       event.severity});
  }
  return firings;
}

/// A deterministic detection stream exercising all three video assertions
/// (mirrors tests/test_config.cpp's FixedVideoStream).
std::vector<video::VideoExample> FixedVideoStream() {
  const auto box = [](double x) {
    return geometry::Box2D{x, 100.0, x + 60.0, 140.0};
  };
  std::vector<video::VideoExample> examples;
  for (std::size_t i = 0; i < 40; ++i) {
    video::VideoExample example;
    example.frame_index = i;
    example.timestamp = 0.2 * static_cast<double>(i);
    example.detections.push_back({box(50.0 + 4.0 * i), "car", 0.9, 0});
    if (i % 3 != 2) {
      example.detections.push_back({box(400.0 + 4.0 * i), "car", 0.8, 1});
    }
    if (i >= 20 && i < 23) {
      example.detections.push_back({box(800.0), "car", 0.7, 2});
    }
    if (i == 30) {
      example.detections.push_back({box(601.0), "car", 0.6, 3});
      example.detections.push_back({box(602.0), "car", 0.6, 3});
      example.detections.push_back({box(603.0), "car", 0.6, 3});
    }
    examples.push_back(std::move(example));
  }
  return examples;
}

runtime::SuiteFactory<video::VideoExample> VideoFactory() {
  return [] {
    auto built =
        std::make_shared<video::VideoSuite>(video::BuildVideoSuite());
    return runtime::SuiteBundle<video::VideoExample>{
        std::shared_ptr<core::AssertionSuite<video::VideoExample>>(
            built, &built->suite),
        [built] { built->consistency->Invalidate(); }};
  };
}

TEST(FacadeEquivalence, VideoFlagSequenceMatchesTemplated) {
  const std::vector<video::VideoExample> examples = FixedVideoStream();
  const std::vector<Firing> typed = TypedFirings(VideoFactory(), examples);
  const std::vector<Firing> facade =
      FacadeFirings("video", VideoFactory(), examples);
  ASSERT_FALSE(typed.empty());
  EXPECT_EQ(typed, facade);
}

TEST(FacadeEquivalence, EcgFlagSequenceMatchesTemplated) {
  // One lone AF window (20 s absence-to-absence, must flag) and a later
  // 50 s episode (legitimate).
  std::vector<ecg::EcgExample> examples;
  double t = 0.0;
  const auto add = [&](ecg::Rhythm rhythm, std::size_t windows) {
    for (std::size_t i = 0; i < windows; ++i) {
      examples.push_back({"rec-1", t, rhythm});
      t += 10.0;
    }
  };
  add(ecg::Rhythm::kNormal, 8);
  add(ecg::Rhythm::kAf, 1);
  add(ecg::Rhythm::kNormal, 8);
  add(ecg::Rhythm::kAf, 5);
  add(ecg::Rhythm::kNormal, 8);

  const auto factory = [] {
    auto built = std::make_shared<ecg::EcgSuite>(ecg::BuildEcgSuite());
    return runtime::SuiteBundle<ecg::EcgExample>{
        std::shared_ptr<core::AssertionSuite<ecg::EcgExample>>(
            built, &built->suite),
        [built] { built->consistency->Invalidate(); }};
  };
  const std::vector<Firing> typed = TypedFirings<ecg::EcgExample>(
      factory, examples);
  const std::vector<Firing> facade =
      FacadeFirings<ecg::EcgExample>("ecg", factory, examples);
  ASSERT_FALSE(typed.empty());
  EXPECT_EQ(typed, facade);
}

TEST(FacadeEquivalence, AvFlagSequenceMatchesTemplated) {
  std::vector<av::AvExample> examples;
  for (std::size_t i = 0; i < 40; ++i) {
    av::AvExample sample;
    sample.sample_index = i;
    sample.timestamp = 0.1 * static_cast<double>(i);
    sample.scene = "scene-" + std::to_string(i / 10);
    sample.camera.push_back({{100, 100, 160, 140}, "vehicle", 0.9, 0});
    sample.lidar_projected.push_back({100, 100, 160, 140});
    if (i % 4 == 0) {  // unmatched camera box: agree fires
      sample.camera.push_back({{700, 100, 760, 140}, "vehicle", 0.9, 1});
    }
    if (i % 7 == 0) {  // a mutually-overlapping triple: multibox fires
      sample.camera.push_back({{301, 100, 361, 140}, "vehicle", 0.6, 2});
      sample.camera.push_back({{302, 100, 362, 140}, "vehicle", 0.6, 2});
      sample.camera.push_back({{303, 100, 363, 140}, "vehicle", 0.6, 2});
    }
    examples.push_back(std::move(sample));
  }
  const auto factory = [] {
    auto built = std::make_shared<av::AvSuite>(av::BuildAvSuite());
    return runtime::SuiteBundle<av::AvExample>{
        std::shared_ptr<core::AssertionSuite<av::AvExample>>(
            built, &built->suite),
        {}};
  };
  const std::vector<Firing> typed =
      TypedFirings<av::AvExample>(factory, examples);
  const std::vector<Firing> facade =
      FacadeFirings<av::AvExample>("av", factory, examples);
  ASSERT_FALSE(typed.empty());
  EXPECT_EQ(typed, facade);
}

TEST(FacadeEquivalence, NewsFlagSequenceMatchesTemplated) {
  tvnews::NewsGenerator generator(tvnews::NewsConfig{}, 42);
  const std::vector<tvnews::NewsFrame> frames = generator.Generate(80);
  const auto factory = [] {
    auto built =
        std::make_shared<tvnews::NewsSuite>(tvnews::BuildNewsSuite());
    return runtime::SuiteBundle<tvnews::NewsFrame>{
        std::shared_ptr<core::AssertionSuite<tvnews::NewsFrame>>(
            built, &built->suite),
        [built] { built->consistency->Invalidate(); }};
  };
  const std::vector<Firing> typed =
      TypedFirings<tvnews::NewsFrame>(factory, frames);
  const std::vector<Firing> facade =
      FacadeFirings<tvnews::NewsFrame>("tvnews", factory, frames);
  ASSERT_FALSE(typed.empty());
  EXPECT_EQ(typed, facade);
}

// ------------------------------------------------------ mixed-domain host ---

StreamOptions Named(std::string name, double severity_hint = 0.0) {
  StreamOptions options;
  options.name = std::move(name);
  options.severity_hint = severity_hint;
  return options;
}

EventFilter Filter(std::string domain = "", std::string stream = "",
                   std::string assertion = "", double min_severity = 0.0) {
  EventFilter filter;
  filter.domain = std::move(domain);
  filter.stream = std::move(stream);
  filter.assertion = std::move(assertion);
  filter.min_severity = min_severity;
  return filter;
}

std::unique_ptr<Monitor> SmallMonitor(std::size_t shards = 2) {
  Result<std::unique_ptr<Monitor>> built = Monitor::Builder()
                                               .Shards(shards)
                                               .Window(32)
                                               .SettleLag(4)
                                               .QueueCapacity(4096)
                                               .Build();
  EXPECT_TRUE(built.ok());
  return std::move(built.value());
}

TEST(Monitor, MixedDomainsShareOneRuntimeWithIsolatedStreams) {
  const std::unique_ptr<Monitor> monitor = SmallMonitor();
  auto all = std::make_shared<runtime::CollectingSink>();
  const Subscription subscription =
      monitor->Subscribe(EventFilter{}, all);

  Result<StreamHandle> ticks = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()),
      Named("ticker"));
  Result<StreamHandle> video = monitor->RegisterStream(
      "video", EraseSuiteFactory<video::VideoExample>("video", VideoFactory()),
      Named("cam"));
  ASSERT_TRUE(ticks.ok());
  ASSERT_TRUE(video.ok());
  EXPECT_EQ(ticks.value().domain(), "tick");
  EXPECT_EQ(video.value().name(), "cam");

  std::vector<AnyExample> tick_batch;
  for (std::size_t i = 0; i < 40; ++i) {
    tick_batch.push_back(
        AnyExample::Make(Tick{i, i % 5 == 0 ? 2.0 : -1.0}));
  }
  EXPECT_TRUE(monitor->ObserveBatch(ticks.value(), std::move(tick_batch))
                  .ok());
  std::vector<AnyExample> video_batch;
  for (video::VideoExample& example : FixedVideoStream()) {
    video_batch.push_back(AnyExample::Make(std::move(example)));
  }
  EXPECT_TRUE(monitor->ObserveBatch(video.value(), std::move(video_batch))
                  .ok());
  monitor->Flush();
  EXPECT_TRUE(monitor->Errors().empty());

  // Stream isolation: every event's assertion is qualified with its own
  // stream's domain.
  std::size_t tick_events = 0;
  std::size_t video_events = 0;
  for (const auto& event : all->Events()) {
    if (event.stream == "ticker") {
      EXPECT_EQ(DomainOfQualifiedName(event.assertion), "tick");
      ++tick_events;
    } else {
      EXPECT_EQ(event.stream, "cam");
      EXPECT_EQ(DomainOfQualifiedName(event.assertion), "video");
      ++video_events;
    }
  }
  EXPECT_GT(tick_events, 0u);
  EXPECT_GT(video_events, 0u);

  // One metrics namespace, keys domain-qualified, accounting shared.
  const runtime::MetricsSnapshot snapshot = monitor->Metrics();
  EXPECT_EQ(snapshot.examples_seen, 80u);
  EXPECT_TRUE(snapshot.assertions.contains("tick/positive"));
  EXPECT_TRUE(snapshot.assertions.contains("video/flicker"));
  EXPECT_FALSE(snapshot.assertions.contains("positive"));
  EXPECT_EQ(snapshot.shards.size(), 2u);
}

TEST(Monitor, WrongDomainObserveIsATypedErrorNotAnAbort) {
  const std::unique_ptr<Monitor> monitor = SmallMonitor(1);
  Result<StreamHandle> ticks = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()));
  ASSERT_TRUE(ticks.ok());

  // A blob example on the tick stream: rejected before anything enqueues.
  Result<ObserveOutcome> wrong =
      monitor->Observe(ticks.value(), AnyExample::Make(BigBlob{}));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.code(), ErrorCode::kWrongDomain);
  EXPECT_NE(wrong.error().message.find("blob"), std::string::npos);

  // A foreign example mid-batch rejects the whole batch atomically.
  std::vector<AnyExample> batch;
  batch.push_back(AnyExample::Make(Tick{0, 2.0}));
  batch.push_back(AnyExample::Make(BigBlob{}));
  batch.push_back(AnyExample::Make(Tick{1, 2.0}));
  Result<ObserveOutcome> mixed =
      monitor->ObserveBatch(ticks.value(), std::move(batch));
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.code(), ErrorCode::kWrongDomain);

  // The service is unharmed: correct-domain traffic still scores.
  EXPECT_TRUE(
      monitor->Observe(ticks.value(), AnyExample::Make(Tick{2, 2.0})).ok());
  monitor->Flush();
  EXPECT_EQ(monitor->Metrics().examples_seen, 1u);
  EXPECT_TRUE(monitor->Errors().empty());
}

TEST(Monitor, TraceSurvivesRuntimeOverrideInEitherOrder) {
  runtime::ShardedRuntimeConfig config;
  config.shards = 2;
  config.window = 32;
  config.settle_lag = 4;

  // Trace() before Runtime(): the wholesale geometry override must not
  // silently discard the requested tracer.
  Result<std::unique_ptr<Monitor>> trace_first =
      Monitor::Builder().Trace(obs::TracerOptions{}).Runtime(config).Build();
  ASSERT_TRUE(trace_first.ok());
  ASSERT_NE(trace_first.value()->tracer(), nullptr);
  EXPECT_EQ(trace_first.value()->tracer()->shard_lanes(), 2u);

  // And the documented Runtime()-then-Trace() order keeps working.
  Result<std::unique_ptr<Monitor>> trace_last =
      Monitor::Builder().Runtime(config).Trace(obs::TracerOptions{}).Build();
  ASSERT_TRUE(trace_last.ok());
  EXPECT_NE(trace_last.value()->tracer(), nullptr);
}

TEST(Monitor, TypedErrorsForHandlesBatchesAndRegistration) {
  const std::unique_ptr<Monitor> monitor = SmallMonitor(1);
  const std::unique_ptr<Monitor> other = SmallMonitor(1);

  // Invalid geometry is a typed build error.
  Result<std::unique_ptr<Monitor>> bad_build =
      Monitor::Builder().Window(8).SettleLag(8).Build();
  ASSERT_FALSE(bad_build.ok());
  EXPECT_EQ(bad_build.code(), ErrorCode::kInvalidConfig);

  // Default-constructed and foreign handles.
  const StreamHandle invalid;
  EXPECT_FALSE(invalid.valid());
  Result<ObserveOutcome> no_handle =
      monitor->Observe(invalid, AnyExample::Make(Tick{}));
  ASSERT_FALSE(no_handle.ok());
  EXPECT_EQ(no_handle.code(), ErrorCode::kInvalidHandle);

  Result<StreamHandle> foreign = other->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()));
  ASSERT_TRUE(foreign.ok());
  Result<ObserveOutcome> cross =
      monitor->Observe(foreign.value(), AnyExample::Make(Tick{}));
  ASSERT_FALSE(cross.ok());
  EXPECT_EQ(cross.code(), ErrorCode::kInvalidHandle);

  // Registration errors: empty domain, null factory, unqualified suite,
  // throwing factory, a bundle without a scorer or names, duplicate names.
  EXPECT_EQ(monitor->RegisterStream("", nullptr).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(monitor->RegisterStream("tick", nullptr).code(),
            ErrorCode::kInvalidArgument);
  Result<StreamHandle> unqualified = monitor->RegisterStream(
      "tick", [] { return EraseSuiteBundle<Tick>("other", TickSuiteFactory()()); });
  ASSERT_FALSE(unqualified.ok());
  EXPECT_EQ(unqualified.code(), ErrorCode::kWrongDomain);
  Result<StreamHandle> throwing = monitor->RegisterStream(
      "tick", []() -> AnySuiteBundle {
        throw common::CheckError("factory exploded");
      });
  ASSERT_FALSE(throwing.ok());
  EXPECT_EQ(throwing.code(), ErrorCode::kInvalidSuite);
  Result<StreamHandle> no_scorer = monitor->RegisterStream("tick", [] {
    AnySuiteBundle bundle =
        EraseSuiteBundle<Tick>("tick", TickSuiteFactory()());
    bundle.scorer = nullptr;
    return bundle;
  });
  ASSERT_FALSE(no_scorer.ok());
  EXPECT_EQ(no_scorer.code(), ErrorCode::kInvalidSuite);
  Result<StreamHandle> no_names = monitor->RegisterStream("tick", [] {
    AnySuiteBundle bundle =
        EraseSuiteBundle<Tick>("tick", TickSuiteFactory()());
    bundle.names.clear();
    return bundle;
  });
  ASSERT_FALSE(no_names.ok());
  EXPECT_EQ(no_names.code(), ErrorCode::kInvalidSuite);

  Result<StreamHandle> first = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()),
      Named("dup"));
  ASSERT_TRUE(first.ok());
  Result<StreamHandle> second = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()),
      Named("dup"));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.code(), ErrorCode::kDuplicateStream);

  // An oversized batch is refused, not Check-aborted.
  std::vector<AnyExample> oversized;
  for (std::size_t i = 0; i < monitor->config().queue_capacity + 1; ++i) {
    oversized.push_back(AnyExample::Make(Tick{i, 0.0}));
  }
  Result<ObserveOutcome> too_large =
      monitor->ObserveBatch(first.value(), std::move(oversized));
  ASSERT_FALSE(too_large.ok());
  EXPECT_EQ(too_large.code(), ErrorCode::kBatchTooLarge);
}

TEST(Monitor, SharedAdmissionAccountingAcrossDomains) {
  // A deliberately tight single queue under severity-aware shedding: tick
  // batches hint above the floor, blob batches below — blobs shed once the
  // queue fills, and the loss accounting reconciles across both domains.
  Result<std::unique_ptr<Monitor>> built =
      Monitor::Builder()
          .Shards(1)
          .Window(16)
          .SettleLag(2)
          .QueueCapacity(32)
          .Admission(runtime::AdmissionPolicy::kShedBelowSeverity)
          .ShedFloor(1.0)
          .Build();
  ASSERT_TRUE(built.ok());
  const std::unique_ptr<Monitor> monitor = std::move(built.value());
  auto blob_suite = [] {
    auto suite = std::make_shared<core::AssertionSuite<BigBlob>>();
    suite->AddPointwise("nonzero", [](const BigBlob& blob) {
      return blob.payload[0] > 0.0 ? 1.0 : 0.0;
    });
    return runtime::SuiteBundle<BigBlob>{suite, {}};
  };
  Result<StreamHandle> ticks = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()),
      Named("hot", 2.0));
  Result<StreamHandle> blobs = monitor->RegisterStream(
      "blob", EraseSuiteFactory<BigBlob>("blob", blob_suite),
      Named("cold", 0.1));
  ASSERT_TRUE(ticks.ok());
  ASSERT_TRUE(blobs.ok());

  std::size_t offered = 0;
  std::size_t shed_batches = 0;
  for (std::size_t round = 0; round < 64; ++round) {
    std::vector<AnyExample> tick_batch;
    std::vector<AnyExample> blob_batch;
    for (std::size_t i = 0; i < 16; ++i) {
      tick_batch.push_back(AnyExample::Make(Tick{round * 16 + i, 2.0}));
      blob_batch.push_back(AnyExample::Make(BigBlob{round * 16 + i, {}}));
    }
    Result<ObserveOutcome> hot =
        monitor->ObserveBatch(ticks.value(), std::move(tick_batch));
    ASSERT_TRUE(hot.ok());
    EXPECT_EQ(hot.value(), ObserveOutcome::kAdmitted);
    offered += 16;
    Result<ObserveOutcome> cold =
        monitor->ObserveBatch(blobs.value(), std::move(blob_batch));
    ASSERT_TRUE(cold.ok());
    if (cold.value() == ObserveOutcome::kShed) ++shed_batches;
    offered += 16;
  }
  monitor->Flush();
  EXPECT_TRUE(monitor->Errors().empty());
  const runtime::MetricsSnapshot snapshot = monitor->Metrics();
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples() +
                snapshot.TotalErroredExamples(),
            offered);
  EXPECT_EQ(snapshot.TotalShedExamples(), shed_batches * 16);
}

// ---------------------------------------------------------- subscriptions ---

TEST(Monitor, SubscriptionFiltersAndUnsubscribes) {
  const std::unique_ptr<Monitor> monitor = SmallMonitor(1);
  Result<StreamHandle> ticks = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()),
      Named("ticker"));
  ASSERT_TRUE(ticks.ok());

  auto everything = std::make_shared<runtime::CollectingSink>();
  auto severe = std::make_shared<runtime::CollectingSink>();
  auto positive_only = std::make_shared<runtime::CollectingSink>();
  auto other_stream = std::make_shared<runtime::CollectingSink>();
  Subscription all_sub = monitor->Subscribe(EventFilter{}, everything);
  const Subscription severe_sub =
      monitor->Subscribe(Filter("", "", "", 1.5), severe);
  const Subscription positive_sub =
      monitor->Subscribe(Filter("", "", "positive"), positive_only);
  const Subscription other_sub =
      monitor->Subscribe(Filter("", "elsewhere"), other_stream);
  EXPECT_TRUE(all_sub.active());
  EXPECT_FALSE(monitor->Subscribe(EventFilter{}, nullptr).active());

  std::vector<AnyExample> batch;
  for (std::size_t i = 0; i < 40; ++i) {
    batch.push_back(AnyExample::Make(Tick{i, i % 5 == 0 ? 2.0 : 1.2}));
  }
  EXPECT_TRUE(monitor->ObserveBatch(ticks.value(), std::move(batch)).ok());
  monitor->Flush();

  ASSERT_FALSE(everything->Events().empty());
  EXPECT_FALSE(severe->Events().empty());
  EXPECT_LT(severe->Events().size(), everything->Events().size());
  for (const auto& event : severe->Events()) {
    EXPECT_GE(event.severity, 1.5);
  }
  for (const auto& event : positive_only->Events()) {
    EXPECT_EQ(event.assertion, "tick/positive");
  }
  EXPECT_TRUE(other_stream->Events().empty());

  // Unsubscribe detaches: further traffic reaches remaining sinks only.
  const std::size_t before = everything->Events().size();
  all_sub.Unsubscribe();
  EXPECT_FALSE(all_sub.active());
  std::vector<AnyExample> more;
  for (std::size_t i = 0; i < 40; ++i) {
    more.push_back(AnyExample::Make(Tick{100 + i, 2.0}));
  }
  EXPECT_TRUE(monitor->ObserveBatch(ticks.value(), std::move(more)).ok());
  monitor->Flush();
  EXPECT_EQ(everything->Events().size(), before);
  EXPECT_GT(positive_only->Events().size(), 0u);
}

TEST(Monitor, MovedSubscriptionKeepsItsSinkAttached) {
  const std::unique_ptr<Monitor> monitor = SmallMonitor(1);
  Result<StreamHandle> ticks = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()),
      Named("ticker"));
  ASSERT_TRUE(ticks.ok());

  auto kept = std::make_shared<runtime::CollectingSink>();
  auto replaced = std::make_shared<runtime::CollectingSink>();
  Subscription original = monitor->Subscribe(EventFilter{}, kept);
  Subscription moved(std::move(original));
  // NOLINTNEXTLINE(bugprone-use-after-move): asserts the moved-from state
  EXPECT_FALSE(original.active());
  EXPECT_TRUE(moved.active());

  // Move-assigning over a live subscription detaches the one it held.
  Subscription target = monitor->Subscribe(EventFilter{}, replaced);
  target = std::move(moved);
  // NOLINTNEXTLINE(bugprone-use-after-move): asserts the moved-from state
  EXPECT_FALSE(moved.active());
  EXPECT_TRUE(target.active());

  std::vector<AnyExample> batch;
  for (std::size_t i = 0; i < 40; ++i) {
    batch.push_back(AnyExample::Make(Tick{i, 2.0}));
  }
  EXPECT_TRUE(monitor->ObserveBatch(ticks.value(), std::move(batch)).ok());
  monitor->Flush();
  EXPECT_FALSE(kept->Events().empty());
  EXPECT_TRUE(replaced->Events().empty());
}

TEST(Monitor, ConcurrentSubscribeUnsubscribeUnderLoad) {
  const std::unique_ptr<Monitor> monitor = SmallMonitor(2);
  Result<StreamHandle> ticks = monitor->RegisterStream(
      "tick", EraseSuiteFactory<Tick>("tick", TickSuiteFactory()));
  ASSERT_TRUE(ticks.ok());
  auto stable = std::make_shared<runtime::CountingSink>();
  const Subscription stable_sub =
      monitor->Subscribe(EventFilter{}, stable);

  std::thread producer([&] {
    for (std::size_t round = 0; round < 150; ++round) {
      std::vector<AnyExample> batch;
      for (std::size_t i = 0; i < 16; ++i) {
        batch.push_back(
            AnyExample::Make(Tick{round * 16 + i, i % 3 == 0 ? 2.0 : 0.0}));
      }
      ASSERT_TRUE(
          monitor->ObserveBatch(ticks.value(), std::move(batch)).ok());
    }
  });
  std::thread churner([&] {
    for (std::size_t i = 0; i < 200; ++i) {
      auto transient = std::make_shared<runtime::CountingSink>();
      Subscription sub = monitor->Subscribe(
          Filter("", "", "", static_cast<double>(i % 3)), transient);
      EXPECT_TRUE(sub.active());
      sub.Unsubscribe();
    }
  });
  producer.join();
  churner.join();
  monitor->Flush();
  EXPECT_TRUE(monitor->Errors().empty());
  EXPECT_GT(stable->count(), 0u);
  EXPECT_EQ(monitor->Metrics().examples_seen, 150u * 16u);
}

// ------------------------------------------------------- scenario loading ---

TEST(ScenarioMonitor, HostsAMixedScenarioInOneMonitor) {
  const config::ScenarioSpec scenario =
      config::ConfigLoader::Load(config::SpecDocument::Parse(R"(
[scenario]
name = "mixed"
[runtime]
shards = 2
window = 32
settle_lag = 4
queue_capacity = 1024
[suite video]
assertions = [video.multibox, video.consistency]
[suite ecg]
assertions = [ecg.oscillation]
[stream cam-0]
domain = video
[stream ward-0]
domain = ecg
)"));
  const serve::DomainRegistry domains = MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted =
      config::BuildScenarioMonitor(scenario, domains);
  ASSERT_NE(hosted.monitor, nullptr);
  ASSERT_EQ(hosted.streams.size(), 2u);
  EXPECT_EQ(hosted.streams[0].handle.name(), "cam-0");
  EXPECT_EQ(hosted.streams[0].handle.domain(), "video");
  EXPECT_EQ(hosted.streams[1].handle.domain(), "ecg");
  EXPECT_EQ(hosted.monitor->config().shards, 2u);
  EXPECT_EQ(
      hosted.assertion_names.at("video"),
      (std::vector<std::string>{"video/multibox", "video/flicker",
                                "video/appear"}));
  EXPECT_EQ(hosted.assertion_names.at("ecg"),
            (std::vector<std::string>{"ecg/ECG"}));

  // The registered streams serve (a smoke through the facade path).
  std::vector<AnyExample> batch;
  for (video::VideoExample& example : FixedVideoStream()) {
    batch.push_back(AnyExample::Make(std::move(example)));
  }
  EXPECT_TRUE(hosted.monitor
                  ->ObserveBatch(hosted.streams[0].handle, std::move(batch))
                  .ok());
  hosted.monitor->Flush();
  EXPECT_EQ(hosted.monitor->Metrics().examples_seen, 40u);

  // Unknown domains fail positioned, with the registry's vocabulary.
  const config::ScenarioSpec unknown =
      config::ConfigLoader::Load(config::SpecDocument::Parse(
          "[scenario]\nname = u\n[suite nope]\nassertions = [x]\n"
          "[stream s]\ndomain = nope\n"));
  EXPECT_THROW(config::BuildScenarioMonitor(unknown, domains),
               config::SpecError);
}

}  // namespace
}  // namespace omg::serve
