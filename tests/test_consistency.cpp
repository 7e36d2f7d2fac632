#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>

#include "common/check.hpp"
#include "common/example_gen.hpp"
#include "common/rng.hpp"
#include "core/consistency.hpp"
#include "core/consistency_adapter.hpp"
#include "ecg/factory.hpp"
#include "tvnews/factory.hpp"
#include "video/factory.hpp"

namespace omg::core {
namespace {

// Builds frames 0..n-1 at 1 Hz in one group.
std::vector<ConsistencyFrame> LinearFrames(std::size_t n,
                                           const std::string& group = "g",
                                           double period = 1.0) {
  std::vector<ConsistencyFrame> frames;
  for (std::size_t i = 0; i < n; ++i) {
    frames.push_back({i, static_cast<double>(i) * period, group});
  }
  return frames;
}

ConsistencyRecord MakeRecord(std::size_t example, double ts,
                             const std::string& id,
                             const std::string& group = "g") {
  ConsistencyRecord r;
  r.example_index = example;
  r.output_index = 0;
  r.timestamp = ts;
  r.group = group;
  r.identifier = id;
  return r;
}

TEST(ConsistencyEngine, AssertionNamesFollowConfig) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender", "hair"};
  config.temporal_threshold = 30.0;
  const ConsistencyEngine engine(config);
  EXPECT_EQ(engine.AssertionNames(),
            (std::vector<std::string>{"consistent:gender",
                                      "consistent:hair", "flicker",
                                      "appear"}));
}

TEST(ConsistencyEngine, NoTemporalColumnsWhenDisabled) {
  ConsistencyConfig config;
  config.attribute_keys = {"k"};
  const ConsistencyEngine engine(config);
  EXPECT_EQ(engine.AssertionNames(),
            (std::vector<std::string>{"consistent:k"}));
}

TEST(ConsistencyEngine, AttributeMismatchFlagsMinority) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(3);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 0; i < 3; ++i) {
    auto r = MakeRecord(i, static_cast<double>(i), "alice");
    r.attributes.emplace_back("gender", i == 1 ? "male" : "female");
    records.push_back(std::move(r));
  }
  const auto result = engine.Analyze(frames, records, 3);
  EXPECT_DOUBLE_EQ(result.severities[0][0], 0.0);
  EXPECT_DOUBLE_EQ(result.severities[0][1], 1.0);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 0.0);
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_EQ(result.corrections[0].kind, CorrectionKind::kSetAttribute);
  EXPECT_EQ(result.corrections[0].proposed_value, "female");
  EXPECT_EQ(result.corrections[0].example_index, 1u);
}

TEST(ConsistencyEngine, ConsistentAttributesDoNotFire) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(3);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 0; i < 3; ++i) {
    auto r = MakeRecord(i, static_cast<double>(i), "alice");
    r.attributes.emplace_back("gender", "female");
    records.push_back(std::move(r));
  }
  const auto result = engine.Analyze(frames, records, 3);
  EXPECT_TRUE(result.corrections.empty());
  for (const double s : result.severities[0]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, DifferentIdentifiersNotCompared) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(2);
  std::vector<ConsistencyRecord> records;
  auto a = MakeRecord(0, 0.0, "alice");
  a.attributes.emplace_back("gender", "female");
  auto b = MakeRecord(1, 1.0, "bob");
  b.attributes.emplace_back("gender", "male");
  records.push_back(a);
  records.push_back(b);
  const auto result = engine.Analyze(frames, records, 2);
  EXPECT_TRUE(result.corrections.empty());
}

TEST(ConsistencyEngine, DifferentGroupsNotCompared) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  std::vector<ConsistencyFrame> frames = {{0, 0.0, "g1"}, {1, 0.0, "g2"}};
  std::vector<ConsistencyRecord> records;
  auto a = MakeRecord(0, 0.0, "alice", "g1");
  a.attributes.emplace_back("gender", "female");
  auto b = MakeRecord(1, 0.0, "alice", "g2");
  b.attributes.emplace_back("gender", "male");
  records.push_back(a);
  records.push_back(b);
  const auto result = engine.Analyze(frames, records, 2);
  EXPECT_TRUE(result.corrections.empty());
}

TEST(ConsistencyEngine, UnlistedAttributeKeysIgnored) {
  ConsistencyConfig config;
  config.attribute_keys = {"gender"};
  const ConsistencyEngine engine(config);
  auto frames = LinearFrames(2);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 0; i < 2; ++i) {
    auto r = MakeRecord(i, static_cast<double>(i), "alice");
    r.attributes.emplace_back("hair", i == 0 ? "black" : "blond");
    records.push_back(std::move(r));
  }
  const auto result = engine.Analyze(frames, records, 2);
  EXPECT_TRUE(result.corrections.empty());
}

// ---- Temporal assertions ----

ConsistencyEngine TemporalEngine(double threshold) {
  ConsistencyConfig config;
  config.temporal_threshold = threshold;
  return ConsistencyEngine(config);
}

TEST(ConsistencyEngine, FlickerFiresOnShortGap) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  // Present 0,1, absent 2, present 3,4,5 -> gap of 2 s < 3 s.
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 6);
  const auto& flicker = result.severities[0];
  EXPECT_DOUBLE_EQ(flicker[2], 1.0);
  EXPECT_DOUBLE_EQ(flicker[1], 0.0);
  EXPECT_DOUBLE_EQ(flicker[3], 0.0);
  // One add-output correction for the gap frame.
  ASSERT_EQ(result.corrections.size(), 1u);
  EXPECT_EQ(result.corrections[0].kind, CorrectionKind::kAddOutput);
  EXPECT_EQ(result.corrections[0].example_index, 2u);
  EXPECT_FALSE(result.corrections[0].support_records.empty());
}

TEST(ConsistencyEngine, LongGapIsNotFlicker) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(10);
  // Present 0,1, absent 2..5 (gap 4 s >= 3 s), present 6..9.
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 6u, 7u, 8u, 9u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 10);
  for (const double s : result.severities[0]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, AppearFiresOnBriefEpisode) {
  const auto engine = TemporalEngine(3.5);
  auto frames = LinearFrames(8);
  // Absent 0..2, present 3,4, absent 5..7: the episode spans 3 s between
  // the bounding absences (t=2 to t=5), under the 3.5 s threshold.
  std::vector<ConsistencyRecord> records = {MakeRecord(3, 3.0, "ghost"),
                                            MakeRecord(4, 4.0, "ghost")};
  const auto result = engine.Analyze(frames, records, 8);
  const auto& appear = result.severities[1];
  EXPECT_DOUBLE_EQ(appear[3], 1.0);
  EXPECT_DOUBLE_EQ(appear[4], 1.0);
  EXPECT_DOUBLE_EQ(appear[2], 0.0);
  // Remove-output corrections for both episode records.
  ASSERT_EQ(result.corrections.size(), 2u);
  for (const auto& c : result.corrections) {
    EXPECT_EQ(c.kind, CorrectionKind::kRemoveOutput);
  }
}

TEST(ConsistencyEngine, LongEpisodeDoesNotAppear) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(10);
  std::vector<ConsistencyRecord> records;
  for (std::size_t i = 2; i <= 7; ++i) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 10);
  for (const double s : result.severities[1]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, BoundaryEpisodesNotFlagged) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  // Present only at the very start and the very end: their true extent is
  // unknown, so neither is flagged as a brief appearance.
  std::vector<ConsistencyRecord> records = {MakeRecord(0, 0.0, "a"),
                                            MakeRecord(5, 5.0, "b")};
  const auto result = engine.Analyze(frames, records, 6);
  for (const double s : result.severities[1]) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(ConsistencyEngine, FlickerGapOfTwoFrames) {
  const auto engine = TemporalEngine(5.0);
  auto frames = LinearFrames(8);
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 4u, 5u, 6u, 7u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 8);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 1.0);
  EXPECT_DOUBLE_EQ(result.severities[0][3], 1.0);
  EXPECT_EQ(result.corrections.size(), 2u);
}

TEST(ConsistencyEngine, MultipleEntitiesIndependent) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  std::vector<ConsistencyRecord> records;
  // car-1 present everywhere; car-2 flickers at frame 2.
  for (std::size_t i = 0; i < 6; ++i) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-2"));
  }
  const auto result = engine.Analyze(frames, records, 6);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 1.0);  // only car-2's gap
}

TEST(ConsistencyEngine, SeverityCountsMultipleViolations) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(6);
  std::vector<ConsistencyRecord> records;
  // Two entities both flicker at frame 2 -> severity 2 there.
  for (const auto* id : {"car-1", "car-2"}) {
    for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
      records.push_back(MakeRecord(i, static_cast<double>(i), id));
    }
  }
  const auto result = engine.Analyze(frames, records, 6);
  EXPECT_DOUBLE_EQ(result.severities[0][2], 2.0);
}

TEST(ConsistencyEngine, RejectsOutOfRangeIndices) {
  const auto engine = TemporalEngine(3.0);
  auto frames = LinearFrames(2);
  std::vector<ConsistencyRecord> records = {MakeRecord(5, 0.0, "x")};
  EXPECT_THROW(engine.Analyze(frames, records, 2), common::CheckError);
}

TEST(ConsistencyEngine, RecordWithoutFrameRejected) {
  const auto engine = TemporalEngine(3.0);
  std::vector<ConsistencyFrame> frames = {{0, 0.0, "g"}};
  // Record in a group that has frames, but at an example index that is not
  // on that group's timeline.
  std::vector<ConsistencyRecord> records = {MakeRecord(1, 1.0, "x")};
  EXPECT_THROW(engine.Analyze(frames, records, 2), common::CheckError);
}

// Parameterized: threshold semantics — a gap of `gap` seconds fires iff
// gap < T.
class FlickerThreshold
    : public ::testing::TestWithParam<std::pair<double, bool>> {};

TEST_P(FlickerThreshold, GapFiresIffBelowThreshold) {
  const auto [threshold, should_fire] = GetParam();
  const auto engine = TemporalEngine(threshold);
  auto frames = LinearFrames(7);
  // Gap spans frames 2,3 -> absent from t=2 to t=4, duration 2 s
  // (measured last-seen -> next-seen).
  std::vector<ConsistencyRecord> records;
  for (const std::size_t i : {0u, 1u, 4u, 5u, 6u}) {
    records.push_back(MakeRecord(i, static_cast<double>(i), "car-1"));
  }
  const auto result = engine.Analyze(frames, records, 7);
  const bool fired = result.severities[0][2] > 0.0;
  EXPECT_EQ(fired, should_fire);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, FlickerThreshold,
    ::testing::Values(std::pair{1.0, false},   // gap 3 s >= 1 s
                      std::pair{3.0, false},   // gap 3 s >= 3 s
                      std::pair{3.01, true},   // gap 3 s < 3.01 s
                      std::pair{10.0, true}));

// ---- Adapter ----

struct ToyExample {
  double timestamp = 0.0;
  bool present = false;
};

ConsistencyExtraction ExtractToy(std::span<const ToyExample> examples) {
  ConsistencyExtraction extraction;
  for (std::size_t e = 0; e < examples.size(); ++e) {
    extraction.frames.push_back({e, examples[e].timestamp, "g"});
    if (examples[e].present) {
      ConsistencyRecord r;
      r.example_index = e;
      r.output_index = 0;
      r.timestamp = examples[e].timestamp;
      r.group = "g";
      r.identifier = "obj";
      extraction.records.push_back(std::move(r));
    }
  }
  return extraction;
}

TEST(ConsistencyAdapter, GeneratesSuiteColumns) {
  AssertionSuite<ToyExample> suite;
  ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  auto analyzer = AddConsistencyAssertion<ToyExample>(
      suite, config, [](std::span<const ToyExample> ex) {
        return ExtractToy(ex);
      });
  EXPECT_EQ(suite.Names(), (std::vector<std::string>{"flicker", "appear"}));

  std::vector<ToyExample> stream;
  for (std::size_t i = 0; i < 6; ++i) {
    stream.push_back({static_cast<double>(i), i != 2});
  }
  const SeverityMatrix m = suite.CheckAll(stream);
  EXPECT_TRUE(m.Fired(2, 0));   // flicker at the gap
  EXPECT_FALSE(m.Fired(2, 1));  // not an appear
  EXPECT_EQ(analyzer->Corrections(stream).size(), 1u);
}

TEST(ConsistencyAdapter, NamePrefixApplied) {
  AssertionSuite<ToyExample> suite;
  ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  AddConsistencyAssertion<ToyExample>(
      suite, config,
      [](std::span<const ToyExample> ex) { return ExtractToy(ex); },
      "news:");
  EXPECT_EQ(suite.Names(),
            (std::vector<std::string>{"news:flicker", "news:appear"}));
}

TEST(ConsistencyAdapter, EmptyConfigRejected) {
  AssertionSuite<ToyExample> suite;
  EXPECT_THROW(AddConsistencyAssertion<ToyExample>(
                   suite, ConsistencyConfig{},
                   [](std::span<const ToyExample> ex) {
                     return ExtractToy(ex);
                   }),
               common::CheckError);
}

TEST(ConsistencyAdapter, InvalidateForcesReanalysis) {
  ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  ConsistencyAnalyzer<ToyExample> analyzer(
      config,
      [](std::span<const ToyExample> ex) { return ExtractToy(ex); });
  std::vector<ToyExample> stream;
  for (std::size_t i = 0; i < 6; ++i) {
    stream.push_back({static_cast<double>(i), i != 2});
  }
  const auto& first = analyzer.Analyze(stream);
  EXPECT_DOUBLE_EQ(first.severities[0][2], 1.0);
  // Mutate the stream in place (same pointer/size): without Invalidate the
  // cache would serve the stale result.
  stream[2].present = true;
  analyzer.Invalidate();
  const auto& second = analyzer.Analyze(stream);
  EXPECT_DOUBLE_EQ(second.severities[0][2], 0.0);
}

TEST(ConsistencyAdapter, SuitePassThenCorrectionsExtractsOnce) {
  int extractions = 0;
  const auto counting = [&extractions](std::span<const ToyExample> ex) {
    ++extractions;
    return ExtractToy(ex);
  };
  ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  AssertionSuite<ToyExample> suite;
  auto analyzer = AddConsistencyAssertion<ToyExample>(suite, config, counting);
  // Flicker gaps at 2, 5 and 7 and a brief appearance at 6: both kinds.
  std::vector<ToyExample> stream;
  for (std::size_t i = 0; i < 10; ++i) {
    stream.push_back({static_cast<double>(i), i != 2 && i != 5 && i != 7});
  }
  (void)suite.CheckAll(stream);
  const std::vector<Correction> corrections = analyzer->Corrections(stream);
  const std::vector<ConsistencyRecord> records = analyzer->LatestRecords();
  EXPECT_EQ(extractions, 1);

  ConsistencyAnalyzer<ToyExample> fresh(config, counting);
  const ConsistencyResult& expected = fresh.Analyze(stream);
  EXPECT_EQ(extractions, 2);
  EXPECT_EQ(analyzer->Analyze(stream).severities, expected.severities);
  ASSERT_EQ(corrections.size(), expected.corrections.size());
  ASSERT_GE(corrections.size(), 2u);
  for (std::size_t c = 0; c < corrections.size(); ++c) {
    EXPECT_EQ(corrections[c].kind, expected.corrections[c].kind);
    EXPECT_EQ(corrections[c].example_index,
              expected.corrections[c].example_index);
    EXPECT_EQ(corrections[c].output_index,
              expected.corrections[c].output_index);
    EXPECT_EQ(corrections[c].support_records,
              expected.corrections[c].support_records);
  }
  ASSERT_EQ(records.size(), fresh.LatestRecords().size());
  for (std::size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(records[r].example_index,
              fresh.LatestRecords()[r].example_index);
  }
  EXPECT_EQ(extractions, 2);
}

// ---- Pinned results ----
//
// Digests of whole ConsistencyResults: the names, every severity, and every
// field of every correction in order. Corrections become weak labels, so a
// change to any flag, correction or correction order must show here;
// update a digest only for an intended change of behaviour. Each pinned
// stream also checks that the severities-only entry equals Analyze's
// severities.

/// FNV-1a over a result's fields, in order.
class ResultDigest {
 public:
  void Add(const ConsistencyResult& result) {
    Size(result.assertion_names.size());
    for (const auto& name : result.assertion_names) String(name);
    Size(result.severities.size());
    for (const auto& column : result.severities) {
      Size(column.size());
      for (const double s : column) Double(s);
    }
    Size(result.corrections.size());
    for (const auto& c : result.corrections) {
      Size(static_cast<std::size_t>(c.kind));
      String(c.group);
      String(c.identifier);
      Size(c.example_index);
      Double(c.timestamp);
      Size(static_cast<std::size_t>(c.output_index));
      String(c.attribute_key);
      String(c.proposed_value);
      Size(c.support_records.size());
      for (const std::size_t r : c.support_records) Size(r);
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  void Bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void Size(std::size_t n) {
    const auto v = static_cast<std::uint64_t>(n);
    Bytes(&v, sizeof v);
  }
  void Double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Bytes(&bits, sizeof bits);
  }
  void String(const std::string& s) {
    Size(s.size());
    Bytes(s.data(), s.size());
  }

  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Counts of each correction kind, so a digest never pins an empty result.
std::map<CorrectionKind, std::size_t> KindCounts(
    const ConsistencyResult& result) {
  std::map<CorrectionKind, std::size_t> counts;
  for (const auto& c : result.corrections) ++counts[c.kind];
  return counts;
}

/// Seeded model-backed traffic, the same generator the serving benchmarks
/// and the scenario harness use.
struct DomainStreams {
  std::vector<video::VideoExample> video;
  std::vector<ecg::EcgExample> ecg;
  std::vector<tvnews::NewsFrame> news;
};

template <typename T>
std::vector<T> Typed(const std::vector<serve::AnyExample>& erased) {
  std::vector<T> typed;
  for (const auto& example : erased) typed.push_back(example.Get<T>());
  return typed;
}

const DomainStreams& GoldenStreams() {
  static const DomainStreams streams = [] {
    config::ScenarioSpec scenario;
    for (const auto& [domain, examples, seed] :
         {std::tuple<const char*, std::size_t, std::uint64_t>{"video", 400, 7},
          {"ecg", 720, 11},
          {"tvnews", 600, 3}}) {
      config::StreamSpec stream;
      stream.name = domain;
      stream.domain = domain;
      stream.examples = examples;
      stream.seed = seed;
      scenario.streams.push_back(stream);
    }
    const common::TrafficMap traffic =
        common::GenerateScenarioTraffic(scenario);
    DomainStreams out;
    out.video = Typed<video::VideoExample>(traffic.at("video"));
    out.ecg = Typed<ecg::EcgExample>(traffic.at("ecg"));
    out.news = Typed<tvnews::NewsFrame>(traffic.at("tvnews"));
    return out;
  }();
  return streams;
}

/// Analyze on one extraction, checking that the severities-only entry gives
/// the same severities.
ConsistencyResult AnalyzeExtraction(const ConsistencyConfig& config,
                                    const ConsistencyExtraction& extraction,
                                    std::size_t num_examples) {
  const ConsistencyEngine engine(config);
  ConsistencyResult result =
      engine.Analyze(extraction.frames, extraction.records, num_examples);
  EXPECT_EQ(
      engine.Severities(extraction.frames, extraction.records, num_examples),
      result.severities);
  return result;
}

TEST(ConsistencyGolden, VideoTrackerStream) {
  const auto& stream = GoldenStreams().video;
  ConsistencyConfig config;
  config.temporal_threshold = 1.0;
  const ConsistencyResult result = AnalyzeExtraction(
      config, video::ExtractVideoRecords(stream, geometry::TrackerConfig{}),
      stream.size());
  const auto kinds = KindCounts(result);
  EXPECT_GT(kinds.count(CorrectionKind::kAddOutput), 0u);
  EXPECT_GT(kinds.count(CorrectionKind::kRemoveOutput), 0u);
  ResultDigest digest;
  digest.Add(result);
  EXPECT_EQ(digest.value(), 9151850809845138967ULL);
}

TEST(ConsistencyGolden, EcgRhythmStream) {
  const auto& stream = GoldenStreams().ecg;
  ConsistencyConfig config;
  config.temporal_threshold = 30.0;
  const ConsistencyResult result = AnalyzeExtraction(
      config, ecg::ExtractEcgRecords(stream), stream.size());
  const auto kinds = KindCounts(result);
  EXPECT_GT(kinds.count(CorrectionKind::kAddOutput), 0u);
  EXPECT_GT(kinds.count(CorrectionKind::kRemoveOutput), 0u);
  ResultDigest digest;
  digest.Add(result);
  EXPECT_EQ(digest.value(), 1546939315405535711ULL);
}

TEST(ConsistencyGolden, NewsAttributeStream) {
  // Attribute keys over many scene groups, with and without the temporal
  // columns.
  const auto& stream = GoldenStreams().news;
  const ConsistencyExtraction extraction = tvnews::ExtractNewsRecords(stream);
  ConsistencyConfig config;
  config.attribute_keys = {"identity", "gender", "hair"};
  ResultDigest digest;
  const ConsistencyResult attributes =
      AnalyzeExtraction(config, extraction, stream.size());
  EXPECT_GT(KindCounts(attributes).count(CorrectionKind::kSetAttribute), 0u);
  digest.Add(attributes);
  config.temporal_threshold = 2.0;
  digest.Add(AnalyzeExtraction(config, extraction, stream.size()));
  EXPECT_EQ(digest.value(), 4312394749715035487ULL);
}

/// A random multi-group stream with the engine's corner cases: groups out
/// of name order, frames and records shuffled (timestamps and records out
/// of frame order), repeated example indices within a group, equal
/// timestamps, several outputs of one identifier on one frame, repeated
/// attribute keys in one record, and attribute values that tie for the
/// mode.
struct RandomStream {
  std::vector<ConsistencyFrame> frames;
  std::vector<ConsistencyRecord> records;
  std::size_t num_examples = 0;
  ConsistencyConfig config;
};

/// One of three attribute values, so values often tie for the mode.
std::string RandomValue(common::Rng& rng) {
  return std::string("v").append(std::to_string(rng.UniformInt(0, 2)));
}

RandomStream MakeRandomStream(std::uint64_t seed) {
  common::Rng rng(seed);
  RandomStream s;
  std::size_t next_example = 0;
  const std::int64_t groups = rng.UniformInt(1, 4);
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::string group = "g" + std::to_string(rng.UniformInt(0, 5));
    std::vector<ConsistencyFrame> timeline;
    double ts = rng.Uniform(0.0, 4.0);
    const std::int64_t length = rng.UniformInt(1, 30);
    for (std::int64_t i = 0; i < length; ++i) {
      std::size_t example = next_example;
      if (!timeline.empty() && rng.Bernoulli(0.05)) {
        example = timeline[static_cast<std::size_t>(rng.UniformInt(
                               0, static_cast<std::int64_t>(timeline.size()) -
                                      1))]
                      .example_index;
      } else {
        ++next_example;
      }
      if (!rng.Bernoulli(0.1)) ts += rng.Uniform(0.2, 1.5);
      timeline.push_back({example, ts, group});
    }
    const std::int64_t identifiers = rng.UniformInt(1, 5);
    for (std::int64_t id = 0; id < identifiers; ++id) {
      const double presence = rng.Uniform(0.3, 0.9);
      for (const auto& frame : timeline) {
        if (!rng.Bernoulli(presence)) continue;
        const int outputs = rng.Bernoulli(0.1) ? 2 : 1;
        for (int o = 0; o < outputs; ++o) {
          ConsistencyRecord record;
          record.example_index = frame.example_index;
          record.output_index = static_cast<std::int64_t>(s.records.size());
          record.timestamp = frame.timestamp;
          record.group = group;
          record.identifier = "id-" + std::to_string(id);
          for (const char* key : {"a", "b"}) {
            if (rng.Bernoulli(0.2)) continue;
            record.attributes.emplace_back(key, RandomValue(rng));
          }
          if (rng.Bernoulli(0.05)) {
            record.attributes.emplace_back("a", RandomValue(rng));
          }
          s.records.push_back(std::move(record));
        }
      }
    }
    s.frames.insert(s.frames.end(), timeline.begin(), timeline.end());
  }
  rng.Shuffle(s.frames);
  rng.Shuffle(s.records);
  s.num_examples =
      next_example + static_cast<std::size_t>(rng.UniformInt(0, 3));
  s.config.temporal_threshold =
      rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.5, 6.0);
  for (const char* key : {"a", "b", "c"}) {
    if (rng.Bernoulli(0.5)) s.config.attribute_keys.emplace_back(key);
  }
  return s;
}

TEST(ConsistencyGolden, RandomMultiGroupSweep) {
  ResultDigest digest;
  std::size_t corrections = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const RandomStream s = MakeRandomStream(seed);
    const ConsistencyEngine engine(s.config);
    const ConsistencyResult result =
        engine.Analyze(s.frames, s.records, s.num_examples);
    EXPECT_EQ(engine.Severities(s.frames, s.records, s.num_examples),
              result.severities)
        << "seed " << seed;
    corrections += result.corrections.size();
    digest.Add(result);
  }
  EXPECT_GT(corrections, 0u);
  EXPECT_EQ(digest.value(), 16127585641691523143ULL);
}

// ---- Malformed streams ----

// Both entry points throw the same CheckError on each malformed input.
TEST(ConsistencyEngine, BothEntryPointsRejectMalformedStreams) {
  const auto engine = TemporalEngine(3.0);
  const auto frames = LinearFrames(3);
  const auto message = [&engine](const std::vector<ConsistencyFrame>& f,
                                 const std::vector<ConsistencyRecord>& r,
                                 std::size_t n, bool severities_only) {
    try {
      if (severities_only) {
        (void)engine.Severities(f, r, n);
      } else {
        (void)engine.Analyze(f, r, n);
      }
    } catch (const common::CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  struct Case {
    const char* expected;
    std::vector<ConsistencyFrame> frames;
    std::vector<ConsistencyRecord> records;
  };
  const std::vector<Case> cases = {
      {"record example_index out of range", frames, {MakeRecord(3, 3.0, "x")}},
      {"frame example_index out of range",
       {{0, 0.0, "g"}, {7, 1.0, "g"}},
       {MakeRecord(0, 0.0, "x")}},
      {"records reference group with no frames: h",
       frames,
       {MakeRecord(0, 0.0, "x"), MakeRecord(1, 1.0, "x", "h")}},
      {"record example missing from frame timeline",
       {{0, 0.0, "g"}, {2, 2.0, "g"}},
       {MakeRecord(0, 0.0, "x"), MakeRecord(1, 1.0, "x")}},
  };
  for (const Case& c : cases) {
    const std::string analyze = message(c.frames, c.records, 3, false);
    EXPECT_NE(analyze.find(c.expected), std::string::npos) << analyze;
    EXPECT_EQ(message(c.frames, c.records, 3, true), analyze);
  }
}

}  // namespace
}  // namespace omg::core
