// Property test for the work-stealing invariant: stealing is an execution
// strategy, not a semantics change. For any seed, shard count, and batch
// size, the flag digest (replay::SummariseFlags over every emitted event)
// must be identical with stealing on and off, and identical across shard
// counts — per-stream batches score in submission order on exactly one
// worker at a time, so where they score cannot matter. The accounting
// identity offered == scored + shed + dropped + errored is checked on
// every run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/assertion.hpp"
#include "replay/replay.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/sharded_service.hpp"

namespace omg::runtime {
namespace {

struct Tick {
  double value = 0.0;
};

std::vector<Tick> MakeStream(std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed);
  std::vector<Tick> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    stream.push_back(Tick{rng.Uniform(-2.0, 2.0)});
  }
  return stream;
}

ShardedMonitorService<Tick>::SuiteBundle MakeBundle() {
  auto suite = std::make_shared<core::AssertionSuite<Tick>>();
  suite->AddPointwise(
      "positive", [](const Tick& t) { return t.value > 1.0 ? t.value : 0.0; });
  suite->AddFunction(
      "rising",
      [](std::span<const Tick> stream) {
        std::vector<double> severities(stream.size(), 0.0);
        for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
          if (stream[i + 1].value > stream[i].value + 1.5) severities[i] = 1.0;
        }
        return severities;
      },
      /*temporal_radius=*/1);
  return {suite, {}};
}

constexpr std::size_t kStreams = 6;
constexpr std::size_t kPerStream = 400;

/// Runs one full ingest with the given geometry and returns the canonical
/// flag digest; fails the accounting identity inline.
std::uint64_t RunDigest(std::uint64_t seed, std::size_t shards,
                        std::size_t batch_size, bool stealing) {
  ShardedRuntimeConfig config;
  config.shards = shards;
  config.window = 24;
  config.settle_lag = 6;
  config.queue_capacity = 512;
  config.stealing = stealing;
  ShardedMonitorService<Tick> service(config, MakeBundle);
  auto sink = std::make_shared<CollectingSink>();
  service.AddSink(sink);

  std::vector<StreamId> ids;
  std::vector<std::vector<Tick>> data;
  for (std::size_t s = 0; s < kStreams; ++s) {
    ids.push_back(
        service.RegisterStream(std::string("s").append(std::to_string(s))));
    data.push_back(MakeStream(seed * 101 + s, kPerStream));
  }

  // Round-robin the streams in `batch_size` slices, like interleaved
  // producers would; kBlock admits everything, so offered is exact.
  std::size_t offered = 0;
  for (std::size_t begin = 0; begin < kPerStream; begin += batch_size) {
    const std::size_t count = std::min(batch_size, kPerStream - begin);
    for (std::size_t s = 0; s < kStreams; ++s) {
      std::vector<Tick> batch(data[s].begin() + begin,
                              data[s].begin() + begin + count);
      EXPECT_TRUE(service.ObserveBatch(ids[s], std::move(batch)));
      offered += count;
    }
  }
  service.Flush();
  EXPECT_TRUE(service.Errors().empty());

  const MetricsSnapshot snapshot = service.Metrics();
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples() +
                snapshot.TotalErroredExamples(),
            offered)
      << "accounting identity broken: seed=" << seed << " shards=" << shards
      << " batch=" << batch_size << " stealing=" << stealing;
  return replay::SummariseFlags(sink->Events()).digest;
}

TEST(StealEquivalence, DigestsIdenticalAcrossShardsBatchSizesAndStealing) {
  for (const std::uint64_t seed : {11ULL, 29ULL, 83ULL}) {
    for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                         std::size_t{32}}) {
      bool have_reference = false;
      std::uint64_t reference = 0;
      for (const std::size_t shards :
           {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        for (const bool stealing : {false, true}) {
          const std::uint64_t digest =
              RunDigest(seed, shards, batch_size, stealing);
          if (!have_reference) {
            reference = digest;
            have_reference = true;
            continue;
          }
          EXPECT_EQ(digest, reference)
              << "seed=" << seed << " shards=" << shards
              << " batch=" << batch_size << " stealing=" << stealing;
        }
      }
    }
  }
}

}  // namespace
}  // namespace omg::runtime
