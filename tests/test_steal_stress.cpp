// Work-stealing stress: imbalanced placement (every hot stream homed on
// one shard), concurrent producers, and a gate that pins the home worker
// inside a batch so the idle neighbours *must* steal. Asserts that steals
// actually happened (victim-side stolen_batches / thief-side steal_ns),
// that the accounting identity holds under stealing, and that per-shard
// occupancy reconciles: busy + idle + steal never exceeds worker wall
// time. The TSan CI job runs this binary — the claimed-stream protocol's
// handoffs are exactly what it probes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/assertion.hpp"
#include "obs/clock.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/sharded_service.hpp"

namespace omg::runtime {
namespace {

struct Tick {
  double value = 0.0;
};

/// Rendezvous: the home worker parks inside Arrive() until Release().
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool arrived = false;
  bool released = false;

  void Arrive() {
    std::unique_lock<std::mutex> lock(mutex);
    arrived = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return arrived; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

constexpr double kStallValue = 1e9;

TEST(StealStress, ImbalancedShardsStealAndOccupancyReconciles) {
  constexpr std::size_t kShards = 4;
  ShardedRuntimeConfig config;
  config.shards = kShards;
  config.window = 16;
  config.settle_lag = 4;
  config.queue_capacity = 4096;
  config.stealing = true;

  auto gate = std::make_shared<Gate>();
  const std::uint64_t wall_begin_ns = obs::Clock::NowNs();
  ShardedMonitorService<Tick> service(config, [gate] {
    auto suite = std::make_shared<core::AssertionSuite<Tick>>();
    suite->AddPointwise("hot", [gate](const Tick& t) {
      if (t.value == kStallValue) gate->Arrive();
      return t.value > 1.0 ? t.value : 0.0;
    });
    return ShardedMonitorService<Tick>::SuiteBundle{suite, {}};
  });

  // Register 4 * kShards streams; traffic goes only to the ones homed on
  // shard 0 (id % kShards == 0) — one shard owns the entire hot set.
  std::vector<StreamId> hot;
  for (std::size_t s = 0; s < kShards * 4; ++s) {
    const StreamId id =
        service.RegisterStream(std::string("s").append(std::to_string(s)));
    if (id % kShards == 0) hot.push_back(id);
  }
  ASSERT_EQ(hot.size(), 4u);

  // Pin shard 0's worker inside hot[0]: everything the producers enqueue
  // for the other hot streams can only be scored by thieves until the
  // gate opens.
  ASSERT_TRUE(service.ObserveBatch(hot[0], {Tick{kStallValue}}));
  gate->AwaitArrival();

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kBatchesPerProducer = 40;
  constexpr std::size_t kBatch = 16;
  std::atomic<std::size_t> offered{1};  // the stalling example
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      common::Rng rng(1234 + p);
      for (std::size_t b = 0; b < kBatchesPerProducer; ++b) {
        std::vector<Tick> batch(kBatch);
        for (Tick& tick : batch) tick.value = rng.Uniform(-2.0, 2.0);
        // Never hot[0]: its stream is pinned behind the gate, and a
        // claimed stream cannot be stolen.
        const StreamId id = hot[1 + (p + b) % (hot.size() - 1)];
        if (service.ObserveBatch(id, std::move(batch))) {
          offered.fetch_add(kBatch, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  // The thieves poll every ~500us; wait until they have visibly stolen
  // before opening the gate (bounded, so a broken steal path fails the
  // explicit assertion below instead of hanging).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const MetricsSnapshot probe = service.Metrics();
    std::size_t stolen = 0;
    for (const ShardMetrics& shard : probe.shards) {
      stolen += shard.stolen_batches;
    }
    if (stolen > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate->Release();
  service.Flush();
  const std::uint64_t wall_ns =
      obs::Clock::ElapsedNs(wall_begin_ns, obs::Clock::NowNs());
  ASSERT_TRUE(service.Errors().empty());

  const MetricsSnapshot snapshot = service.Metrics();
  ASSERT_EQ(snapshot.shards.size(), kShards);

  // Steals happened, and both sides of the ledger saw them: shard 0 was
  // robbed (victim-side counters), some neighbour worked (thief-side ns).
  std::size_t stolen_batches = 0;
  std::size_t stolen_examples = 0;
  std::uint64_t steal_ns = 0;
  for (const ShardMetrics& shard : snapshot.shards) {
    stolen_batches += shard.stolen_batches;
    stolen_examples += shard.stolen_examples;
    steal_ns += shard.steal_ns;
  }
  EXPECT_GT(stolen_batches, 0u);
  EXPECT_GT(stolen_examples, 0u);
  EXPECT_GT(steal_ns, 0u);
  EXPECT_EQ(snapshot.shards[0].stolen_batches, stolen_batches)
      << "only shard 0 had anything to steal";
  EXPECT_EQ(snapshot.shards[0].steal_ns, 0u)
      << "shard 0's worker was pinned; it cannot have been the thief";

  // Accounting stays exact under stealing: nothing lost, nothing double
  // counted (kBlock admits everything the producers offered).
  EXPECT_EQ(snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples() +
                snapshot.TotalErroredExamples(),
            offered.load());

  // Occupancy reconciles per shard: busy (own scoring) + idle + steal
  // (foreign scoring) partitions worker wall time — allow scheduler slack
  // but never systematic over-accounting.
  for (const ShardMetrics& shard : snapshot.shards) {
    const std::uint64_t accounted =
        shard.busy_ns + shard.idle_ns + shard.steal_ns;
    EXPECT_LE(accounted,
              wall_ns + wall_ns / 10 + std::uint64_t{50'000'000})
        << "shard " << shard.shard << " over-accounts its worker's time";
    EXPECT_GE(shard.BusyFraction(), 0.0);
    EXPECT_LE(shard.BusyFraction(), 1.0);
  }
}

}  // namespace
}  // namespace omg::runtime
