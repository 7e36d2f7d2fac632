// Tests for the online continuous-improvement loop (src/loop/).
//
// The end-to-end tests drive a deliberately transparent closed loop: points
// in [-1,1]^2 whose true class is sign(x0), a model pretrained on labels
// from the *corrupted* rule sign(x0 + x1), and an assertion that fires where
// the deployed prediction disagrees with the true rule. The model's
// systematic errors live in the two wedges where the rules disagree;
// labeling flagged points there and retraining rotates the boundary back,
// which is exactly the flagged-rate reduction the loop must deliver.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "bandit/bal.hpp"
#include "bandit/strategy.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/assertion.hpp"
#include "loop/improvement_loop.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"
#include "runtime/sharded_service.hpp"

namespace omg::loop {
namespace {

// ------------------------------------------------------------- FlagStore ---

TEST(FlagStore, RecordsMergesAndSnapshots) {
  FlagStore store({/*capacity=*/8, /*num_assertions=*/2});
  store.Record({0, 5}, 0, 1.5);
  store.Record({0, 5}, 1, 2.0);
  store.Record({0, 5}, 0, 1.0);  // lower severity: max-merge keeps 1.5
  store.Record({1, 3}, 1, 4.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_admitted(), 2u);

  const FlagStore::Snapshot snapshot = store.TakeSnapshot();
  ASSERT_EQ(snapshot.keys.size(), 2u);
  // Ascending key order: (0,5) before (1,3).
  EXPECT_EQ(snapshot.keys[0], (CandidateKey{0, 5}));
  EXPECT_EQ(snapshot.keys[1], (CandidateKey{1, 3}));
  EXPECT_DOUBLE_EQ(snapshot.severities.At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(snapshot.severities.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(snapshot.severities.At(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(snapshot.severities.At(1, 1), 4.0);
}

TEST(FlagStore, EvictsBySeverityRankWhenFull) {
  FlagStore store({/*capacity=*/2, /*num_assertions=*/1});
  store.Record({0, 0}, 0, 1.0);
  store.Record({0, 1}, 0, 3.0);
  // Newcomer outranks the weakest incumbent (1.0): incumbent evicted.
  store.Record({0, 2}, 0, 2.0);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 1u);
  FlagStore::Snapshot snapshot = store.TakeSnapshot();
  EXPECT_EQ(snapshot.keys,
            (std::vector<CandidateKey>{{0, 1}, {0, 2}}));

  // Newcomer ranked below every incumbent: dropped, incumbents stay.
  store.Record({0, 3}, 0, 0.5);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.evictions(), 2u);
  snapshot = store.TakeSnapshot();
  EXPECT_EQ(snapshot.keys,
            (std::vector<CandidateKey>{{0, 1}, {0, 2}}));

  // Updates to existing candidates are exempt from capacity pressure.
  store.Record({0, 1}, 0, 9.0);
  EXPECT_DOUBLE_EQ(store.TakeSnapshot().severities.At(0, 0), 9.0);
}

TEST(FlagStore, RemoveAndClear) {
  FlagStore store({8, 1});
  store.Record({0, 0}, 0, 1.0);
  store.Record({0, 1}, 0, 1.0);
  const std::vector<CandidateKey> gone = {{0, 0}, {7, 7}};
  EXPECT_EQ(store.Remove(gone), 1u);  // unknown key ignored
  EXPECT_EQ(store.size(), 1u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_admitted(), 2u);  // lifetime counter survives
}

TEST(FlagStore, ValidatesConfigAndInputs) {
  EXPECT_THROW(FlagStore({0, 1}), common::CheckError);
  EXPECT_THROW(FlagStore({4, 0}), common::CheckError);
  FlagStore store({4, 2});
  EXPECT_THROW(store.Record({0, 0}, 2, 1.0), common::CheckError);
  EXPECT_THROW(store.Record({0, 0}, 0, -1.0), common::CheckError);
}

// ----------------------------------------------------- FlagCollectorSink ---

TEST(FlagCollectorSink, MapsAssertionNamesToColumns) {
  auto store = std::make_shared<FlagStore>(FlagStoreConfig{8, 2});
  FlagCollectorSink sink(store, {"flicker", "multibox"});
  sink.Consume({3, "cam", 11, "multibox", 2.0});
  sink.Consume({3, "cam", 11, "flicker", 1.0});
  sink.Consume({3, "cam", 12, "unrelated", 5.0});
  EXPECT_EQ(store->size(), 1u);
  EXPECT_EQ(sink.unknown_events(), 1u);
  const FlagStore::Snapshot snapshot = store->TakeSnapshot();
  EXPECT_EQ(snapshot.keys[0], (CandidateKey{3, 11}));
  EXPECT_DOUBLE_EQ(snapshot.severities.At(0, 0), 1.0);   // flicker column
  EXPECT_DOUBLE_EQ(snapshot.severities.At(0, 1), 2.0);   // multibox column
}

TEST(FlagCollectorSink, RejectsMismatchedNames) {
  auto store = std::make_shared<FlagStore>(FlagStoreConfig{8, 2});
  EXPECT_THROW(FlagCollectorSink(store, {"only-one"}), common::CheckError);
  EXPECT_THROW(FlagCollectorSink(store, {"dup", "dup"}), common::CheckError);
  EXPECT_THROW(FlagCollectorSink(nullptr, {"a", "b"}), common::CheckError);
  EXPECT_THROW(FlagCollectorSink(store, {"a", "b"}, {-0.5}),
               common::CheckError);
}

TEST(FlagCollectorSink, ShedsBelowSeverityFloorAndCountersReconcile) {
  // Under an event storm the collector must keep the loop fed with the
  // high-severity evidence only, never block, and account for every event:
  // consumed == recorded + shed + unknown always.
  auto store = std::make_shared<FlagStore>(FlagStoreConfig{4, 1});
  FlagCollectorSink sink(store, {"flicker"}, {/*min_severity=*/2.0});
  for (std::size_t i = 0; i < 100; ++i) {
    // High-severity events get ever-higher severities so each one outranks
    // the store's current minimum and exercises eviction.
    const double severity = i % 10 == 0 ? 3.0 + 0.01 * static_cast<double>(i)
                                        : 0.5;
    sink.Consume({0, "cam", i, "flicker", severity});
  }
  sink.Consume({0, "cam", 100, "unrelated", 9.0});
  EXPECT_EQ(sink.consumed(), 101u);
  EXPECT_EQ(sink.recorded(), 10u);  // the i % 10 == 0 high-severity events
  EXPECT_EQ(sink.shed_low_severity(), 90u);
  EXPECT_EQ(sink.unknown_events(), 1u);
  EXPECT_EQ(sink.consumed(), sink.recorded() + sink.shed_low_severity() +
                                 sink.unknown_events());
  // The store stayed inside its capacity bound (severity-rank eviction),
  // and everything it holds cleared the floor.
  EXPECT_EQ(store->size(), 4u);
  EXPECT_EQ(store->total_admitted(), 10u);
  EXPECT_EQ(store->evictions(), 6u);
  const FlagStore::Snapshot snapshot = store->TakeSnapshot();
  for (std::size_t row = 0; row < snapshot.keys.size(); ++row) {
    EXPECT_GE(snapshot.severities.At(row, 0), 2.0);
  }
}

TEST(FlagCollectorSink, ConcurrentConsumersKeepCountsConsistent) {
  auto store = std::make_shared<FlagStore>(FlagStoreConfig{64, 1});
  FlagCollectorSink sink(store, {"flicker"}, {/*min_severity=*/1.0});
  std::vector<std::thread> shards;
  for (std::size_t shard = 0; shard < 4; ++shard) {
    shards.emplace_back([&sink, shard] {
      for (std::size_t i = 0; i < 500; ++i) {
        sink.Consume({shard, "s", i, "flicker", i % 2 == 0 ? 2.0 : 0.1});
      }
    });
  }
  for (auto& thread : shards) thread.join();
  EXPECT_EQ(sink.consumed(), 2000u);
  EXPECT_EQ(sink.recorded(), 1000u);
  EXPECT_EQ(sink.shed_low_severity(), 1000u);
  // All recorded severities tie at 2.0, so once the store fills, tied
  // newcomers are dropped: exactly `capacity` candidates were admitted.
  EXPECT_EQ(store->total_admitted(), 64u);
}

// --------------------------------------------------------- ModelRegistry ---

nn::Mlp MakeModel(std::uint64_t seed, std::size_t input_dim = 2) {
  common::Rng rng(seed);
  return nn::Mlp({input_dim, {4}, 2}, rng);
}

TEST(ModelRegistry, PublishesMonotonicVersions) {
  ModelRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.Current().model, nullptr);
  EXPECT_EQ(registry.Publish(MakeModel(1)), 1u);
  EXPECT_EQ(registry.Publish(MakeModel(2)), 2u);
  const ModelHandle handle = registry.Current();
  EXPECT_EQ(handle.version, 2u);
  ASSERT_NE(handle.model, nullptr);
}

TEST(ModelRegistry, ReadersSeeConsistentHandlesUnderConcurrentPublish) {
  ModelRegistry registry;
  registry.Publish(MakeModel(1));
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const ModelHandle handle = registry.Current();
        // A handle is never torn: version >= 1 implies a live model.
        ASSERT_GE(handle.version, 1u);
        ASSERT_NE(handle.model, nullptr);
        (void)handle.model->config();
      }
    });
  }
  for (std::uint64_t i = 2; i <= 50; ++i) registry.Publish(MakeModel(i));
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(registry.version(), 50u);
}

// --------------------------------------------------------------- oracles ---

TEST(Oracles, GroundTruthCountsHumanLabels) {
  GroundTruthOracle oracle([](const CandidateKey& key) {
    nn::Dataset data;
    data.Add({static_cast<double>(key.example_index)}, 1);
    return data;
  });
  const std::vector<CandidateKey> keys = {{0, 1}, {0, 2}};
  const LabelBatch batch = oracle.Label(keys);
  EXPECT_EQ(batch.data.size(), 2u);
  EXPECT_EQ(batch.human_labels, 2u);
  EXPECT_EQ(batch.weak_labels, 0u);
}

TEST(Oracles, WeakOracleDownWeights) {
  WeakLabelOracle oracle(
      [](std::span<const CandidateKey> keys) {
        nn::Dataset data;
        data.Add({1.0}, 0);            // implicit weight 1.0
        data.Add({2.0}, 1, 0.8);       // explicit weight
        (void)keys;
        return data;
      },
      /*weak_weight=*/0.25);
  const std::vector<CandidateKey> keys = {{0, 1}};
  const LabelBatch batch = oracle.Label(keys);
  ASSERT_EQ(batch.data.size(), 2u);
  EXPECT_EQ(batch.weak_labels, 2u);
  ASSERT_EQ(batch.data.weights.size(), 2u);
  EXPECT_DOUBLE_EQ(batch.data.weights[0], 0.25);
  EXPECT_DOUBLE_EQ(batch.data.weights[1], 0.2);
  EXPECT_THROW(WeakLabelOracle([](std::span<const CandidateKey>) {
                 return nn::Dataset{};
               },
                               0.0),
               common::CheckError);
}

TEST(Oracles, MixedOracleConcatenates) {
  auto human = std::make_shared<GroundTruthOracle>([](const CandidateKey&) {
    nn::Dataset data;
    data.Add({1.0}, 1);
    return data;
  });
  auto weak = std::make_shared<WeakLabelOracle>(
      [](std::span<const CandidateKey> keys) {
        nn::Dataset data;
        for (std::size_t i = 0; i < keys.size(); ++i) data.Add({0.0}, 0);
        return data;
      },
      0.5);
  MixedOracle mixed(human, weak);
  EXPECT_EQ(mixed.Name(), "ground-truth+weak-consistency");
  const std::vector<CandidateKey> keys = {{0, 1}, {0, 2}};
  const LabelBatch batch = mixed.Label(keys);
  EXPECT_EQ(batch.data.size(), 4u);
  EXPECT_EQ(batch.human_labels, 2u);
  EXPECT_EQ(batch.weak_labels, 2u);
}

// --------------------------------------------------------- RetrainWorker ---

nn::Dataset TwoClassData(std::uint64_t seed, std::size_t n) {
  common::Rng rng(seed);
  nn::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    data.Add({x0, x1}, x0 > 0.0 ? 1 : 0);
  }
  return data;
}

TEST(RetrainWorker, TrainsAndPublishesInBackground) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish(MakeModel(7));
  RetrainConfig config;
  config.sgd = {0.1, 0.9, 1e-4, 16, 20};
  RetrainWorker worker(config, registry);
  worker.Submit(TwoClassData(1, 64));
  worker.WaitIdle();
  EXPECT_EQ(registry->version(), 2u);
  EXPECT_EQ(worker.retrains(), 1u);
  EXPECT_EQ(worker.accumulated_rows(), 64u);

  worker.Submit(TwoClassData(2, 32));
  worker.WaitIdle();
  EXPECT_EQ(registry->version(), 3u);
  EXPECT_EQ(worker.accumulated_rows(), 96u);  // labels accumulate

  // The published model actually learned the separable rule.
  EXPECT_GT(nn::Accuracy(*registry->Current().model, TwoClassData(3, 200)),
            0.9);
}

TEST(RetrainWorker, RequiresPretrainedRegistry) {
  auto registry = std::make_shared<ModelRegistry>();
  EXPECT_THROW(RetrainWorker(RetrainConfig{}, registry),
               common::CheckError);
}

// A batch that does not fit the model is rejected once and dropped: it
// never joins the accumulated labels, so the batches after it still train
// and publish.
TEST(RetrainWorker, BadBatchIsDroppedAndLaterBatchesPublish) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish(MakeModel(7));
  RetrainConfig config;
  config.sgd = {0.1, 0.9, 1e-4, 16, 5};
  RetrainWorker worker(config, registry);

  nn::Dataset bad = TwoClassData(1, 8);
  bad.Add({0.5, 0.5, 0.5}, 1);  // 3 wide, for a 2-input model
  worker.Submit(std::move(bad));
  worker.WaitIdle();
  EXPECT_EQ(worker.Errors().size(), 1u);
  EXPECT_EQ(registry->version(), 1u);
  EXPECT_EQ(worker.accumulated_rows(), 0u);

  worker.Submit(TwoClassData(2, 32));
  worker.WaitIdle();
  EXPECT_EQ(worker.Errors().size(), 1u);
  EXPECT_EQ(registry->version(), 2u);
  EXPECT_EQ(worker.accumulated_rows(), 32u);

  worker.Submit(TwoClassData(3, 16));
  worker.WaitIdle();
  EXPECT_EQ(worker.Errors().size(), 1u);
  EXPECT_EQ(registry->version(), 3u);
  EXPECT_EQ(worker.retrains(), 2u);
  EXPECT_EQ(worker.accumulated_rows(), 48u);
}

TEST(RetrainWorker, RejectsAReplaySetThatDoesNotFit) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish(MakeModel(7));
  nn::Dataset replay = TwoClassData(1, 8);
  replay.labels[3] = 2;  // no class 2 in a two-class model
  EXPECT_THROW(RetrainWorker(RetrainConfig{}, registry, replay),
               common::CheckError);
}

// The acceptance criterion's hot-swap assertion: a model swap happens while
// ingestion continues — no Flush-the-world pause. The retrain is gated open
// so it is provably in flight while the service ingests and flushes.
TEST(RetrainWorker, HotSwapsWhileIngestionContinues) {
  auto registry = std::make_shared<ModelRegistry>();
  registry->Publish(MakeModel(7));

  std::atomic<bool> release{false};
  std::atomic<bool> retraining{false};
  RetrainConfig config;
  config.on_retrain_start = [&] {
    retraining.store(true);
    while (!release.load()) std::this_thread::yield();
  };
  RetrainWorker worker(config, registry);

  struct Tick {
    double value = 0.0;
  };
  runtime::ShardedRuntimeConfig service_config;
  service_config.shards = 2;
  service_config.window = 8;
  service_config.settle_lag = 1;
  runtime::ShardedMonitorService<Tick> service(service_config, [] {
    auto suite = std::make_shared<core::AssertionSuite<Tick>>();
    suite->AddPointwise("positive", [](const Tick& tick) {
      return tick.value > 0.0 ? tick.value : 0.0;
    });
    return runtime::ShardedMonitorService<Tick>::SuiteBundle{suite, {}};
  });
  const runtime::StreamId id = service.RegisterStream("live");

  worker.Submit(TwoClassData(1, 64));
  while (!retraining.load()) std::this_thread::yield();

  // Retrain is in flight and paused; ingestion keeps moving regardless.
  for (int batch = 0; batch < 5; ++batch) {
    EXPECT_TRUE(service.ObserveBatch(id, {Tick{1.0}, Tick{-1.0}, Tick{2.0}}));
    service.Flush();
  }
  EXPECT_EQ(service.Metrics().examples_seen, 15u);
  // The old version kept serving throughout — no swap happened mid-train.
  EXPECT_EQ(registry->version(), 1u);

  release.store(true);
  worker.WaitIdle();
  EXPECT_EQ(registry->version(), 2u);  // swap landed without touching ingest
  EXPECT_TRUE(service.Errors().empty());
}

// -------------------------------------------------------- RoundScheduler ---

TEST(RoundScheduler, SkipsBelowMinCandidatesAndRemovesLabeled) {
  auto store = std::make_shared<FlagStore>(FlagStoreConfig{16, 1});
  auto oracle = std::make_shared<GroundTruthOracle>([](const CandidateKey&) {
    nn::Dataset data;
    data.Add({1.0, 0.0}, 1);
    return data;
  });
  RoundConfig config;
  config.budget = 2;
  config.min_candidates = 2;
  RoundScheduler scheduler(config, store,
                           std::make_unique<bandit::RandomStrategy>(), oracle,
                           /*retrain=*/nullptr, /*seed=*/3);

  EXPECT_FALSE(scheduler.RunRound().has_value());  // empty store
  store->Record({0, 0}, 0, 1.0);
  EXPECT_FALSE(scheduler.RunRound().has_value());  // below min_candidates
  EXPECT_TRUE(scheduler.History().empty());

  store->Record({0, 1}, 0, 2.0);
  store->Record({0, 2}, 0, 3.0);
  const auto stats = scheduler.RunRound();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->round, 0u);
  EXPECT_EQ(stats->candidates, 3u);
  EXPECT_EQ(stats->selected, 2u);
  EXPECT_EQ(stats->human_labels, 2u);
  EXPECT_EQ(store->size(), 1u);  // labeled candidates left the pool
  EXPECT_EQ(scheduler.History().size(), 1u);
}

// ------------------------------------------- ImprovementLoop end-to-end ---

/// One scored point as the assertion layer sees it.
struct Point {
  std::vector<double> features;
  std::size_t predicted = 0;
};

bool TrueClass(const std::vector<double>& features) {
  return features[0] > 0.0;
}

/// Pretrains on the corrupted rule sign(x0 + x1): systematic errors in the
/// wedges where sign(x0) != sign(x0 + x1).
nn::Mlp PretrainCorrupted(std::uint64_t seed) {
  common::Rng rng(seed);
  nn::Dataset data;
  for (std::size_t i = 0; i < 400; ++i) {
    const double x0 = rng.Uniform(-1.0, 1.0);
    const double x1 = rng.Uniform(-1.0, 1.0);
    data.Add({x0, x1}, x0 + x1 > 0.0 ? 1 : 0);
  }
  common::Rng model_rng(seed ^ 0xABCDULL);
  nn::Mlp model({2, {8}, 2}, model_rng);
  nn::SoftmaxTrainer trainer({0.1, 0.9, 1e-4, 32, 30});
  common::Rng train_rng(seed + 1);
  trainer.Train(model, data, train_rng);
  return model;
}

TEST(ImprovementLoop, ReducesFlaggedRateAcrossLiveBalRounds) {
  ImprovementLoopConfig config;
  config.assertion_names = {"disagree"};
  config.store.capacity = 256;
  config.round.budget = 40;
  config.round.min_candidates = 1;
  config.retrain.sgd = {0.08, 0.9, 1e-4, 32, 30};
  config.retrain.replay_weight = 0.0;  // pretrain labels are the corruption
  config.seed = 11;

  std::vector<Point> points;  // retained live traffic, index = candidate key
  auto oracle =
      std::make_shared<GroundTruthOracle>([&points](const CandidateKey& key) {
        nn::Dataset data;
        const Point& point = points.at(key.example_index);
        data.Add(point.features, TrueClass(point.features) ? 1 : 0);
        return data;
      });
  ImprovementLoop loop(
      config,
      std::make_unique<bandit::BalStrategy>(
          bandit::BalConfig{}, std::make_unique<bandit::RandomStrategy>()),
      oracle, PretrainCorrupted(5));

  runtime::ShardedRuntimeConfig service_config;
  service_config.shards = 2;
  service_config.window = 16;
  service_config.settle_lag = 1;
  runtime::ShardedMonitorService<Point> service(service_config, [] {
    auto suite = std::make_shared<core::AssertionSuite<Point>>();
    suite->AddPointwise("disagree", [](const Point& point) {
      const bool truth = TrueClass(point.features);
      const bool agree = (point.predicted == 1) == truth;
      return agree ? 0.0 : 0.5 + std::abs(point.features[0]);
    });
    return runtime::ShardedMonitorService<Point>::SuiteBundle{suite, {}};
  });
  service.AddSink(loop.sink());
  const runtime::StreamId id = service.RegisterStream("live");

  common::Rng traffic(99);
  const std::size_t kRounds = 4;
  const std::size_t kPerRound = 300;
  std::vector<double> flagged_rate;
  std::uint64_t version_at_round0 = loop.registry().version();
  std::size_t events_before = 0;
  std::size_t examples_before = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    // Score this round's fresh traffic with the *current* model version —
    // the hot-swap pickup point — and serve it in batches.
    const ModelHandle handle = loop.registry().Current();
    std::vector<Point> batch;
    for (std::size_t i = 0; i < kPerRound; ++i) {
      Point point;
      point.features = {traffic.Uniform(-1.0, 1.0),
                        traffic.Uniform(-1.0, 1.0)};
      point.predicted = handle.model->Predict(point.features);
      points.push_back(point);
      batch.push_back(std::move(point));
    }
    EXPECT_TRUE(service.ObserveBatch(id, std::move(batch)));
    service.Flush();

    const runtime::MetricsSnapshot snapshot = service.Metrics();
    flagged_rate.push_back(
        static_cast<double>(snapshot.events - events_before) /
        static_cast<double>(snapshot.examples_seen - examples_before));
    events_before = snapshot.events;
    examples_before = snapshot.examples_seen;

    const auto stats = loop.RunRound();
    ASSERT_TRUE(stats.has_value());
    EXPECT_GT(stats->selected, 0u);
    loop.WaitForRetrains();  // next round serves the new version
  }
  EXPECT_TRUE(service.Errors().empty());

  // The model was hot-swapped at least once per round, while the service
  // instance kept ingesting (it was never flushed-to-death or rebuilt).
  EXPECT_GE(loop.registry().version(), version_at_round0 + kRounds);
  ASSERT_EQ(loop.History().size(), kRounds);

  // Closing the loop online cuts the flagged rate: the corrupted boundary's
  // wedge errors get labeled and trained away.
  EXPECT_GT(flagged_rate.front(), 0.1);  // corruption visibly fires
  EXPECT_LT(flagged_rate.back(), 0.5 * flagged_rate.front());
}

}  // namespace
}  // namespace omg::loop
