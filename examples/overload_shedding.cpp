// Overload behavior of the serving facade: the three admission policies
// side by side, and the improvement loop surviving shedding.
//
// A producer offers traffic faster than the (deliberately slowed) assertion
// suite can score it, against a small bounded queue. Each policy handles
// the overload differently:
//
//   block               lossless: the producer is backpressured to the
//                       scoring rate; nothing is lost, ingestion is slow.
//   drop_oldest         freshest-data-wins: the queue head is dropped (and
//                       counted) to admit new work.
//   shed_below_severity importance-wins: batches with a low severity hint
//                       are shed; burst-heavy batches displace them.
//
// Under shed_below_severity a FlagCollectorSink keeps feeding the
// improvement loop's FlagStore: the high-severity evidence BAL samples
// from survives, and under every policy every lost example is counted —
// the counters reconcile exactly (offered == scored + shed + dropped +
// errored), which the example checks.
//
// Build & run:  ./examples/overload_shedding [--batches N]
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/assertion.hpp"
#include "loop/flag_collector.hpp"
#include "loop/flag_store.hpp"
#include "runtime/admission.hpp"
#include "runtime/event_sink.hpp"
#include "serve/monitor.hpp"

/// One sensor reading; the suite below is artificially expensive so a
/// single producer can outrun two shard workers on any machine.
struct Reading {
  double value = 0.0;
};

namespace omg::serve {

/// Facade identity of a reading: domain "sensor".
template <>
struct DomainTraits<Reading> {
  static constexpr std::string_view kDomain = "sensor";
  static std::string DebugString(const Reading& reading) {
    return "reading " + std::to_string(reading.value);
  }
};

}  // namespace omg::serve

namespace {

using namespace omg;

runtime::SuiteBundle<Reading> MakeBundle() {
  auto suite = std::make_shared<core::AssertionSuite<Reading>>();
  suite->AddPointwise("anomalous", [](const Reading& r) {
    // Busy work standing in for a real assertion's feature extraction.
    double accumulator = r.value;
    for (int i = 0; i < 400; ++i) {
      accumulator = accumulator * 0.99 + 0.01;
    }
    return r.value > 3.0 ? r.value + (accumulator - accumulator) : 0.0;
  });
  return {suite, {}};
}

/// A batch of mostly-calm readings; every eighth batch carries an anomaly
/// burst (values > 3), which is also its admission severity hint.
std::vector<serve::AnyExample> MakeBatch(common::Rng& rng, bool burst,
                                         std::size_t size) {
  std::vector<serve::AnyExample> batch;
  batch.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    batch.push_back(serve::AnyExample::Make(
        Reading{burst && i % 4 == 0 ? rng.Uniform(3.5, 6.0)
                                    : rng.Uniform(0.0, 1.0)}));
  }
  return batch;
}

/// Unwraps a facade Result or dies with its message.
template <typename T>
T Expect(serve::Result<T> result, const std::string& what) {
  common::Check(result.ok(),
                result.ok() ? "" : what + ": " + result.error().message);
  return std::move(result.value());
}

struct PolicyOutcome {
  std::string policy;
  double seconds = 0.0;
  std::size_t scored = 0;
  std::size_t shed = 0;
  std::size_t dropped = 0;
  std::size_t errored = 0;
  std::size_t peak_depth = 0;
  std::size_t events = 0;
  double p99_ms = 0.0;
};

PolicyOutcome RunPolicy(runtime::AdmissionPolicy policy, std::size_t batches,
                        std::size_t batch_size,
                        const std::shared_ptr<loop::FlagCollectorSink>&
                            collector) {
  const std::unique_ptr<serve::Monitor> monitor = Expect(
      serve::Monitor::Builder()
          .Shards(2)
          .Window(32)
          .SettleLag(4)
          .QueueCapacity(4 * batch_size)  // small on purpose
          .Admission(policy)
          .ShedFloor(3.0)  // batches without a burst hint get shed
          .Build(),
      "Build");
  auto counting = std::make_shared<runtime::CountingSink>();
  const serve::Subscription counted = monitor->Subscribe({}, counting);
  serve::Subscription collected;
  if (collector != nullptr) collected = monitor->Subscribe({}, collector);
  const serve::AnySuiteFactory suite =
      serve::EraseSuiteFactory<Reading>("sensor", MakeBundle);
  serve::StreamOptions options;
  options.name = "sensor-north";
  const serve::StreamHandle north =
      Expect(monitor->RegisterStream("sensor", suite, options), "north");
  options.name = "sensor-south";
  const serve::StreamHandle south =
      Expect(monitor->RegisterStream("sensor", suite, options), "south");

  common::Rng rng(7);
  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t b = 0; b < batches; ++b) {
    const bool burst = b % 8 == 0;
    const double hint = burst ? 4.0 : 0.5;
    Expect(monitor->ObserveBatch(north, MakeBatch(rng, burst, batch_size),
                                 hint),
           "north batch");
    Expect(monitor->ObserveBatch(south, MakeBatch(rng, burst, batch_size),
                                 hint),
           "south batch");
  }
  monitor->Flush();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  const runtime::MetricsSnapshot snapshot = monitor->Metrics();
  PolicyOutcome outcome;
  outcome.policy = std::string(runtime::AdmissionPolicyName(policy));
  outcome.seconds = seconds;
  outcome.scored = snapshot.examples_seen;
  outcome.shed = snapshot.TotalShedExamples();
  outcome.dropped = snapshot.TotalDroppedExamples();
  outcome.errored = snapshot.TotalErroredExamples();
  common::Check(outcome.scored + outcome.shed + outcome.dropped +
                        outcome.errored ==
                    2 * batches * batch_size,
                "offered != scored + shed + dropped + errored under " +
                    outcome.policy);
  outcome.events = counting->count();
  for (const runtime::ShardMetrics& shard : snapshot.shards) {
    outcome.peak_depth = std::max(outcome.peak_depth, shard.queue_depth_peak);
  }
  outcome.p99_ms = snapshot.MergedLatency().Quantile(0.99) * 1e3;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::Parse(argc, argv);
  flags.CheckAllowed({"batches"});
  const auto batches = static_cast<std::size_t>(flags.GetInt("batches", 400));
  constexpr std::size_t kBatchSize = 64;
  const std::size_t offered = 2 * batches * kBatchSize;

  std::cout << "=== overload: " << offered << " examples offered through a "
            << (4 * kBatchSize) << "-example queue per shard ===\n\n";

  // The improvement loop hangs off the shed run: only events with severity
  // >= 3.5 are worth a label here.
  auto store = std::make_shared<loop::FlagStore>(
      loop::FlagStoreConfig{/*capacity=*/128, /*num_assertions=*/1});
  auto collector = std::make_shared<loop::FlagCollectorSink>(
      store, std::vector<std::string>{"sensor/anomalous"},
      loop::FlagCollectorConfig{/*min_severity=*/3.5});

  std::vector<PolicyOutcome> outcomes;
  outcomes.push_back(RunPolicy(runtime::AdmissionPolicy::kBlock, batches,
                               kBatchSize, nullptr));
  outcomes.push_back(RunPolicy(runtime::AdmissionPolicy::kDropOldest, batches,
                               kBatchSize, nullptr));
  outcomes.push_back(RunPolicy(runtime::AdmissionPolicy::kShedBelowSeverity,
                               batches, kBatchSize, collector));

  common::TextTable table({"Policy", "Seconds", "Scored", "Shed", "Dropped",
                           "Events", "Peak depth", "p99 ms"});
  for (const PolicyOutcome& outcome : outcomes) {
    table.AddRow({outcome.policy, common::FormatDouble(outcome.seconds, 3),
                  std::to_string(outcome.scored), std::to_string(outcome.shed),
                  std::to_string(outcome.dropped),
                  std::to_string(outcome.events),
                  std::to_string(outcome.peak_depth),
                  common::FormatDouble(outcome.p99_ms, 3)});
  }
  table.Print(std::cout);

  const PolicyOutcome& shed = outcomes.back();
  std::cout << "\nAccounting under shed_below_severity: " << shed.scored
            << " scored + " << shed.shed << " shed + " << shed.dropped
            << " dropped + " << shed.errored << " errored = "
            << (shed.scored + shed.shed + shed.dropped + shed.errored)
            << " of " << offered << " offered\n";

  std::cout << "\nThe improvement loop kept collecting through the overload:\n"
            << "  collector consumed " << collector->consumed()
            << " events, recorded " << collector->recorded()
            << ", shed (below min_severity 3.5) "
            << collector->shed_low_severity() << "\n"
            << "  flag store holds " << store->size() << " candidates (cap "
            << store->config().capacity << "), admitted "
            << store->total_admitted() << ", evicted " << store->evictions()
            << "\n";
  const loop::FlagStore::Snapshot snapshot = store->TakeSnapshot();
  double min_kept = snapshot.keys.empty() ? 0.0 : 1e9;
  for (std::size_t row = 0; row < snapshot.keys.size(); ++row) {
    min_kept = std::min(min_kept, snapshot.severities.At(row, 0));
  }
  std::cout << "  lowest retained severity: "
            << common::FormatDouble(min_kept, 2)
            << " — the high-severity evidence BAL samples from survived\n";
  return 0;
}
