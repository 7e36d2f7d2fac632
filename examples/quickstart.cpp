// Quickstart: the OMG-C++ API in one file.
//
//   1. Define an Example type bundling your model's input and output, and
//      give it a domain tag (a serve::DomainTraits specialization).
//   2. Register assertions: arbitrary functions returning severity scores
//      (0 = abstain), or a consistency assertion generated from Id/Attrs/T.
//   3. Run the suite in batch over collected data, or serve examples through
//      a serve::Monitor at runtime.
//
// This file is the runnable companion of docs/ASSERTIONS.md — the guide's
// snippets mirror the code below. It exits non-zero unless the monitor
// flags exactly the (example, assertion) pairs the batch pass finds. For
// many streams and domains in one runtime, see examples/runtime_serving.cpp
// and docs/ARCHITECTURE.md.
//
// Build & run:  ./examples/quickstart
#include <cmath>
#include <iostream>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/assertion.hpp"
#include "core/consistency_adapter.hpp"
#include "runtime/event_sink.hpp"
#include "serve/any_suite.hpp"
#include "serve/monitor.hpp"

// A toy deployment: a classifier labels sensor readings "ok"/"alert" once
// per second; readings also carry the raw value.
struct Reading {
  double timestamp = 0.0;
  double value = 0.0;
  std::string label;  // the model's output
};

// The serving runtime hosts any example type that names its domain.
template <>
struct omg::serve::DomainTraits<Reading> {
  static constexpr std::string_view kDomain = "sensor";
  static std::string DebugString(const Reading& r) {
    return "reading t=" + std::to_string(r.timestamp);
  }
};

namespace {

using namespace omg;

/// Registers the three assertions on `suite` and returns the consistency
/// analyzer (batch corrections come from it, and a live window must call
/// its Invalidate before re-scoring).
std::shared_ptr<core::ConsistencyAnalyzer<Reading>> AddAssertions(
    core::AssertionSuite<Reading>& suite) {
  // (1) A custom pointwise assertion: physically impossible values.
  suite.AddPointwise("in-physical-range", [](const Reading& r) {
    return (r.value < 0.0 || r.value > 100.0) ? 1.0 : 0.0;
  });

  // (2) A custom stream assertion: values should not jump by > 50 units
  // between consecutive readings (severity = the jump size).
  suite.AddFunction("no-jumps", [](std::span<const Reading> stream) {
    std::vector<double> severity(stream.size(), 0.0);
    for (std::size_t i = 1; i < stream.size(); ++i) {
      const double jump = std::abs(stream[i].value - stream[i - 1].value);
      if (jump > 50.0) severity[i] = jump;
    }
    return severity;
  });

  // (3) A consistency assertion from the paper's Id/Attrs/T API: the
  // predicted label acts as the identifier, and a label that appears for
  // less than 3 seconds between absences is an A -> B -> A oscillation.
  core::ConsistencyConfig config;
  config.temporal_threshold = 3.0;
  return core::AddConsistencyAssertion<Reading>(
      suite, config, [](std::span<const Reading> stream) {
        core::ConsistencyExtraction extraction;
        for (std::size_t i = 0; i < stream.size(); ++i) {
          extraction.frames.push_back({i, stream[i].timestamp, "sensor"});
          core::ConsistencyRecord record;
          record.example_index = i;
          record.timestamp = stream[i].timestamp;
          record.group = "sensor";
          record.identifier = stream[i].label;
          extraction.records.push_back(std::move(record));
        }
        return extraction;
      });
}

}  // namespace

int main() {
  core::AssertionSuite<Reading> suite;
  const auto analyzer = AddAssertions(suite);

  std::cout << "Registered assertions:";
  for (const auto& name : suite.Names()) std::cout << " " << name;
  std::cout << "\n\n";

  // A stream with three planted problems: an impossible value at t=2, a
  // jump at t=5, and a one-second "alert" blip at t=8.
  std::vector<Reading> stream;
  for (int t = 0; t < 12; ++t) {
    Reading r;
    r.timestamp = t;
    r.value = 20.0 + t;
    r.label = "ok";
    if (t == 2) r.value = 140.0;
    if (t == 5) r.value = 90.0;
    if (t == 8) r.label = "alert";
    stream.push_back(r);
  }

  // Batch validation (e.g. over historical data).
  core::SeverityMatrix matrix = suite.CheckAll(stream);
  std::set<std::pair<std::size_t, std::string>> batch_flags;
  std::cout << "Batch validation over " << matrix.num_examples()
            << " readings:\n";
  for (std::size_t e = 0; e < matrix.num_examples(); ++e) {
    for (std::size_t a = 0; a < matrix.num_assertions(); ++a) {
      if (matrix.Fired(e, a)) {
        batch_flags.insert({e, suite.Names()[a]});
        std::cout << "  t=" << stream[e].timestamp << "  "
                  << suite.Names()[a] << " fired (severity "
                  << matrix.At(e, a) << ")\n";
      }
    }
  }

  // The consistency analyzer also proposes corrections (weak labels).
  std::cout << "\nProposed corrections:\n";
  for (const auto& correction : analyzer->Corrections(stream)) {
    std::cout << "  t=" << correction.timestamp << "  "
              << (correction.kind == core::CorrectionKind::kRemoveOutput
                      ? "remove output of identifier "
                      : "adjust ")
              << correction.identifier << "\n";
  }

  // Runtime monitoring: the same assertions, served live. Each stream gets
  // its own suite from a factory; a verdict is emitted once the reading is
  // `settle_lag` readings old, so retroactive assertions have settled.
  serve::Result<std::unique_ptr<serve::Monitor>> built =
      serve::Monitor::Builder().Shards(1).Window(8).SettleLag(2).Build();
  if (!built.ok()) {
    std::cerr << "monitor: " << built.error().message << "\n";
    return 1;
  }
  const std::unique_ptr<serve::Monitor> monitor = std::move(built.value());
  auto events = std::make_shared<runtime::CollectingSink>();
  const serve::Subscription subscription = monitor->Subscribe({}, events);
  const serve::Result<serve::StreamHandle> handle = monitor->RegisterStream(
      "sensor", serve::EraseSuiteFactory<Reading>("sensor", [] {
        auto live = std::make_shared<core::AssertionSuite<Reading>>();
        auto live_analyzer = AddAssertions(*live);
        return runtime::SuiteBundle<Reading>{
            live, [live_analyzer] { live_analyzer->Invalidate(); }};
      }));
  if (!handle.ok()) {
    std::cerr << "register: " << handle.error().message << "\n";
    return 1;
  }
  for (const Reading& reading : stream) {
    if (!monitor->Observe(handle.value(), serve::AnyExample::Make(reading))
             .ok()) {
      std::cerr << "observe failed at t=" << reading.timestamp << "\n";
      return 1;
    }
  }
  monitor->Flush();

  std::cout << "\nLive monitor:\n";
  const auto fired = events->Events();
  std::set<std::pair<std::size_t, std::string>> live_flags;
  for (const auto& event : fired) {
    live_flags.insert({event.example_index,
                       std::string(serve::UnqualifiedName(event.assertion))});
    std::cout << "  [runtime] example " << event.example_index << ": "
              << event.assertion << " severity " << event.severity << "\n";
  }
  std::cout << "\nMonitor saw " << monitor->Metrics().examples_seen
            << " examples, emitted " << fired.size() << " events.\n";

  if (live_flags != batch_flags) {
    std::cerr << "live flags differ from the batch pass: " << live_flags.size()
              << " live vs " << batch_flags.size() << " batch\n";
    return 1;
  }
  std::cout << "Live and batch agree on all " << batch_flags.size()
            << " flagged (example, assertion) pairs.\n";
  return 0;
}
