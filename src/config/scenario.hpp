// Typed scenario specs + the loader that turns them into real objects.
//
// A *scenario* file (configs/*.conf, format in spec.hpp and
// docs/CONFIGURATION.md) declares a complete serving workload:
//
//   [scenario]            name / description
//   [runtime]             ShardedMonitorService geometry
//   [admission]           full-queue policy + shed floor
//   [suite <domain>]      assertions = [<factory names>]   (one per domain)
//   [assertion <name>]    parameters for one factory-registered assertion
//   [stream <name>]       one traffic stream (domain, examples, seed, ...)
//   [loop]                the improvement loop's round/oracle settings
//   [observability]       trace rings, sampling, metrics exporter sinks
//   [replay]              trace record/replay defaults (replay/replay.hpp)
//   [server]              network ingestion front door (net::IngestServer)
//   [tenant <name>]       one tenant's token + admission quota
//
// ConfigLoader::Load validates the whole document — unknown sections,
// unknown keys, type mismatches, streams without a matching suite,
// unreferenced [assertion] sections — into a ScenarioSpec of plain typed
// structs, then the Make* helpers and BuildSuiteBundle instantiate the
// corresponding runtime/loop/suite objects. Everything throws SpecError
// positioned in the config text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bandit/strategy.hpp"
#include "config/assertion_factory.hpp"
#include "config/spec.hpp"
#include "loop/improvement_loop.hpp"
#include "runtime/admission.hpp"
#include "runtime/suite_bundle.hpp"

namespace omg::config {

/// One assertion a suite instantiates: its factory name, the (possibly
/// empty) parameter section, and the name's position for error reporting.
struct AssertionSpec {
  std::string name;
  SpecSection params;  ///< copy of [assertion <name>]; empty when absent
  std::string source;
  std::size_t line = 0;
  std::size_t col = 0;
};

/// One domain's declarative suite: the ordered assertion list.
struct SuiteSpec {
  std::string domain;  ///< the [suite <domain>] label
  std::vector<AssertionSpec> assertions;
};

/// [runtime] — ShardedMonitorService geometry (see ShardedRuntimeConfig).
struct RuntimeSpec {
  std::size_t shards = 2;
  std::size_t window = 48;
  std::size_t settle_lag = 8;
  std::size_t queue_capacity = 1024;
  bool stealing = true;  ///< idle shard workers steal from the deepest peer
};

/// [admission] — what a full shard queue does with an incoming batch.
struct AdmissionSpec {
  runtime::AdmissionPolicy policy = runtime::AdmissionPolicy::kBlock;
  double shed_floor = 1.0;
  double target_p99_ms = 50.0;  ///< latency_target policy's SLO
};

/// [observability] — tracing and metrics export. `trace` defaults to
/// false: the tracer costs a few percent of throughput at sample_every=1,
/// so scenarios opt in (or the harness forces it with --trace).
struct ObservabilitySpec {
  /// Attach a Tracer to the monitor (per-shard trace rings + control lane).
  bool trace = false;
  /// Events each lane retains before the oldest are evicted.
  std::size_t ring_capacity = 4096;
  /// Trace every Nth batch per shard lane (1 = every batch).
  std::size_t sample_every = 1;
  /// Chrome trace JSON output path; empty = harness picks one under the
  /// --trace directory.
  std::string trace_path;
  /// Background MetricsExporter cadence.
  std::size_t export_period_ms = 200;
  /// Snapshot sinks; empty disables that format.
  std::string metrics_jsonl_path;
  std::string metrics_prometheus_path;

  /// Whether any exporter sink is configured.
  bool ExporterEnabled() const {
    return !metrics_jsonl_path.empty() || !metrics_prometheus_path.empty();
  }
};

/// [loop] — the improvement loop's round/oracle settings. `enabled`
/// defaults to false: most scenarios only monitor.
struct LoopSpec {
  bool enabled = false;
  /// Selection strategy: "bal", "bal-uncertainty", "uncertainty", "random".
  std::string strategy = "bal";
  /// Label source: "human" (ground truth) or "mixed" (human + consistency
  /// weak labels at `weak_weight`).
  std::string oracle = "human";
  std::size_t budget = 16;
  std::size_t min_candidates = 1;
  /// Traffic waves the harness serves, one loop round after each.
  std::size_t rounds = 4;
  std::size_t store_capacity = 512;
  double weak_weight = 0.25;
  /// Fine-tune epochs; 0 keeps the domain's default.
  std::size_t retrain_epochs = 0;
  std::uint64_t seed = 42;
};

/// [stream <name>] — one traffic stream of a scenario.
struct StreamSpec {
  std::string name;
  std::string domain;
  std::size_t examples = 240;
  std::size_t batch = 32;
  std::uint64_t seed = 42;
  /// Producer-side severity hint passed with every batch (what
  /// shed_below_severity admission compares against the shed floor).
  double severity_hint = 0.0;
  /// Wire-binding restriction: non-empty names the only [tenant <name>]
  /// allowed to bind this stream over the network. Empty = any tenant.
  std::string tenant;
};

/// [replay] — defaults for trace recording and replay (replay/replay.hpp).
/// Absent = the built-in defaults; the harness's --record/--replay flags
/// override trace_path, and --speed overrides speed.
struct ReplaySpec {
  /// Default trace file for --record/--replay given without a path.
  std::string trace_path;
  /// Replay delta divisor (1 = recorded pacing, 0 = unpaced).
  double speed = 1.0;
  /// Synthetic offered rate the recorder encodes into inter-arrival
  /// deltas, examples per second.
  double record_eps = 5000.0;
};

/// [server] — the net::IngestServer front door. Absent = no server. The
/// harness only listens under --serve (so running every shipped config in
/// a batch never blocks waiting for network clients); `enabled = false`
/// keeps a [server] section around without serving it.
struct ServerSpec {
  bool enabled = false;  ///< true when a [server] section is present
  /// Unix-domain socket path (empty = no UDS listener).
  std::string uds_path;
  /// Also listen on loopback TCP.
  bool tcp = false;
  /// TCP port (0 = ephemeral).
  std::size_t tcp_port = 0;
  std::size_t handler_threads = 2;
  /// Largest accepted frame payload, bytes.
  std::size_t max_frame_bytes = 4u << 20;
};

/// [tenant <name>] — one tenant of the server's roster (see
/// net::TenantOptions for the semantics of each field).
struct TenantSpec {
  std::string name;  ///< the [tenant <name>] label
  std::string token;
  /// Admission quota, examples per second (0 = unlimited).
  double quota_eps = 0.0;
  /// Token-bucket burst, examples (0 = one second of quota).
  double burst = 0.0;
  /// Hints >= this floor bypass an exhausted quota.
  double shed_floor = 0.0;
  bool has_shed_floor = false;
};

/// A fully validated scenario.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::string source;  ///< file/source the scenario was parsed from
  RuntimeSpec runtime;
  AdmissionSpec admission;
  ObservabilitySpec observability;
  LoopSpec loop;
  ReplaySpec replay;
  ServerSpec server;
  std::vector<TenantSpec> tenants;  ///< file order; empty = open server
  std::vector<SuiteSpec> suites;    ///< one per domain, file order
  std::vector<StreamSpec> streams;  ///< file order

  /// The suite declared for `domain`; nullptr when absent.
  const SuiteSpec* SuiteFor(const std::string& domain) const;
  /// Distinct stream domains, in first-appearance order.
  std::vector<std::string> Domains() const;
};

/// Parses + validates scenario documents and instantiates the runtime and
/// loop objects they describe.
class ConfigLoader {
 public:
  /// Validates `doc` into a ScenarioSpec (see the file comment for what is
  /// checked). Throws SpecError positioned in the document.
  static ScenarioSpec Load(const SpecDocument& doc);

  /// Convenience: ParseFile + Load.
  static ScenarioSpec LoadFile(const std::string& path);

  /// The ShardedRuntimeConfig a scenario's [runtime]+[admission] describe
  /// (already Validate()d by Load).
  static runtime::ShardedRuntimeConfig MakeRuntimeConfig(
      const ScenarioSpec& scenario);

  /// The ImprovementLoopConfig a scenario's [loop] describes.
  /// `assertion_names` must be the monitored suite's emitted names (store
  /// column order); `finetune_sgd` is the domain's fine-tune recipe, whose
  /// epoch count `loop.retrain_epochs` overrides when nonzero.
  static loop::ImprovementLoopConfig MakeLoopConfig(
      const LoopSpec& loop, std::vector<std::string> assertion_names,
      nn::SgdConfig finetune_sgd);

  /// Builds the selection strategy `LoopSpec::strategy` names; throws
  /// CheckError on an unknown name (Load already rejects those).
  static std::unique_ptr<bandit::SelectionStrategy> MakeStrategy(
      const std::string& name);
};

/// Instantiates one stream's SuiteBundle from a declarative suite: builds
/// every listed assertion through the factory (schema-validated) and folds
/// the builders' invalidation hooks into the bundle.
template <typename Example>
runtime::SuiteBundle<Example> BuildSuiteBundle(
    const AssertionFactory<Example>& factory, const SuiteSpec& spec) {
  auto suite = std::make_shared<core::AssertionSuite<Example>>();
  auto invalidators = std::make_shared<std::vector<std::function<void()>>>();
  typename AssertionFactory<Example>::BuildContext context{*suite,
                                                           *invalidators};
  for (const AssertionSpec& assertion : spec.assertions) {
    if (!factory.Has(assertion.name)) {
      throw SpecError(assertion.source, assertion.line, assertion.col,
                      "unknown assertion '" + assertion.name +
                          "' for domain '" + spec.domain +
                          "' (registered: " + factory.JoinedNames() + ")");
    }
    factory.Build(assertion.name, assertion.params, context);
  }
  runtime::SuiteBundle<Example> bundle;
  bundle.suite = std::move(suite);
  if (!invalidators->empty()) {
    bundle.invalidate = [invalidators] {
      for (const auto& invalidate : *invalidators) invalidate();
    };
  }
  return bundle;
}

}  // namespace omg::config
