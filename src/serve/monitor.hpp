// omg::serve::Monitor — the non-templated serving facade.
//
// One Monitor hosts heterogeneous domains in a single sharded runtime: every
// stream, whatever its example type, shares the same shard set, admission
// policy, backpressure accounting, and metrics registry of one internal
// ShardedMonitorService<AnyExample>. The templated engine underneath is
// unchanged — the facade is the documented entry point, the templates are
// the machinery.
//
//   Monitor::Builder ── Build() ──► Monitor
//        │  RegisterStream("video", erased suite factory) ─► StreamHandle
//        │  Observe / ObserveBatch(handle, AnyExample...)  ─► Result<...>
//        │  Subscribe(EventFilter, sink)                   ─► Subscription
//        ▼
//   ShardedMonitorService<AnyExample>   (shards, queues, admission, metrics)
//
// Error contract: every user-facing operation returns serve::Result instead
// of throwing — a wrong-domain example, an unknown handle, or an oversized
// batch is a typed Error, never an abort (see serve/result.hpp). Engine
// invariants still throw CheckError; hitting one through this API is a bug.
//
// Assertion names seen in events and metrics are domain-qualified
// ("video/flicker"), so two domains using the same assertion name can never
// merge counters. RegisterStream enforces the qualification.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "obs/tracer.hpp"
#include "runtime/admission.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sharded_service.hpp"
#include "serve/any_example.hpp"
#include "serve/any_suite.hpp"
#include "serve/result.hpp"

namespace omg::serve {

class Monitor;
class EventDispatcher;

/// What an admitted Observe/ObserveBatch call resolved to.
enum class ObserveOutcome {
  /// The batch entered a shard queue and will be scored.
  kAdmitted,
  /// The admission policy refused the batch (kShedBelowSeverity with a
  /// below-floor hint on a full queue); counted in the shard's shed
  /// counters.
  kShed,
};

/// Which events a subscription receives. Empty fields match everything;
/// set fields must all match.
struct EventFilter {
  /// Domain tag ("video"); matched against the qualified assertion name's
  /// "<domain>/" prefix.
  std::string domain;
  /// Exact stream name ("cam-0").
  std::string stream;
  /// Assertion name: either qualified ("video/flicker") or bare
  /// ("flicker", matching any domain).
  std::string assertion;
  /// Events with severity strictly below this are filtered out.
  double min_severity = 0.0;

  /// True when `event` passes every set field.
  bool Matches(const runtime::StreamEvent& event) const;
};

/// RAII handle for one Subscribe call: destroying (or Unsubscribe-ing) it
/// detaches the sink. Outliving the Monitor is safe — the subscription
/// just expires. Move-only.
class Subscription {
 public:
  Subscription() = default;
  ~Subscription() { Unsubscribe(); }

  Subscription(Subscription&& other) noexcept
      : dispatcher_(std::move(other.dispatcher_)),
        id_(std::exchange(other.id_, 0)) {}

  Subscription& operator=(Subscription&& other) noexcept {
    if (this != &other) {
      Unsubscribe();
      dispatcher_ = std::move(other.dispatcher_);
      id_ = std::exchange(other.id_, 0);
    }
    return *this;
  }

  /// True while the sink is attached (and the Monitor alive).
  bool active() const;

  /// Detaches the sink; idempotent. Events already in flight on shard
  /// workers may still be delivered concurrently with the call.
  void Unsubscribe();

 private:
  friend class Monitor;
  Subscription(std::weak_ptr<EventDispatcher> dispatcher, std::uint64_t id)
      : dispatcher_(std::move(dispatcher)), id_(id) {}

  std::weak_ptr<EventDispatcher> dispatcher_;
  std::uint64_t id_ = 0;  // 0 = inactive
};

/// Opaque reference to one registered stream of one Monitor. Cheap to copy;
/// a default-constructed handle is invalid and every facade call rejects it
/// with a typed error.
class StreamHandle {
 public:
  StreamHandle() = default;

  /// True when issued by a Monitor (does not prove it was *this* monitor —
  /// the facade checks that per call).
  bool valid() const { return owner_ != nullptr; }
  /// The underlying runtime stream id.
  runtime::StreamId id() const { return id_; }
  /// The stream's domain tag.
  std::string_view domain() const { return domain_; }
  /// The stream's registered name.
  std::string_view name() const { return name_; }

 private:
  friend class Monitor;
  StreamHandle(const Monitor* owner, runtime::StreamId id,
               std::string_view domain, std::string_view name)
      : owner_(owner), id_(id), domain_(domain), name_(name) {}

  const Monitor* owner_ = nullptr;
  runtime::StreamId id_ = 0;
  std::string_view domain_;  // interned by the owning Monitor
  std::string_view name_;    // owned by the runtime's stream registry
};

/// Per-stream registration options.
struct StreamOptions {
  /// Stream name; must be unique across the Monitor. Empty picks
  /// "<domain>-<id>".
  std::string name;
  /// Default admission severity hint attached to this stream's batches
  /// when Observe/ObserveBatch is called without an explicit hint.
  double severity_hint = 0.0;
};

/// The type-erased serving facade; see the file comment. All public
/// methods are thread-safe.
class Monitor {
 public:
  /// Builder-style construction:
  ///   auto monitor = Monitor::Builder()
  ///                      .Shards(4).Window(48).SettleLag(8)
  ///                      .Admission(runtime::AdmissionPolicy::kBlock)
  ///                      .Build();
  class Builder {
   public:
    /// Shard count (each shard: one worker thread + bounded queue).
    Builder& Shards(std::size_t shards);
    /// Sliding-window length per stream.
    Builder& Window(std::size_t window);
    /// Verdict settle lag (must stay below the window).
    Builder& SettleLag(std::size_t settle_lag);
    /// Maximum queued examples per shard.
    Builder& QueueCapacity(std::size_t capacity);
    /// Full-queue admission policy.
    Builder& Admission(runtime::AdmissionPolicy policy);
    /// Severity floor for kShedBelowSeverity / kLatencyTarget admission.
    Builder& ShedFloor(double floor);
    /// Attaches an observability tracer: per-shard trace lanes with
    /// `options.ring_capacity` slots and 1-in-`options.sample_every` batch
    /// sampling (options.shard_lanes is overridden to the shard count).
    /// Order-independent with Runtime(): once called, Build() constructs
    /// this tracer regardless of setter order, replacing any tracer the
    /// runtime config carries. Drain via Monitor::WriteChromeTrace or
    /// Monitor::tracer().
    Builder& Trace(obs::TracerOptions options);
    /// Wholesale geometry override (replaces all the setters above except
    /// Trace(), which survives and is applied on top at Build(); without
    /// a Trace() call the config's own tracer field is kept).
    Builder& Runtime(const runtime::ShardedRuntimeConfig& config);

    /// Validates the geometry and spawns the shard workers. Invalid
    /// geometry is a typed kInvalidConfig error, not an abort.
    Result<std::unique_ptr<Monitor>> Build() const;

   private:
    runtime::ShardedRuntimeConfig config_;
    std::optional<obs::TracerOptions> trace_;
  };

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;
  /// Drains every shard queue, then joins the workers.
  ~Monitor();

  /// Registers a stream of `domain`, scored by the private bundle
  /// `suite_factory` builds (typically serve::EraseSuiteFactory over a
  /// typed factory, or a DomainRegistry entry). Every assertion name in
  /// the bundle must be qualified "<domain>/..." — unqualified or foreign
  /// names are a typed error. Errors: kInvalidArgument (empty domain /
  /// null factory), kDuplicateStream, kInvalidSuite, kWrongDomain.
  Result<StreamHandle> RegisterStream(std::string_view domain,
                                      AnySuiteFactory suite_factory,
                                      StreamOptions options = {});

  /// Observes one example on `handle`'s stream (enqueue + return; prefer
  /// ObserveBatch under load). Errors: kInvalidHandle, kWrongDomain.
  Result<ObserveOutcome> Observe(const StreamHandle& handle,
                                 AnyExample example,
                                 std::optional<double> severity_hint = {});

  /// Observes a batch (consumed) on `handle`'s stream. The whole batch
  /// must belong to the stream's domain — a foreign example anywhere in it
  /// rejects the batch with kWrongDomain before anything is enqueued.
  /// `severity_hint` overrides the stream's default hint for this batch.
  /// Errors: kInvalidHandle, kWrongDomain, kBatchTooLarge.
  Result<ObserveOutcome> ObserveBatch(
      const StreamHandle& handle, std::vector<AnyExample> batch,
      std::optional<double> severity_hint = {});

  /// Fans matching events into `sink` until the returned Subscription is
  /// dropped. Sinks must be thread-safe (shard workers call them
  /// concurrently); see runtime::EventSink. Subscribing a null sink
  /// returns an inactive Subscription.
  Subscription Subscribe(EventFilter filter,
                         std::shared_ptr<runtime::EventSink> sink);

  /// Blocks until every shard is quiescent, then flushes subscribed sinks.
  void Flush();

  /// Dashboard snapshot: per-stream / per-assertion aggregates (assertion
  /// keys domain-qualified) plus per-shard queue/loss/latency counters,
  /// shared across every hosted domain.
  runtime::MetricsSnapshot Metrics() const;

  /// Adds `delta` to free-form counter `key` in the monitor's metrics
  /// registry (runtime::MetricsRegistry::RecordNamed) so frontends — the
  /// net layer's per-tenant accounting — land in the same Metrics()
  /// snapshot the exporter renders.
  void RecordNamedMetric(const std::string& key, std::uint64_t delta);

  /// Messages from batches whose scoring threw (the batch is poisoned and
  /// counted as errored; the service keeps serving).
  std::vector<std::string> Errors() const;

  /// The validated runtime geometry.
  const runtime::ShardedRuntimeConfig& config() const;

  /// The attached tracer (null unless built with Builder::Trace or a
  /// config whose tracer field was set).
  std::shared_ptr<obs::Tracer> tracer() const;

  /// Domain-qualified "<domain>/<name>" label per stream id, for trace
  /// serialisation and dashboards.
  std::vector<std::string> StreamLabels() const;

  /// Drains the tracer and writes the accumulated events as Chrome
  /// trace_event JSON (Perfetto-loadable), labeling streams with
  /// StreamLabels(). Without a tracer this writes a valid empty trace.
  /// Each event is written at most once across calls (drains consume).
  void WriteChromeTrace(std::ostream& out);

 private:
  explicit Monitor(const runtime::ShardedRuntimeConfig& config);

  /// What Observe needs per stream, behind an atomic snapshot so the
  /// observe path never takes the registration lock.
  struct StreamInfo {
    std::string_view domain;  // interned in domains_
    double severity_hint = 0.0;
  };

  /// Looks `handle` up, rejecting foreign/default handles.
  Result<StreamInfo> Resolve(const StreamHandle& handle) const;

  std::unique_ptr<runtime::ShardedMonitorService<AnyExample>> service_;
  std::shared_ptr<EventDispatcher> dispatcher_;

  mutable Mutex registration_mutex_;
  /// Interned domain tags (stable addresses).
  std::deque<std::string> domains_ OMG_GUARDED_BY(registration_mutex_);
  std::atomic<std::shared_ptr<const std::vector<StreamInfo>>> stream_info_;
};

}  // namespace omg::serve
