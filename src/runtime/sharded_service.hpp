// The sharded, backpressure-aware serving engine behind serve::Monitor.
//
// Every stream is served by one shard worker fed by a bounded queue, so
// sustained overload degrades by a counted admission policy instead of by
// unbounded memory growth, and no Observe crosses a service-wide mutex:
//
//   producers ──ObserveBatch──► bounded MPSC queue ─► shard worker 0
//              (admission policy:  bounded MPSC queue ─► shard worker 1
//               Block / DropOldest,       ...      ◄─╮
//               ShedBelowSeverity, bounded MPSC queue ─► shard worker N-1
//               LatencyTarget)             │         ╰ idle workers steal
//                     scorers + metrics cell owned by that shard
//                                          │
//                          events ──► EventSinks (atomic snapshot)
//
// Ownership and threading:
//
//   * Stream id % shards picks the *home* shard. Each shard owns a
//     dedicated worker thread, the stream scorers of its streams, and its
//     cell of the MetricsRegistry — nothing on the observe/score path
//     takes a lock shared between shards.
//   * Work stealing (config.stealing): an idle worker steals from the
//     deepest neighbour's queue instead of sleeping, so one hot shard no
//     longer caps service throughput at a single core. Steal granularity
//     is *whole-stream batch groups*: a thief claims a stream (under the
//     home shard's mutex), extracts every queued batch of that stream in
//     queue order, and no other worker touches the stream until the thief
//     unclaims it. Per-stream batches therefore score in submission order
//     on exactly one thread at a time — stealing cannot reorder a
//     stream's emissions, so flag digests are identical with stealing on
//     or off (tests/test_steal_equivalence.cpp pins this).
//   * The stream table and the sink list are read through atomic
//     shared_ptr snapshots: producers never contend with registration.
//   * Ingestion queues are bounded (`queue_capacity` examples per shard).
//     A full queue invokes the configured AdmissionPolicy, so overload
//     degrades by an explicit, counted policy instead of OOMing.
//     kLatencyTarget additionally sheds below-floor batches *before* the
//     queue fills, whenever queued work times the shard's measured
//     service rate projects past `latency_target_ms`.
//
// Accounting under stealing: a stolen batch's stream aggregates, events,
// and latency land in its home shard's metrics cell (with zero busy/idle
// — the home worker spent no time on it); the thief's wall time is
// recorded as steal_ns in the thief's cell. Per shard, busy + idle +
// steal partitions worker wall time with no double counting.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/mutex.hpp"
#include "core/assertion.hpp"
#include "obs/clock.hpp"
#include "obs/tracer.hpp"
#include "runtime/admission.hpp"
#include "runtime/event_sink.hpp"
#include "runtime/metrics.hpp"
#include "runtime/stream_registry.hpp"
#include "runtime/suite_bundle.hpp"

namespace omg::runtime {

/// Serves an assertion suite over many concurrent example streams through
/// per-shard worker threads fed by bounded, admission-controlled queues.
///
/// Suites are stateful (consistency assertions memoise analyses), so every
/// stream gets its own instance from the factory. Ingestion is asynchronous:
/// Observe/ObserveBatch enqueue (subject to admission) and return; call
/// Flush() to wait for quiescence. All public methods are thread-safe.
template <typename Example>
class ShardedMonitorService {
 public:
  /// One stream's private suite plus its invalidation hook (see
  /// runtime/suite_bundle.hpp).
  using SuiteBundle = runtime::SuiteBundle<Example>;
  /// Builds one stream's SuiteBundle; called once per RegisterStream.
  using SuiteFactory = runtime::SuiteFactory<Example>;

  /// Validates `config`, spawns one worker thread per shard. `factory` is
  /// the default suite source for RegisterStream(name); it may be omitted
  /// when every stream supplies its own bundle (the serving facade's mode —
  /// heterogeneous streams cannot share one factory).
  explicit ShardedMonitorService(ShardedRuntimeConfig config,
                                 SuiteFactory factory = nullptr)
      : config_(config), factory_(std::move(factory)) {
    config_.Validate();
    if (config_.tracer != nullptr) {
      common::Check(config_.tracer->shard_lanes() >= config_.shards,
                    "tracer has fewer shard lanes than the service has "
                    "shards");
    }
    metrics_ = std::make_unique<MetricsRegistry>(config_.shards);
    shards_.reserve(config_.shards);
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
    for (std::size_t i = 0; i < config_.shards; ++i) {
      shards_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
    }
  }

  /// Drains every queue (already-admitted batches are still scored), then
  /// joins the workers.
  ~ShardedMonitorService() {
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mutex);
      shard->stop = true;
      shard->ready.NotifyAll();
      shard->space.NotifyAll();
    }
    for (const auto& shard : shards_) shard->worker.join();
  }

  ShardedMonitorService(const ShardedMonitorService&) = delete;
  ShardedMonitorService& operator=(const ShardedMonitorService&) = delete;

  /// The validated configuration this service runs with.
  const ShardedRuntimeConfig& config() const { return config_; }

  /// Stream name <-> id mapping.
  const StreamRegistry& registry() const { return registry_; }

  /// Registers a stream served by the default suite factory and pins it to
  /// home shard `id % shards`.
  StreamId RegisterStream(std::string name) {
    common::Check(static_cast<bool>(factory_),
                  "RegisterStream(name) needs the constructor's suite "
                  "factory; pass a bundle explicitly otherwise");
    return RegisterStream(std::move(name), factory_());
  }

  /// Registers a stream served by its own `bundle`: the default scorer
  /// over the bundle's suite, events named after its assertions.
  StreamId RegisterStream(std::string name, SuiteBundle bundle) {
    common::Check(bundle.suite != nullptr, "suite factory returned null");
    std::vector<std::string> assertion_names = bundle.suite->Names();
    return RegisterStream(
        std::move(name), std::move(assertion_names),
        [bundle = std::move(bundle)](const StreamScorerParams& params) {
          return std::make_unique<DefaultStreamScorer<Example>>(
              bundle.suite, bundle.invalidate, params);
        });
  }

  /// Registers a stream scored by the StreamScorer that `scorer` builds
  /// for this service's window geometry; its events name assertion index
  /// `a` as `assertion_names[a]`. Streams of one service may run entirely
  /// different scorers (the serving facade hosts heterogeneous domains
  /// this way).
  StreamId RegisterStream(std::string name,
                          std::vector<std::string> assertion_names,
                          const StreamScorerFactory<Example>& scorer) {
    common::Check(static_cast<bool>(scorer), "null scorer factory");
    std::unique_ptr<StreamScorer<Example>> built =
        scorer({config_.window, config_.settle_lag});
    common::Check(built != nullptr, "scorer factory returned null");
    // Registration is serialised end to end: id assignment and the table
    // append must be atomic together, or two concurrent registrations
    // could append out of id order.
    MutexLock lock(registration_mutex_);
    const StreamId id = registry_.Register(std::move(name));
    metrics_->RegisterStream(id, registry_.Name(id));
    auto state = std::make_unique<StreamState>(
        id, registry_.Name(id), id % config_.shards,
        std::move(assertion_names), std::move(built));
    state->home_mutex = &shards_[state->shard]->mutex;
    auto table = std::make_shared<std::vector<StreamState*>>(
        streams_.load() ? *streams_.load() : std::vector<StreamState*>{});
    common::Check(table->size() == id, "stream table out of sync");
    table->push_back(state.get());
    owned_streams_.push_back(std::move(state));
    streams_.store(std::shared_ptr<const std::vector<StreamState*>>(
        std::move(table)));
    return id;
  }

  /// Fans `sink` every event from every stream. Thread-safe; events already
  /// in flight on the workers may miss a sink added concurrently.
  void AddSink(std::shared_ptr<EventSink> sink) {
    common::Check(sink != nullptr, "null sink");
    MutexLock lock(registration_mutex_);
    auto sinks = std::make_shared<std::vector<std::shared_ptr<EventSink>>>(
        sinks_.load() ? *sinks_.load()
                      : std::vector<std::shared_ptr<EventSink>>{});
    sinks->push_back(std::move(sink));
    sinks_.store(std::shared_ptr<const std::vector<std::shared_ptr<EventSink>>>(
        std::move(sinks)));
  }

  /// Enqueues one example (convenience wrapper; prefer ObserveBatch under
  /// load — batching is where the throughput comes from). Returns false if
  /// the example was shed by the admission policy.
  bool Observe(StreamId id, Example example, double severity_hint = 0.0) {
    std::vector<Example> batch;
    batch.push_back(std::move(example));
    return ObserveBatch(id, std::move(batch), severity_hint);
  }

  /// Enqueues a batch for `id` and returns. Batches from one producer are
  /// scored in submission order (minus any the admission policy removed).
  ///
  /// `severity_hint` is the producer's estimate of how important the batch
  /// is (e.g. an upstream filter's confidence that it contains anomalies);
  /// kShedBelowSeverity sheds below-floor batches when the queue is full,
  /// kLatencyTarget sheds them whenever the shard's projected completion
  /// latency exceeds the target. Returns true when the batch was admitted,
  /// false when it was shed — kBlock and kDropOldest always admit (kBlock
  /// by waiting for space, kDropOldest by evicting queued batches).
  bool ObserveBatch(StreamId id, std::vector<Example> batch,
                    double severity_hint = 0.0) {
    if (batch.empty()) return true;
    common::Check(batch.size() <= config_.queue_capacity,
                  "batch exceeds the shard queue capacity; split it");
    StreamState* state = State(id);
    Shard& shard = *shards_[state->shard];
    const std::size_t cost = batch.size();
    std::size_t dropped_batches = 0;
    std::size_t dropped_examples = 0;
    std::size_t depth;
    {
      MutexLock lock(shard.mutex);
      if (config_.admission == AdmissionPolicy::kLatencyTarget &&
          severity_hint < config_.shed_floor) {
        // Project the batch's completion latency from the queue depth and
        // the shard's measured service rate; shed below-floor work that
        // would land past the target. The EWMA is a deliberately racy
        // heuristic (workers publish it relaxed); admission stays exact
        // through the counters, not the estimate. Until the first scored
        // batch publishes a rate, everything is admitted.
        const std::uint64_t ewma_ns =
            shard.service_ewma_ns.load(std::memory_order_relaxed);
        if (ewma_ns != 0 &&
            static_cast<double>(shard.queued + cost) *
                    static_cast<double>(ewma_ns) >
                config_.latency_target_ms * 1e6) {
          lock.Unlock();
          metrics_->RecordLoss(state->shard, 1, cost,
                               MetricsRegistry::LossKind::kShed);
          if (config_.tracer != nullptr) {
            config_.tracer->EmitControl(obs::TraceEventKind::kAdmissionShed,
                                        obs::TracePhase::kInstant, id, cost,
                                        state->shard);
          }
          return false;
        }
      }
      if (shard.queued + cost > config_.queue_capacity) {
        switch (config_.admission) {
          case AdmissionPolicy::kBlock:
          case AdmissionPolicy::kLatencyTarget:
            // Capacity is a hard bound under kLatencyTarget too: batches
            // that clear the latency gate still block for space.
            while (!shard.stop &&
                   shard.queued + cost > config_.queue_capacity) {
              shard.space.Wait(shard.mutex);
            }
            break;
          case AdmissionPolicy::kDropOldest:
            while (shard.queued + cost > config_.queue_capacity &&
                   !shard.queue.empty()) {
              shard.queued -= shard.queue.front().batch.size();
              dropped_examples += shard.queue.front().batch.size();
              ++dropped_batches;
              shard.queue.pop_front();
            }
            break;
          case AdmissionPolicy::kShedBelowSeverity:
            if (severity_hint < config_.shed_floor) {
              lock.Unlock();
              metrics_->RecordLoss(state->shard, 1, cost,
                                   MetricsRegistry::LossKind::kShed);
              if (config_.tracer != nullptr) {
                config_.tracer->EmitControl(
                    obs::TraceEventKind::kAdmissionShed,
                    obs::TracePhase::kInstant, id, cost, state->shard);
              }
              return false;
            }
            // The incoming batch is important: make room by evicting
            // below-floor queued work (oldest first), then block if the
            // whole queue is important too.
            for (auto it = shard.queue.begin();
                 it != shard.queue.end() &&
                 shard.queued + cost > config_.queue_capacity;) {
              if (it->severity_hint < config_.shed_floor) {
                shard.queued -= it->batch.size();
                dropped_examples += it->batch.size();
                ++dropped_batches;
                it = shard.queue.erase(it);
              } else {
                ++it;
              }
            }
            while (!shard.stop &&
                   shard.queued + cost > config_.queue_capacity) {
              shard.space.Wait(shard.mutex);
            }
            break;
        }
      }
      shard.queue.push_back(
          {state, std::move(batch), severity_hint, obs::Clock::NowNs()});
      shard.queued += cost;
      shard.queued_approx.store(shard.queued, std::memory_order_relaxed);
      depth = shard.queued;
      shard.ready.NotifyOne();
    }
    metrics_->RecordQueueDepth(state->shard, depth);
    if (dropped_batches > 0) {
      metrics_->RecordLoss(state->shard, dropped_batches, dropped_examples,
                           MetricsRegistry::LossKind::kDropped);
      if (config_.tracer != nullptr) {
        config_.tracer->EmitControl(obs::TraceEventKind::kAdmissionDrop,
                                    obs::TracePhase::kInstant, id,
                                    dropped_examples, state->shard);
      }
    }
    return true;
  }

  /// Blocks until every shard is quiescent (queue empty, worker idle, no
  /// stolen work in flight), then flushes the sinks. With producers still
  /// running this waits for them to pause; under kBlock a producer blocked
  /// on admission makes progress as the workers drain, so Flush still
  /// terminates.
  void Flush() {
    if (config_.tracer != nullptr) {
      config_.tracer->EmitControl(obs::TraceEventKind::kFlush,
                                  obs::TracePhase::kBegin);
    }
    for (const auto& shard : shards_) {
      MutexLock lock(shard->mutex);
      while (!shard->queue.empty() || shard->busy ||
             shard->stolen_inflight != 0) {
        shard->idle.Wait(shard->mutex);
      }
    }
    if (const auto sinks = sinks_.load()) {
      for (const auto& sink : *sinks) sink->Flush();
    }
    if (config_.tracer != nullptr) {
      config_.tracer->EmitControl(obs::TraceEventKind::kFlush,
                                  obs::TracePhase::kEnd);
    }
  }

  /// Aggregated dashboard snapshot — per-stream aggregates plus the
  /// per-shard queue/drop/steal counters and observe-to-flag latency
  /// histograms (does not flush; pair with Flush() for read-your-writes).
  MetricsSnapshot Metrics() const { return metrics_->Snapshot(); }

  /// The shared metrics registry, for frontends recording their own
  /// accounting (e.g. the net layer's named per-tenant counters) into the
  /// same snapshot the exporter renders.
  MetricsRegistry& metrics_registry() { return *metrics_; }

  /// Messages from ingestion tasks that threw (a throwing assertion poisons
  /// its batch, not the service).
  std::vector<std::string> Errors() const {
    MutexLock lock(errors_mutex_);
    return errors_;
  }

 private:
  /// One registered stream: its assertion names and scorer, driven by
  /// exactly one worker at a time (the claimed-stream protocol below).
  struct StreamState {
    StreamState(StreamId id, std::string_view name, std::size_t shard,
                std::vector<std::string> assertion_names,
                std::unique_ptr<StreamScorer<Example>> scorer)
        : id(id),
          name(name),
          shard(shard),
          assertion_names(std::move(assertion_names)),
          scorer(std::move(scorer)) {}

    StreamId id;
    std::string_view name;  // owned by the registry
    std::size_t shard;      ///< home shard (id % shards)
    /// Event name of each scorer assertion index.
    std::vector<std::string> assertion_names;
    std::unique_ptr<StreamScorer<Example>> scorer;
    /// The home shard's mutex — the capability guarding `claimed`. Set by
    /// RegisterStream right after construction, constant afterwards.
    Mutex* home_mutex = nullptr;

    /// Whether some worker (home or thief) holds this stream's batches out
    /// of the queue. `proof` is the mutex the caller holds; every call
    /// site passes the home shard's mutex (streams are scanned only under
    /// their own shard's lock), which AssertHeld turns into the capability
    /// the analysis needs — it cannot name "the home shard's mutex" as a
    /// static expression because the alias is a runtime value.
    bool IsClaimed(Mutex& proof) const OMG_REQUIRES(proof) {
      static_cast<void>(proof);
      home_mutex->AssertHeld();  // proof IS *home_mutex at every call site
      return claimed;
    }

    /// Claims (true) or unclaims (false) the stream. Same proof contract
    /// as IsClaimed. While claimed, no other worker may dequeue or steal
    /// this stream's items — this is what serialises scorer access and
    /// preserves per-stream FIFO under stealing.
    void SetClaimed(bool value, Mutex& proof) OMG_REQUIRES(proof) {
      static_cast<void>(proof);
      home_mutex->AssertHeld();  // proof IS *home_mutex at every call site
      claimed = value;
    }

   private:
    bool claimed OMG_GUARDED_BY(*home_mutex) = false;
  };

  /// One queued ingestion batch.
  struct QueueItem {
    StreamState* state;
    std::vector<Example> batch;
    double severity_hint;
    /// obs::Clock admission timestamp (queue-wait and latency baseline).
    std::uint64_t enqueued_ns;
  };

  /// One shard: a bounded MPSC queue plus the dedicated worker draining
  /// it. Cache-line aligned so one shard's queue churn never false-shares
  /// with its neighbours' hot fields.
  struct alignas(64) Shard {
    Mutex mutex;
    CondVar ready;  ///< worker waits for work / unclaims
    CondVar space;  ///< kBlock producers wait for capacity
    CondVar idle;   ///< Flush waits for quiescence
    std::deque<QueueItem> queue OMG_GUARDED_BY(mutex);
    /// Examples summed over `queue`.
    std::size_t queued OMG_GUARDED_BY(mutex) = 0;
    /// Worker is scoring a popped batch.
    bool busy OMG_GUARDED_BY(mutex) = false;
    bool stop OMG_GUARDED_BY(mutex) = false;
    /// Examples extracted by thieves, not yet scored (quiescence term).
    std::size_t stolen_inflight OMG_GUARDED_BY(mutex) = 0;
    /// Lock-free mirror of `queued` — victim selection reads it without
    /// touching the mutex.
    std::atomic<std::size_t> queued_approx{0};
    /// EWMA of scoring ns per example (kLatencyTarget's service-rate
    /// estimate). Plain loads/stores, intentionally racy — see
    /// UpdateServiceEwma.
    std::atomic<std::uint64_t> service_ewma_ns{0};
    std::thread worker;
  };

  /// One stream's batches extracted from a victim queue, in queue order.
  struct StolenGroup {
    StreamState* state = nullptr;
    std::vector<QueueItem> items;
    std::size_t examples = 0;
  };

  StreamState* State(StreamId id) {
    const auto table = streams_.load();
    common::Check(table != nullptr && id < table->size(), "unknown stream id");
    return (*table)[id];
  }

  /// First queued item whose stream is unclaimed. `proof` is the queue's
  /// own shard mutex, held by the caller — the home mutex of every stream
  /// in the queue (streams only ever queue on their home shard).
  static typename std::deque<QueueItem>::iterator FirstUnclaimed(
      std::deque<QueueItem>& queue, Mutex& proof) OMG_REQUIRES(proof) {
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (!it->state->IsClaimed(proof)) return it;
    }
    return queue.end();
  }

  void WorkerLoop(std::size_t shard_index) {
    Shard& shard = *shards_[shard_index];
    obs::Tracer* const tracer = config_.tracer.get();
    const bool stealing = config_.stealing && config_.shards > 1;
    // Occupancy accounting: everything between finishing one batch (or
    // steal episode) and starting the next is idle; own scoring is busy,
    // foreign scoring is steal time. The boundary timestamps double as
    // the queue-wait measurement.
    std::uint64_t idle_since_ns = obs::Clock::NowNs();
    for (;;) {
      QueueItem item;
      std::size_t depth = 0;
      bool have_own = false;
      {
        MutexLock lock(shard.mutex);
        for (;;) {
          const auto it = FirstUnclaimed(shard.queue, shard.mutex);
          if (it != shard.queue.end()) {
            item = std::move(*it);
            shard.queue.erase(it);
            shard.queued -= item.batch.size();
            shard.queued_approx.store(shard.queued,
                                      std::memory_order_relaxed);
            depth = shard.queued;
            shard.busy = true;
            item.state->SetClaimed(true, shard.mutex);
            shard.space.NotifyAll();
            have_own = true;
            break;
          }
          if (shard.stop) {
            if (shard.queue.empty()) return;
            // Claimed leftovers: a thief still owns those streams; it
            // will unclaim and notify when its group is scored.
            shard.ready.Wait(shard.mutex);
            continue;
          }
          if (stealing) break;  // nothing local: try the neighbours
          shard.ready.Wait(shard.mutex);
        }
      }
      if (have_own) {
        const std::uint64_t dequeued_ns = obs::Clock::NowNs();
        const std::uint64_t idle_ns =
            obs::Clock::ElapsedNs(idle_since_ns, dequeued_ns);
        const std::uint64_t queue_wait_ns =
            obs::Clock::ElapsedNs(item.enqueued_ns, dequeued_ns);
        metrics_->RecordQueueDepth(shard_index, depth);
        const bool traced =
            tracer != nullptr && tracer->SampleBatch(shard_index);
        if (traced) {
          tracer->EmitShard(shard_index, obs::TraceEventKind::kBatchDequeue,
                            obs::TracePhase::kInstant, item.state->id,
                            item.batch.size(), depth);
        }
        Score(shard_index, item, queue_wait_ns, idle_ns, traced,
              /*stolen=*/false);
        {
          MutexLock lock(shard.mutex);
          item.state->SetClaimed(false, shard.mutex);
          shard.busy = false;
          if (shard.queue.empty() && shard.stolen_inflight == 0) {
            shard.idle.NotifyAll();
          }
        }
        idle_since_ns = obs::Clock::NowNs();
        continue;
      }
      if (TryStealAndRun(shard_index, idle_since_ns)) continue;
      // Nothing to steal either: nap until local work arrives or a short
      // timeout re-opens the steal scan. A spurious wake just re-runs the
      // outer scan, so a single bounded wait suffices — no predicate loop.
      MutexLock lock(shard.mutex);
      if (!shard.stop &&
          FirstUnclaimed(shard.queue, shard.mutex) == shard.queue.end()) {
        shard.ready.WaitFor(shard.mutex, std::chrono::microseconds(500));
      }
    }
  }

  /// One steal episode: claim whole-stream batch groups from the deepest
  /// neighbour until half its queued examples are extracted, score them,
  /// unclaim group by group. Returns false when there was nothing to
  /// steal. On success, advances `idle_since_ns` past the episode.
  bool TryStealAndRun(std::size_t thief_index, std::uint64_t& idle_since_ns) {
    obs::Tracer* const tracer = config_.tracer.get();
    std::size_t victim_index = thief_index;
    std::size_t deepest = 0;
    for (std::size_t j = 0; j < config_.shards; ++j) {
      if (j == thief_index) continue;
      const std::size_t d =
          shards_[j]->queued_approx.load(std::memory_order_relaxed);
      if (d > deepest) {
        deepest = d;
        victim_index = j;
      }
    }
    if (victim_index == thief_index) return false;
    Shard& victim = *shards_[victim_index];
    std::vector<StolenGroup> groups;
    std::size_t stolen_examples = 0;
    std::size_t stolen_batches = 0;
    std::size_t depth = 0;
    {
      MutexLock lock(victim.mutex);
      // A stopping victim drains its own queue; stealing from it would
      // race the drain-then-join shutdown.
      if (victim.stop || victim.queue.empty()) return false;
      const std::size_t half = (victim.queued + 1) / 2;
      while (stolen_examples < half) {
        StreamState* target = nullptr;
        for (const QueueItem& queued_item : victim.queue) {
          // victim.mutex is the home mutex of every stream in its queue.
          if (!queued_item.state->IsClaimed(victim.mutex)) {
            target = queued_item.state;
            break;
          }
        }
        if (target == nullptr) break;  // all remaining streams are claimed
        target->SetClaimed(true, victim.mutex);
        StolenGroup group;
        group.state = target;
        for (auto it = victim.queue.begin(); it != victim.queue.end();) {
          if (it->state == target) {
            group.examples += it->batch.size();
            ++stolen_batches;
            group.items.push_back(std::move(*it));
            it = victim.queue.erase(it);
          } else {
            ++it;
          }
        }
        stolen_examples += group.examples;
        groups.push_back(std::move(group));
      }
      if (groups.empty()) return false;
      victim.queued -= stolen_examples;
      victim.queued_approx.store(victim.queued, std::memory_order_relaxed);
      victim.stolen_inflight += stolen_examples;
      depth = victim.queued;
      victim.space.NotifyAll();
    }
    metrics_->RecordQueueDepth(victim_index, depth);
    metrics_->RecordSteal(victim_index, stolen_batches, stolen_examples);
    const std::uint64_t steal_begin_ns = obs::Clock::NowNs();
    const std::uint64_t idle_ns =
        obs::Clock::ElapsedNs(idle_since_ns, steal_begin_ns);
    for (StolenGroup& group : groups) {
      for (QueueItem& stolen_item : group.items) {
        const std::uint64_t queue_wait_ns =
            obs::Clock::ElapsedNs(stolen_item.enqueued_ns, steal_begin_ns);
        // Stolen batches trace into the *thief's* lane (never the home
        // shard's): each lane stays single-writer — only its own worker
        // thread emits into it.
        const bool traced =
            tracer != nullptr && tracer->SampleBatch(thief_index);
        if (traced) {
          tracer->EmitShard(thief_index, obs::TraceEventKind::kBatchDequeue,
                            obs::TracePhase::kInstant, stolen_item.state->id,
                            stolen_item.batch.size(), depth);
        }
        Score(thief_index, stolen_item, queue_wait_ns, /*idle_ns=*/0,
              traced, /*stolen=*/true);
      }
      {
        MutexLock lock(victim.mutex);
        group.state->SetClaimed(false, victim.mutex);
        victim.stolen_inflight -= group.examples;
        // The home worker may have skipped this stream's newer items (or
        // be waiting out a stop) — wake it now that the claim is gone.
        victim.ready.NotifyAll();
        if (victim.queue.empty() && !victim.busy &&
            victim.stolen_inflight == 0) {
          victim.idle.NotifyAll();
        }
      }
    }
    const std::uint64_t steal_end_ns = obs::Clock::NowNs();
    metrics_->RecordStealWork(
        thief_index, obs::Clock::ElapsedNs(steal_begin_ns, steal_end_ns),
        idle_ns);
    idle_since_ns = steal_end_ns;
    return true;
  }

  /// Publishes a scoring measurement into the home shard's service-rate
  /// EWMA (kLatencyTarget's admission signal). Load/compute/store without
  /// a CAS loop: the home worker and a thief can race and drop an update,
  /// which only jitters a heuristic the admission counters keep honest.
  void UpdateServiceEwma(std::size_t home_shard, std::uint64_t busy_ns,
                         std::size_t count) {
    if (count == 0) return;
    Shard& shard = *shards_[home_shard];
    const std::uint64_t per =
        std::max<std::uint64_t>(1, busy_ns / count);
    const std::uint64_t old =
        shard.service_ewma_ns.load(std::memory_order_relaxed);
    shard.service_ewma_ns.store(old == 0 ? per : (7 * old + per) / 8,
                                std::memory_order_relaxed);
  }

  /// Scores one batch on `worker_shard`'s thread. The stream is claimed by
  /// the caller, so scorer access is exclusive. `stolen` routes the
  /// occupancy: an own batch's busy/idle land in the home cell here, a
  /// stolen batch's wall time is the caller's steal episode (recorded via
  /// RecordStealWork) and the home cell gets zero busy/idle — stream
  /// aggregates, events, and latency always land in the home cell.
  void Score(std::size_t worker_shard, QueueItem& item,
             std::uint64_t queue_wait_ns, std::uint64_t idle_ns,
             bool traced, bool stolen) {
    obs::Tracer* const tracer = config_.tracer.get();
    StreamState& state = *item.state;
    const std::size_t count = item.batch.size();
    const std::uint64_t begin_ns = obs::Clock::NowNs();
    if (traced) {
      tracer->EmitShard(worker_shard, obs::TraceEventKind::kEvaluate,
                        obs::TracePhase::kBegin, state.id, count);
    }
    std::vector<StreamEvent> events;
    try {
      state.scorer->ObserveBatch(
          std::move(item.batch),
          [&](std::size_t global, std::size_t a, double severity) {
            // A bad index poisons the batch (caught below), not the process.
            common::Check(a < state.assertion_names.size(),
                          "scorer emitted an unknown assertion index");
            events.push_back({state.id, state.name, global,
                              state.assertion_names[a], severity});
          });
    } catch (const std::exception& error) {
      {
        MutexLock lock(errors_mutex_);
        errors_.push_back(std::string(state.name) + ": " + error.what());
      }
      const std::uint64_t failed_ns = obs::Clock::NowNs();
      if (traced) {
        tracer->EmitShard(worker_shard, obs::TraceEventKind::kEvaluate,
                          obs::TracePhase::kEnd, state.id, count, 0);
      }
      const std::uint64_t busy_ns =
          obs::Clock::ElapsedNs(begin_ns, failed_ns);
      // Keep the loss accounting exact: a poisoned batch's examples must
      // land in a counter (offered == scored + shed + dropped + errored).
      metrics_->RecordError(state.shard, 1, count, queue_wait_ns,
                            stolen ? 0 : busy_ns, stolen ? 0 : idle_ns);
      UpdateServiceEwma(state.shard, busy_ns, count);
      return;
    }
    if (const auto sinks = sinks_.load()) {
      for (const auto& sink : *sinks) {
        for (const StreamEvent& event : events) sink->Consume(event);
      }
    }
    const std::uint64_t done_ns = obs::Clock::NowNs();
    if (traced) {
      tracer->EmitShard(worker_shard, obs::TraceEventKind::kEvaluate,
                        obs::TracePhase::kEnd, state.id, count,
                        events.size());
    }
    const double latency = obs::Clock::ToSeconds(
        obs::Clock::ElapsedNs(item.enqueued_ns, done_ns));
    const std::uint64_t busy_ns = obs::Clock::ElapsedNs(begin_ns, done_ns);
    metrics_->RecordScoredBatch(state.id, state.shard, count, events, latency,
                                queue_wait_ns, stolen ? 0 : busy_ns,
                                stolen ? 0 : idle_ns);
    UpdateServiceEwma(state.shard, busy_ns, count);
  }

  ShardedRuntimeConfig config_;
  SuiteFactory factory_;
  StreamRegistry registry_;
  std::unique_ptr<MetricsRegistry> metrics_;

  /// Guards registration (stream table + sink list writers); readers go
  /// through the atomic snapshots below and never take it.
  Mutex registration_mutex_;
  std::vector<std::unique_ptr<StreamState>> owned_streams_
      OMG_GUARDED_BY(registration_mutex_);
  std::atomic<std::shared_ptr<const std::vector<StreamState*>>> streams_;
  std::atomic<std::shared_ptr<const std::vector<std::shared_ptr<EventSink>>>>
      sinks_;

  mutable Mutex errors_mutex_;
  std::vector<std::string> errors_ OMG_GUARDED_BY(errors_mutex_);

  // Declared last: workers joined (in ~ShardedMonitorService) before the
  // state above dies.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace omg::runtime
