// One binary, N workloads, one runtime per workload: loads declarative
// scenario files (configs/*.conf, format in docs/CONFIGURATION.md) and runs
// each one through a single type-erased serve::Monitor — every stream of
// every domain the scenario declares shares one shard set, one admission
// policy, and one metrics registry (docs/API.md). Adding a workload is
// editing a config file, not writing a main().
//
//   * every suite comes from the serve::DomainRegistry the four domains
//     populate (src/*/factory.cpp) — erased builders with names like
//     `video.multibox`, parameters from [assertion ...] sections;
//   * runtime geometry and admission come from [runtime] / [admission] and
//     bound the whole scenario, mixed-domain ones included: a video batch
//     and an ECG batch contend for the same bounded queues;
//   * after every run the shared admission accounting must reconcile:
//     offered == scored + shed + dropped + errored, across domains;
//   * scenarios with `[loop] enabled = true` run the improvement loop on
//     their video streams: traffic is served in waves, each followed by a
//     select -> label -> retrain round and a hot-swap pickup.
//
// Build & run:
//   ./examples/scenario_harness ../configs/*.conf     # explicit files
//   ./examples/scenario_harness --describe            # registered domains
//   ./examples/scenario_harness --trace DIR           # Chrome traces to DIR
//   ./examples/scenario_harness --export-metrics DIR  # jsonl+prom to DIR
//   ./examples/scenario_harness --serve CONF          # network ingestion
//   ./examples/scenario_harness CONF --record TRACE   # record a trace
//   ./examples/scenario_harness CONF --replay TRACE --speed N
//
// --record captures the scenario's pregenerated traffic to a deterministic
// trace file; --replay drives a recorded trace back through a fresh
// monitor (in-process, or the full wire path with
// --replay-transport uds) at --speed x the recorded rate (0 = unpaced) and
// prints the canonical flag digest — identical for every equivalent replay
// (docs/REPLAY.md). --flags-out FILE writes the canonical JSON-lines flag
// document; --soak-seconds S repeats the replay until S seconds have
// elapsed, failing if any iteration's digest diverges.
//
// --serve hosts a [server] scenario behind a net::IngestServer instead of
// generating traffic locally: every [stream ...] is exposed over the wire
// (restricted to its `tenant =` when set), examples arrive as DATA frames
// from clients like examples/ingest_load, and the harness exits once at
// least one client connection has come and gone and none remain — then
// reconciles the wire accounting identity
//   offered == scored + shed + dropped + errored
//            + quota_rejected + decode_errors
// and prints the per-tenant wire table next to the usual monitor report.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "av/factory.hpp"
#include "av/pipeline.hpp"
#include "common/check.hpp"
#include "common/example_gen.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "ecg/factory.hpp"
#include "loop/improvement_loop.hpp"
#include "net/server.hpp"
#include "obs/exporter.hpp"
#include "replay/replay.hpp"
#include "replay/trace_file.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"
#include "tvnews/factory.hpp"
#include "video/detector.hpp"
#include "video/factory.hpp"
#include "video/pipeline.hpp"
#include "video/world.hpp"

namespace {

using namespace omg;

/// One line of the end-of-run summary table.
struct SummaryRow {
  std::string scenario;
  std::string domains;
  std::size_t streams = 0;
  std::size_t examples = 0;
  std::size_t events = 0;
  std::size_t shed = 0;
  std::size_t dropped = 0;
  double p99_ms = 0.0;
  double wall_seconds = 0.0;
};

/// Per-stream prebuilt traffic, keyed by stream name. The generators live
/// in src/common/example_gen so the recorder and bench share them.
using TrafficMap = common::TrafficMap;

/// The scenario's stream specs for one domain, in declaration order.
std::vector<config::StreamSpec> StreamsOf(
    const config::ScenarioSpec& scenario, const std::string& domain) {
  std::vector<config::StreamSpec> streams;
  for (const config::StreamSpec& stream : scenario.streams) {
    if (stream.domain == domain) streams.push_back(stream);
  }
  return streams;
}

// -------------------------------------------------------------- reporting ---

/// The shared-runtime accounting identity: every offered example must land
/// in exactly one of scored / shed / dropped / errored, across all domains
/// of the scenario.
void CheckAccounting(const runtime::MetricsSnapshot& snapshot,
                     std::size_t offered) {
  const std::size_t scored = snapshot.examples_seen;
  const std::size_t shed = snapshot.TotalShedExamples();
  const std::size_t dropped = snapshot.TotalDroppedExamples();
  const std::size_t errored = snapshot.TotalErroredExamples();
  std::cout << "admission accounting: offered " << offered << " == scored "
            << scored << " + shed " << shed << " + dropped " << dropped
            << " + errored " << errored << "\n";
  common::Check(scored + shed + dropped + errored == offered,
                "shared admission accounting does not reconcile");
}

void PrintMonitorReport(const runtime::MetricsSnapshot& snapshot,
                        const std::vector<std::string>& errors) {
  common::TextTable table(
      {"Stream", "Assertion", "Fires", "Max sev", "Flag/ex"});
  for (const auto& stream : snapshot.streams) {
    for (const auto& [assertion, cell] : stream.assertions) {
      table.AddRow({stream.stream, assertion, std::to_string(cell.fires),
                    common::FormatDouble(cell.max_severity, 2),
                    common::FormatDouble(stream.FlaggedRate(assertion), 3)});
    }
  }
  table.Print(std::cout);
  common::TextTable shard_table({"Shard", "Examples", "Shed", "Dropped",
                                 "Peak depth", "p50 ms", "p95 ms", "p99 ms",
                                 "Busy %", "Q-wait ms"});
  for (const auto& shard : snapshot.shards) {
    shard_table.AddRow(
        {std::to_string(shard.shard), std::to_string(shard.examples),
         std::to_string(shard.shed_examples),
         std::to_string(shard.dropped_examples),
         std::to_string(shard.queue_depth_peak),
         common::FormatDouble(shard.latency.Quantile(0.50) * 1e3, 3),
         common::FormatDouble(shard.latency.Quantile(0.95) * 1e3, 3),
         common::FormatDouble(shard.latency.Quantile(0.99) * 1e3, 3),
         common::FormatDouble(shard.BusyFraction() * 100.0, 1),
         common::FormatDouble(shard.MeanQueueWaitSeconds() * 1e3, 3)});
  }
  shard_table.Print(std::cout);
  for (const auto& error : errors) {
    std::cout << "ingest error: " << error << "\n";
  }
}

SummaryRow Summarise(const config::ScenarioSpec& scenario,
                     const std::string& domains, std::size_t streams,
                     const runtime::MetricsSnapshot& snapshot,
                     double wall_seconds) {
  SummaryRow row;
  row.scenario = scenario.name;
  row.domains = domains;
  row.streams = streams;
  row.examples = snapshot.examples_seen;
  row.events = snapshot.events;
  row.shed = snapshot.TotalShedExamples();
  row.dropped = snapshot.TotalDroppedExamples();
  row.p99_ms = snapshot.MergedLatency().Quantile(0.99) * 1e3;
  row.wall_seconds = wall_seconds;
  return row;
}

std::string JoinedDomains(const config::ScenarioSpec& scenario) {
  std::string joined;
  for (const std::string& domain : scenario.Domains()) {
    if (!joined.empty()) joined += "+";
    joined += domain;
  }
  return joined;
}

// ---------------------------------------------------------------- serving ---

/// Serves every stream's pregenerated traffic through the scenario's one
/// Monitor, batches interleaved round-robin across streams so domains
/// genuinely contend for the shared shard queues. Returns offered count.
std::size_t ServeInterleaved(config::ScenarioMonitor& hosted,
                             TrafficMap& traffic) {
  struct Feed {
    const config::BoundStream* stream;
    std::vector<serve::AnyExample>* examples;
    std::size_t offset = 0;
  };
  std::vector<Feed> feeds;
  for (config::BoundStream& stream : hosted.streams) {
    const auto it = traffic.find(stream.spec.name);
    if (it == traffic.end()) continue;  // loop-owned stream
    feeds.push_back({&stream, &it->second});
  }
  std::size_t offered = 0;
  bool active = true;
  while (active) {
    active = false;
    for (Feed& feed : feeds) {
      if (feed.offset >= feed.examples->size()) continue;
      active = true;
      const std::size_t count = std::min(
          feed.stream->spec.batch, feed.examples->size() - feed.offset);
      const auto begin = feed.examples->begin() +
                         static_cast<std::ptrdiff_t>(feed.offset);
      std::vector<serve::AnyExample> batch(
          std::make_move_iterator(begin),
          std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(count)));
      feed.offset += count;
      const serve::Result<serve::ObserveOutcome> outcome =
          hosted.monitor->ObserveBatch(feed.stream->handle,
                                       std::move(batch));
      common::Check(outcome.ok(),
                    outcome.ok() ? "" : outcome.error().message);
      offered += count;  // shed batches still count as offered
    }
  }
  return offered;
}

// ------------------------------------------------------------- loop mode ---

/// The VideoAssertionConfig a scenario's video suite parameters describe —
/// the mixed oracle's correction suite must score with the *same*
/// parameters as the deployed factory-built suite, or corrections would be
/// derived under a different configuration than the flags that selected
/// the candidates.
video::VideoAssertionConfig VideoConfigFromSpec(
    const config::SuiteSpec& spec) {
  video::VideoAssertionConfig config;
  for (const config::AssertionSpec& assertion : spec.assertions) {
    if (assertion.name == "video.multibox") {
      config.multibox_iou =
          assertion.params.GetDouble("iou", config.multibox_iou);
    } else if (assertion.name == "video.consistency") {
      config.temporal_threshold = assertion.params.GetDouble(
          "temporal_threshold", config.temporal_threshold);
      config.tracker.min_iou =
          assertion.params.GetDouble("tracker_iou", config.tracker.min_iou);
      config.tracker.max_coast_frames = assertion.params.GetSize(
          "tracker_max_misses", config.tracker.max_coast_frames);
    }
  }
  return config;
}

/// A loop-enabled scenario: video streams run the improvement loop live
/// (traffic in `loop.rounds` waves, one select -> label -> retrain round
/// and a hot-swap pickup after each); other domains' pregenerated traffic
/// rides along through the same Monitor, split across the waves.
SummaryRow RunLoopScenario(const config::ScenarioSpec& scenario,
                           config::ScenarioMonitor& hosted,
                           TrafficMap& traffic) {
  const config::SuiteSpec* suite_spec = scenario.SuiteFor("video");
  const config::LoopSpec& loop_spec = scenario.loop;
  const auto start = std::chrono::steady_clock::now();

  std::vector<const config::BoundStream*> video_streams;
  std::map<runtime::StreamId, std::size_t> video_index;
  for (const config::BoundStream& stream : hosted.streams) {
    if (stream.spec.domain == "video") {
      video_index.emplace(stream.handle.id(), video_streams.size());
      video_streams.push_back(&stream);
    }
  }

  video::NightStreetWorld seed_world(video::WorldConfig{},
                                     video_streams.front()->spec.seed);
  nn::Dataset pretrain = seed_world.PretrainingSet(500, 700);
  video::SsdDetector detector(video::DetectorConfig{},
                              seed_world.config().feature_dim,
                              video_streams.front()->spec.seed);
  detector.Pretrain(pretrain);

  // Retained live traffic, indexed by [video stream][example index] — what
  // the oracles resolve CandidateKeys (which carry Monitor stream ids)
  // against, via `video_index`.
  std::vector<std::unique_ptr<video::NightStreetWorld>> worlds;
  std::vector<std::vector<video::Frame>> frames;
  std::vector<std::vector<video::VideoExample>> deployed;
  for (const config::BoundStream* stream : video_streams) {
    worlds.push_back(std::make_unique<video::NightStreetWorld>(
        video::WorldConfig{}, stream->spec.seed));
    frames.emplace_back();
    deployed.emplace_back();
  }

  auto human = std::make_shared<loop::GroundTruthOracle>(
      [&frames, &video_index](const loop::CandidateKey& key) {
        return video::NightStreetWorld::LabelFrame(
            frames.at(video_index.at(key.stream_id)).at(key.example_index));
      });
  std::shared_ptr<loop::LabelOracle> oracle = human;
  if (loop_spec.oracle == "mixed") {
    auto correction_suite = std::make_shared<video::VideoSuite>(
        video::BuildVideoSuite(VideoConfigFromSpec(*suite_spec)));
    auto weak = std::make_shared<loop::WeakLabelOracle>(
        [&frames, &deployed, &video_index, correction_suite](
            std::span<const loop::CandidateKey> keys) {
          nn::Dataset rows;
          for (const auto& [stream_id, local] : video_index) {
            std::set<std::size_t> chosen;
            for (const auto& key : keys) {
              if (key.stream_id == stream_id) {
                chosen.insert(key.example_index);
              }
            }
            if (chosen.empty()) continue;
            correction_suite->consistency->Invalidate();
            rows.Append(video::MakeWeakLabelDataset(
                *correction_suite, frames[local], deployed[local], chosen));
          }
          return rows;
        },
        loop_spec.weak_weight);
    oracle = std::make_shared<loop::MixedOracle>(human, weak);
  }

  // The erased video suite's qualified names fix the store's columns — the
  // same names the Monitor's events carry.
  loop::ImprovementLoopConfig loop_config =
      config::ConfigLoader::MakeLoopConfig(
          loop_spec, hosted.assertion_names.at("video"),
          video::DetectorConfig{}.finetune_sgd);
  loop_config.retrain.replay_weight = 1.0;
  // Share the monitor's tracer (if [observability] attached one) so round /
  // retrain / model_hot_swap spans land in the same trace as serving.
  loop_config.tracer = hosted.monitor->tracer();
  loop::ImprovementLoop improvement(
      loop_config, config::ConfigLoader::MakeStrategy(loop_spec.strategy),
      oracle, detector.model(), pretrain);

  // Only video events feed the loop; other domains ride the same Monitor
  // without polluting the candidate store.
  serve::EventFilter video_only;
  video_only.domain = "video";
  serve::Subscription loop_subscription =
      hosted.monitor->Subscribe(video_only, improvement.sink());

  std::size_t offered = 0;
  std::uint64_t served_version = 0;
  std::size_t events_before = 0;
  std::size_t examples_before = 0;
  common::TextTable rounds_table({"Wave", "Candidates", "Selected", "Human",
                                  "Weak", "Fallback", "Flagged/ex"});
  for (std::size_t wave = 0; wave < loop_spec.rounds; ++wave) {
    // Hot-swap pickup point: between waves, never mid-batch.
    const loop::ModelHandle handle = improvement.registry().Current();
    if (handle.version != served_version) {
      detector.SetModel(*handle.model);
      served_version = handle.version;
    }
    for (std::size_t s = 0; s < video_streams.size(); ++s) {
      const config::BoundStream& stream = *video_streams[s];
      const std::size_t wave_frames = std::max<std::size_t>(
          1, stream.spec.examples / loop_spec.rounds);
      std::vector<serve::AnyExample> batch;
      for (const video::Frame& frame :
           worlds[s]->GenerateFrames(wave_frames)) {
        video::VideoExample example{frame.index, frame.timestamp,
                                    detector.Detect(frame)};
        frames[s].push_back(frame);
        deployed[s].push_back(example);
        batch.push_back(serve::AnyExample::Make(std::move(example)));
        if (batch.size() == stream.spec.batch) {
          offered += batch.size();
          common::Check(
              hosted.monitor->ObserveBatch(stream.handle, std::move(batch))
                  .ok(),
              "loop wave observe failed");
          batch.clear();
        }
      }
      if (!batch.empty()) {
        offered += batch.size();
        common::Check(
            hosted.monitor->ObserveBatch(stream.handle, std::move(batch))
                .ok(),
            "loop wave observe failed");
      }
    }
    // Ride-along domains: one wave's worth of their pregenerated traffic.
    for (const config::BoundStream& stream : hosted.streams) {
      const auto it = traffic.find(stream.spec.name);
      if (it == traffic.end() || it->second.empty()) continue;
      std::vector<serve::AnyExample>& examples = it->second;
      std::size_t quota = std::max<std::size_t>(
          1, stream.spec.examples / loop_spec.rounds);
      if (wave + 1 == loop_spec.rounds) quota = examples.size();
      quota = std::min(quota, examples.size());
      for (std::size_t begin = 0; begin < quota;
           begin += stream.spec.batch) {
        const std::size_t count =
            std::min(stream.spec.batch, quota - begin);
        std::vector<serve::AnyExample> batch(
            std::make_move_iterator(examples.begin() +
                                    static_cast<std::ptrdiff_t>(begin)),
            std::make_move_iterator(
                examples.begin() +
                static_cast<std::ptrdiff_t>(begin + count)));
        offered += count;
        common::Check(
            hosted.monitor->ObserveBatch(stream.handle, std::move(batch))
                .ok(),
            "ride-along observe failed");
      }
      examples.erase(examples.begin(),
                     examples.begin() + static_cast<std::ptrdiff_t>(quota));
    }
    hosted.monitor->Flush();

    const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
    const double flagged_rate =
        static_cast<double>(snapshot.events - events_before) /
        static_cast<double>(snapshot.examples_seen - examples_before);
    events_before = snapshot.events;
    examples_before = snapshot.examples_seen;

    const std::optional<loop::RoundStats> stats = improvement.RunRound();
    improvement.WaitForRetrains();
    rounds_table.AddRow(
        {std::to_string(wave),
         stats ? std::to_string(stats->candidates) : "-",
         stats ? std::to_string(stats->selected) : "-",
         stats ? std::to_string(stats->human_labels) : "-",
         stats ? std::to_string(stats->weak_labels) : "-",
         stats ? (stats->used_fallback ? "yes" : "no") : "-",
         common::FormatDouble(flagged_rate, 3)});
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::cout << "improvement loop (" << loop_spec.strategy << " strategy, "
            << oracle->Name() << " oracle, budget " << loop_spec.budget
            << "/round, final model v" << served_version << "):\n";
  rounds_table.Print(std::cout);
  const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
  CheckAccounting(snapshot, offered);
  PrintMonitorReport(snapshot, hosted.monitor->Errors());
  return Summarise(scenario, JoinedDomains(scenario) + "+loop",
                   hosted.streams.size(), snapshot, wall);
}

// ------------------------------------------------------------ serve mode ---

net::IngestServerOptions ServerOptionsFromSpec(
    const config::ScenarioSpec& scenario) {
  net::IngestServerOptions options;
  options.uds_path = scenario.server.uds_path;
  options.tcp = scenario.server.tcp;
  options.tcp_port = static_cast<std::uint16_t>(scenario.server.tcp_port);
  options.handler_threads = scenario.server.handler_threads;
  options.max_frame_bytes = scenario.server.max_frame_bytes;
  for (const config::TenantSpec& tenant : scenario.tenants) {
    net::TenantOptions t;
    t.name = tenant.name;
    t.token = tenant.token;
    t.quota_eps = tenant.quota_eps;
    t.burst = tenant.burst;
    t.shed_floor = tenant.shed_floor;
    t.has_shed_floor = tenant.has_shed_floor;
    options.tenants.push_back(std::move(t));
  }
  return options;
}

/// The wire-mode accounting identity: every example a client offered must
/// land in exactly one of the monitor's outcomes or one of the server's
/// wire-side rejections.
void CheckWireAccounting(const runtime::MetricsSnapshot& snapshot,
                         const net::TenantStats& totals) {
  const std::uint64_t scored = snapshot.examples_seen;
  const std::uint64_t shed = snapshot.TotalShedExamples();
  const std::uint64_t dropped = snapshot.TotalDroppedExamples();
  const std::uint64_t errored = snapshot.TotalErroredExamples();
  std::cout << "wire accounting: offered " << totals.offered << " == scored "
            << scored << " + shed " << shed << " + dropped " << dropped
            << " + errored " << errored << " + quota_rejected "
            << totals.quota_rejected << " + decode_errors "
            << totals.decode_errors << "\n";
  common::Check(scored + shed + dropped + errored + totals.quota_rejected +
                        totals.decode_errors ==
                    totals.offered,
                "wire admission accounting does not reconcile");
}

void PrintTenantReport(const net::IngestServerStats& stats) {
  common::TextTable table({"Tenant", "Offered", "Admitted", "Shed",
                           "Quota rej", "Decode err"});
  for (const auto& [name, tenant] : stats.tenants) {
    table.AddRow({name, std::to_string(tenant.offered),
                  std::to_string(tenant.admitted),
                  std::to_string(tenant.shed),
                  std::to_string(tenant.quota_rejected),
                  std::to_string(tenant.decode_errors)});
  }
  table.AddRow({"(total)", std::to_string(stats.totals.offered),
                std::to_string(stats.totals.admitted),
                std::to_string(stats.totals.shed),
                std::to_string(stats.totals.quota_rejected),
                std::to_string(stats.totals.decode_errors)});
  table.Print(std::cout);
}

/// Hosts the scenario behind an IngestServer until every client connection
/// has come and gone: waits for the first connection, then for the active
/// count to return to zero, then stops, reconciles, and reports.
SummaryRow RunServeScenario(const config::ScenarioSpec& scenario,
                            config::ScenarioMonitor& hosted,
                            const serve::DomainRegistry& domains) {
  net::IngestServer server(ServerOptionsFromSpec(scenario), *hosted.monitor,
                           domains);
  for (const config::BoundStream& stream : hosted.streams) {
    server.ExposeStream(stream.handle, stream.spec.tenant);
  }
  const serve::Result<net::ServerEndpoints> endpoints = server.Start();
  common::Check(endpoints.ok(),
                endpoints.ok() ? "" : endpoints.error().message);
  std::cout << "serving:";
  if (!endpoints.value().uds_path.empty()) {
    std::cout << " uds " << endpoints.value().uds_path;
  }
  if (endpoints.value().tcp_port != 0) {
    std::cout << " tcp 127.0.0.1:" << endpoints.value().tcp_port;
  }
  std::cout << " (" << scenario.tenants.size() << " tenants, "
            << hosted.streams.size() << " streams; waiting for clients)\n";

  const auto start = std::chrono::steady_clock::now();
  net::IngestServerStats stats;
  for (;;) {
    stats = server.Stats();
    if (stats.connections_seen > 0 && stats.connections_active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  hosted.monitor->Flush();
  server.Stop();
  stats = server.Stats();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::cout << "served " << stats.connections_seen << " connections, "
            << stats.frames << " frames\n";
  PrintTenantReport(stats);
  const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
  CheckWireAccounting(snapshot, stats.totals);
  PrintMonitorReport(snapshot, hosted.monitor->Errors());
  return Summarise(scenario, JoinedDomains(scenario) + "+net",
                   hosted.streams.size(), snapshot, wall);
}

// ------------------------------------------------------------- scenarios ---

/// --trace / --export-metrics override the scenario's [observability]
/// section: tracing is forced on and missing output paths are derived from
/// the scenario name under the given directories. A [observability] section
/// in the file still controls ring sizing, sampling, and exporter cadence.
void ApplyObservabilityOverrides(config::ScenarioSpec& scenario,
                                 const std::string& trace_dir,
                                 const std::string& export_dir) {
  if (!trace_dir.empty()) {
    scenario.observability.trace = true;
    if (scenario.observability.trace_path.empty()) {
      scenario.observability.trace_path =
          trace_dir + "/" + scenario.name + ".trace.json";
    }
  }
  if (!export_dir.empty()) {
    if (scenario.observability.metrics_jsonl_path.empty()) {
      scenario.observability.metrics_jsonl_path =
          export_dir + "/" + scenario.name + ".metrics.jsonl";
    }
    if (scenario.observability.metrics_prometheus_path.empty()) {
      scenario.observability.metrics_prometheus_path =
          export_dir + "/" + scenario.name + ".metrics.prom";
    }
  }
}

void RunScenario(const std::string& path,
                 const serve::DomainRegistry& domains,
                 const std::string& trace_dir, const std::string& export_dir,
                 bool serve, std::vector<SummaryRow>& summary) {
  config::ScenarioSpec scenario = config::ConfigLoader::LoadFile(path);
  ApplyObservabilityOverrides(scenario, trace_dir, export_dir);
  if (serve && !scenario.server.enabled) {
    throw config::SpecError(scenario.source, 0, 0,
                            "--serve needs an enabled [server] section in "
                            "the scenario");
  }
  std::cout << "=== scenario '" << scenario.name << "' (" << path << ")\n";
  if (!scenario.description.empty()) {
    std::cout << "    " << scenario.description << "\n";
  }
  std::cout << "    one monitor: " << scenario.runtime.shards << " shards, "
            << "window " << scenario.runtime.window << ", queue cap "
            << scenario.runtime.queue_capacity << ", "
            << runtime::AdmissionPolicyName(scenario.admission.policy)
            << " admission, domains " << JoinedDomains(scenario) << "\n\n";

  // The loop path drives video streams only; a loop-enabled scenario
  // without any falls back to plain monitoring (with a note below).
  const bool run_loop = !serve && scenario.loop.enabled &&
                        !StreamsOf(scenario, "video").empty();
  config::ScenarioMonitor hosted =
      config::BuildScenarioMonitor(scenario, domains);
  // Serve mode takes its traffic off the wire; nothing to pregenerate.
  TrafficMap traffic;
  if (!serve) {
    traffic =
        common::GenerateScenarioTraffic(scenario, run_loop ? "video" : "");
  }

  // Background snapshotter over the monitor's registry; Stop() below takes
  // one final export so the files reflect the finished run.
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (scenario.observability.ExporterEnabled()) {
    obs::MetricsExporterOptions exporter_options;
    exporter_options.period =
        std::chrono::milliseconds(scenario.observability.export_period_ms);
    exporter_options.jsonl_path = scenario.observability.metrics_jsonl_path;
    exporter_options.prometheus_path =
        scenario.observability.metrics_prometheus_path;
    serve::Monitor* monitor = hosted.monitor.get();
    exporter = std::make_unique<obs::MetricsExporter>(
        exporter_options, [monitor] { return monitor->Metrics(); });
    exporter->Start();
  }

  if (serve) {
    summary.push_back(RunServeScenario(scenario, hosted, domains));
  } else if (run_loop) {
    summary.push_back(RunLoopScenario(scenario, hosted, traffic));
  } else {
    const auto start = std::chrono::steady_clock::now();
    const std::size_t offered = ServeInterleaved(hosted, traffic);
    hosted.monitor->Flush();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
    CheckAccounting(snapshot, offered);
    PrintMonitorReport(snapshot, hosted.monitor->Errors());
    summary.push_back(Summarise(scenario, JoinedDomains(scenario),
                                hosted.streams.size(), snapshot, wall));
    if (scenario.loop.enabled) {
      std::cout << "note: [loop] enabled but the harness only loops video "
                   "streams; monitoring ran without rounds\n";
    }
  }

  if (exporter != nullptr) {
    exporter->Stop();
    std::cout << "metrics exported:";
    if (!scenario.observability.metrics_jsonl_path.empty()) {
      std::cout << " " << scenario.observability.metrics_jsonl_path;
    }
    if (!scenario.observability.metrics_prometheus_path.empty()) {
      std::cout << " " << scenario.observability.metrics_prometheus_path;
    }
    std::cout << "\n";
  }
  if (scenario.observability.trace &&
      !scenario.observability.trace_path.empty()) {
    std::ofstream out(scenario.observability.trace_path);
    common::Check(out.good(), "cannot open trace output " +
                                  scenario.observability.trace_path);
    hosted.monitor->WriteChromeTrace(out);
    std::cout << "trace written: " << scenario.observability.trace_path
              << "\n";
  }
  std::cout << "\n";
}

// ---------------------------------------------------------- record/replay ---

/// Renders a digest the way check_replay_golden.py and docs quote them:
/// 16 lowercase hex digits.
std::string DigestHex(std::uint64_t digest) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(digest));
  return buffer;
}

/// A bare `--record` / `--replay` (flag value "true") falls back to the
/// scenario's [replay] trace_path.
std::string ResolveTracePath(const std::string& flag_value,
                             const config::ScenarioSpec& scenario) {
  if (!flag_value.empty() && flag_value != "true") return flag_value;
  return scenario.replay.trace_path;
}

int RunRecordMode(const std::string& config_path,
                  const serve::DomainRegistry& domains,
                  const std::string& record_flag) {
  const config::ScenarioSpec scenario =
      config::ConfigLoader::LoadFile(config_path);
  const std::string trace_path = ResolveTracePath(record_flag, scenario);
  if (trace_path.empty()) {
    std::cerr << "--record needs a path (or a [replay] trace_path in "
              << config_path << ")\n";
    return 1;
  }
  TrafficMap traffic = common::GenerateScenarioTraffic(scenario);
  const serve::Result<replay::RecordReport> report =
      replay::RecordScenarioTrace(scenario, domains, traffic, trace_path,
                                  scenario.replay.record_eps);
  if (!report.ok()) {
    std::cerr << "record failed: " << report.error().message << "\n";
    return 1;
  }
  std::cout << "recorded '" << scenario.name << "' to " << trace_path
            << ": " << report.value().records << " records, "
            << report.value().examples << " examples, scenario hash "
            << DigestHex(report.value().scenario_hash) << "\n";
  return 0;
}

int RunReplayMode(const std::string& config_path,
                  const serve::DomainRegistry& domains,
                  const common::Flags& flags) {
  const config::ScenarioSpec scenario =
      config::ConfigLoader::LoadFile(config_path);
  const std::string trace_path =
      ResolveTracePath(flags.GetString("replay", ""), scenario);
  if (trace_path.empty()) {
    std::cerr << "--replay needs a path (or a [replay] trace_path in "
              << config_path << ")\n";
    return 1;
  }
  serve::Result<replay::TraceReader> reader =
      replay::TraceReader::Open(trace_path);
  if (!reader.ok()) {
    std::cerr << "replay failed: " << reader.error().message << "\n";
    return 1;
  }

  replay::ReplayOptions options;
  options.speed = flags.GetDouble("speed", scenario.replay.speed);
  const std::string transport =
      flags.GetString("replay-transport", "inproc");
  if (transport != "inproc" && transport != "uds") {
    std::cerr << "--replay-transport must be inproc or uds\n";
    return 1;
  }
  options.over_wire = transport == "uds";

  const replay::TraceInfo& info = reader.value().info();
  std::cout << "=== replay '" << info.scenario << "' from " << trace_path
            << " (" << info.records << " records, " << info.examples
            << " examples, " << info.streams.size() << " streams) at speed "
            << common::FormatDouble(options.speed, 2) << ", " << transport
            << "\n";

  const double soak_seconds = flags.GetDouble("soak-seconds", 0.0);
  const auto soak_start = std::chrono::steady_clock::now();
  std::size_t iterations = 0;
  std::optional<std::uint64_t> first_digest;
  replay::ReplayReport last;
  do {
    const serve::Result<replay::ReplayReport> replayed =
        replay::ReplayTrace(scenario, domains, reader.value(), options);
    if (!replayed.ok()) {
      std::cerr << "replay failed: " << replayed.error().message << "\n";
      return 1;
    }
    last = replayed.value();
    ++iterations;
    if (!last.accounted) {
      std::cerr << "replay accounting does not reconcile: offered "
                << last.offered << " != scored " << last.scored << " + shed "
                << last.shed << " + dropped " << last.dropped
                << " + errored " << last.errored << "\n";
      return 1;
    }
    if (first_digest.has_value() && last.flags.digest != *first_digest) {
      std::cerr << "replay digest diverged on iteration " << iterations
                << ": " << DigestHex(last.flags.digest) << " != "
                << DigestHex(*first_digest)
                << " — replay is not deterministic\n";
      return 1;
    }
    first_digest = last.flags.digest;
  } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         soak_start)
               .count() < soak_seconds);

  std::cout << "replayed " << iterations << "x: offered " << last.offered
            << " == scored " << last.scored << " + shed " << last.shed
            << " + dropped " << last.dropped << " + errored " << last.errored
            << ", " << last.flags.lines.size() << " flags, wall "
            << common::FormatDouble(last.elapsed_seconds, 3) << "s\n";
  std::cout << "flag digest: " << DigestHex(last.flags.digest) << "\n";

  if (const std::string out_path = flags.GetString("flags-out", "");
      !out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    common::Check(out.good(), "cannot open flags output " + out_path);
    for (const std::string& line : last.flags.lines) out << line;
    std::cout << "flags written: " << out_path << "\n";
  }
  return 0;
}

void Describe(const serve::DomainRegistry& domains) {
  std::cout << "registered domains and assertions (use in a "
               "[suite <domain>] assertions list;\nparameters go in an "
               "[assertion <name>] section):\n\n";
  for (const std::string& name : domains.Names()) {
    std::cout << "--- " << name << " ---\n";
    domains.At(name).describe(std::cout);
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = common::Flags::Parse(argc, argv);
  flags.CheckAllowed({"describe", "trace", "export-metrics", "serve",
                      "record", "replay", "speed", "flags-out",
                      "replay-transport", "soak-seconds"});

  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  if (flags.GetBool("describe", false)) {
    Describe(domains);
    return 0;
  }

  // Record/replay modes take exactly one scenario config positionally.
  const std::string record_flag = flags.GetString("record", "");
  const std::string replay_flag = flags.GetString("replay", "");
  if (!record_flag.empty() || !replay_flag.empty()) {
    if (!record_flag.empty() && !replay_flag.empty()) {
      std::cerr << "--record and --replay are mutually exclusive\n";
      return 1;
    }
    if (flags.Positional().size() != 1) {
      std::cerr << "--record/--replay take exactly one scenario config\n";
      return 1;
    }
    try {
      return record_flag.empty()
                 ? RunReplayMode(flags.Positional().front(), domains, flags)
                 : RunRecordMode(flags.Positional().front(), domains,
                                 record_flag);
    } catch (const config::SpecError& error) {
      std::cerr << "config error: " << error.what() << "\n";
      return 1;
    }
  }

  std::vector<std::string> paths = flags.Positional();
  // `--serve CONF` (valued) and `CONF --serve` (bare boolean + positional)
  // both work; the flag parser decides which form it saw.
  const std::string serve_value = flags.GetString("serve", "");
  const bool serve = !serve_value.empty();
  if (serve && serve_value != "true") paths.push_back(serve_value);
  if (paths.empty()) {
    // Default: the repo's shipped scenarios, found from either the repo
    // root or a build/ subdirectory.
    for (const char* candidate : {"configs", "../configs"}) {
      if (std::filesystem::is_directory(candidate)) {
        for (const auto& entry :
             std::filesystem::directory_iterator(candidate)) {
          if (entry.path().extension() == ".conf") {
            paths.push_back(entry.path().string());
          }
        }
        break;
      }
    }
  }
  if (paths.empty()) {
    std::cerr << "no scenario files: pass paths, or run next to the "
                 "repo's configs/ directory\n";
    return 1;
  }
  std::sort(paths.begin(), paths.end());

  const std::string trace_dir = flags.GetString("trace", "");
  const std::string export_dir = flags.GetString("export-metrics", "");
  if (serve && paths.size() != 1) {
    std::cerr << "--serve hosts exactly one scenario; pass one file\n";
    return 1;
  }
  for (const std::string& dir : {trace_dir, export_dir}) {
    if (dir.empty()) continue;
    std::error_code make_error;
    std::filesystem::create_directories(dir, make_error);
    if (make_error) {
      std::cerr << "cannot create " << dir << ": " << make_error.message()
                << "\n";
      return 1;
    }
  }

  std::vector<SummaryRow> summary;
  try {
    for (const std::string& path : paths) {
      RunScenario(path, domains, trace_dir, export_dir, serve, summary);
    }
  } catch (const config::SpecError& error) {
    std::cerr << "config error: " << error.what() << "\n";
    return 1;
  }

  std::cout << "=== summary (" << summary.size() << " scenarios, one "
            << "monitor each) ===\n";
  common::TextTable table({"Scenario", "Domains", "Streams", "Examples",
                           "Events", "Shed", "Dropped", "p99 ms", "Wall s"});
  for (const SummaryRow& row : summary) {
    table.AddRow({row.scenario, row.domains, std::to_string(row.streams),
                  std::to_string(row.examples), std::to_string(row.events),
                  std::to_string(row.shed), std::to_string(row.dropped),
                  common::FormatDouble(row.p99_ms, 3),
                  common::FormatDouble(row.wall_seconds, 2)});
  }
  table.Print(std::cout);
  return 0;
}
