// The video_loop workload: the improvement loop in process, on a 1-shard
// serve::Monitor, following scenario_harness's loop path. Two night-street
// camera streams are served in waves through the hot-swapped detector, at
// a fixed camera rate; after each wave a BAL round (human plus consistency
// weak labels) selects flagged frames, the retrain worker fine-tunes, and
// the next wave picks up the published model. It is the only workload that
// runs the loop, bandit and nn layers.
//
// One loop is a fixed amount of work; a run repeats it with a fresh
// monitor and loop until --seconds are spent and aggregates over the
// repetitions. Checks per repetition: the accounting identity, one
// published model per round, a detector that improved on the last wave's
// frames, and the served flag digest against a reference evaluator pass
// over the frames the detector actually produced.
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "config/spec.hpp"
#include "eval/detection_metrics.hpp"
#include "helpers.hpp"
#include "loop/improvement_loop.hpp"
#include "loop/oracle.hpp"
#include "serve/domains.hpp"
#include "suite_tools.hpp"
#include "video/assertions.hpp"
#include "video/detector.hpp"
#include "video/pipeline.hpp"
#include "video/world.hpp"

namespace wirebench {
namespace {

using namespace omg;

constexpr std::size_t kStreams = 2;
constexpr std::size_t kBatch = 25;
constexpr std::size_t kRounds = 6;
constexpr std::size_t kWaveFrames = 100;
/// Frames per stream served before the first wave, so the road reaches
/// its steady traffic density before the first wave's flag rate counts.
constexpr std::size_t kWarmupFrames = 75;
constexpr std::size_t kFramesPerStream = kWarmupFrames + kRounds * kWaveFrames;
/// Rate the cameras deliver batches at, examples/s over both streams:
/// about a quarter of what the single shard scores, so a wave's flag
/// latency measures the system rather than a queue that grows whenever
/// the host slows the shard.
constexpr double kCameraEps = 10000.0;
/// Throwaway setups timed after every repetition (setup_s aggregates
/// them with the repetitions' own setups).
constexpr std::size_t kSetupsPerRep = 4;

/// The scenario of repetition `rep`: every repetition of a run serves
/// other streams (seeded from --seed and `rep`), so a run's figures
/// aggregate many traffic draws instead of hanging on one.
std::string ScenarioText(std::uint64_t seed, std::size_t rep) {
  const std::uint64_t base = (seed * 1'000'003 + rep) * 16;
  std::string text =
      "[scenario]\nname = \"video_loop\"\n\n"
      "[runtime]\nshards = 1\nwindow = 48\nsettle_lag = 8\n"
      "queue_capacity = 512\n\n[admission]\npolicy = block\n\n"
      "[suite video]\nassertions = [video.multibox, video.consistency]\n\n"
      "[loop]\nenabled = true\nstrategy = bal\noracle = mixed\nbudget = 30\n"
      "rounds = " + std::to_string(kRounds) +
      "\nweak_weight = 0.25\nretrain_epochs = 20\nstore_capacity = 512\n"
      "seed = " + std::to_string(base + 15) + "\n";
  for (std::size_t s = 0; s < kStreams; ++s) {
    text += "\n[stream cam-" + std::to_string(s) +
            "]\ndomain = video\nexamples = " +
            std::to_string(kFramesPerStream) +
            "\nbatch = " + std::to_string(kBatch) +
            "\nseed = " + std::to_string(base + s + 1) + "\n";
  }
  return text;
}

/// Traffic retained for one repetition: what the oracles resolve candidate
/// keys against, and what the reference pass replays.
struct Retained {
  std::vector<std::unique_ptr<video::NightStreetWorld>> worlds;
  std::vector<std::vector<video::Frame>> frames;
  std::vector<std::vector<video::VideoExample>> deployed;
  /// Monitor stream id -> position in the vectors above.
  std::map<runtime::StreamId, std::size_t> index;
};

std::shared_ptr<loop::LabelOracle> MakeOracle(Retained& retained,
                                              const config::LoopSpec& spec) {
  auto human = std::make_shared<loop::GroundTruthOracle>(
      [&retained](const loop::CandidateKey& key) {
        return video::NightStreetWorld::LabelFrame(
            retained.frames.at(retained.index.at(key.stream_id))
                .at(key.example_index));
      });
  // The correction suite scores with the deployed suite's parameters (the
  // factory defaults here), as scenario_harness does.
  auto correction =
      std::make_shared<video::VideoSuite>(video::BuildVideoSuite({}));
  auto weak = std::make_shared<loop::WeakLabelOracle>(
      [&retained, correction](std::span<const loop::CandidateKey> keys) {
        nn::Dataset rows;
        for (const auto& [stream_id, local] : retained.index) {
          std::set<std::size_t> chosen;
          for (const loop::CandidateKey& key : keys) {
            if (key.stream_id == stream_id) chosen.insert(key.example_index);
          }
          if (chosen.empty()) continue;
          correction->consistency->Invalidate();
          rows.Append(video::MakeWeakLabelDataset(
              *correction, retained.frames[local], retained.deployed[local],
              chosen));
        }
        return rows;
      },
      spec.weak_weight);
  return std::make_shared<loop::MixedOracle>(human, weak);
}

/// The system under test: the scenario's Monitor plus the loop.
struct LoopSut {
  config::ScenarioMonitor hosted;
  std::unique_ptr<loop::ImprovementLoop> improvement;
};

/// Monitor plus ImprovementLoop construction — the span setup_s times.
LoopSut BuildLoopSut(const config::ScenarioSpec& scenario,
                     const serve::DomainRegistry& domains,
                     std::shared_ptr<loop::LabelOracle> oracle,
                     const nn::Mlp& initial, const nn::Dataset& pretrain) {
  LoopSut sut;
  sut.hosted = config::BuildScenarioMonitor(scenario, domains);
  loop::ImprovementLoopConfig config = config::ConfigLoader::MakeLoopConfig(
      scenario.loop, sut.hosted.assertion_names.at("video"),
      video::DetectorConfig{}.finetune_sgd);
  config.retrain.replay_weight = 1.0;
  sut.improvement = std::make_unique<loop::ImprovementLoop>(
      config, config::ConfigLoader::MakeStrategy(scenario.loop.strategy),
      std::move(oracle), initial, pretrain);
  return sut;
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

int RunLoopWorkload(const RunOptions& options, SpanRecorder& spans,
                    RunResult& result) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  const auto load = [&options](std::size_t rep) {
    return config::ConfigLoader::Load(config::SpecDocument::Parse(
        ScenarioText(options.seed, rep), "wirebench"));
  };
  const config::ScenarioSpec scenario = load(0);
  const config::SuiteSpec& suite = *scenario.SuiteFor("video");
  const std::size_t window = scenario.runtime.window;
  const std::size_t settle_lag = scenario.runtime.settle_lag;
  result.connections = 0;

  // The pretrained model is an input: built once, before any timing.
  const std::uint64_t model_seed = scenario.streams.front().seed;
  video::NightStreetWorld seed_world(video::WorldConfig{}, model_seed);
  const nn::Dataset pretrain = seed_world.PretrainingSet(500, 700);
  video::SsdDetector detector(video::DetectorConfig{},
                              seed_world.config().feature_dim, model_seed);
  detector.Pretrain(pretrain);
  const nn::Mlp initial = detector.model();
  const video::SsdDetector control = detector;

  const std::vector<std::string> names = QualifiedNames<video::VideoExample>(
      suite);
  auto sink = std::make_shared<FlagSink>(
      std::vector<std::size_t>(kStreams,
                               kFramesPerStream * names.size() + 4096),
      names);
  RssPeak rss;

  std::vector<double> setup_seconds;
  std::vector<double> rss_mb;  // peak RSS per repetition
  std::vector<double> capacity;
  std::vector<double> cpu_per_ex;
  std::vector<double> rep_steal_s;  // host steal during each repetition
  std::vector<double> latencies_ms;
  std::vector<double> p50s;
  std::vector<double> p95s;
  std::vector<double> round_ms;
  std::vector<double> select_ms;
  std::vector<double> retrain_ms;
  std::vector<double> swap_us;
  std::vector<double> wave_observe_ms;
  std::vector<double> loop_wall_s;
  std::int64_t detect_ns = 0;
  std::size_t detected = 0;
  std::size_t labels_human = 0;
  std::size_t labels_weak = 0;
  std::size_t observed_batches = 0;
  std::int64_t voluntary_switches = 0;
  double cpu_sys = 0.0;
  double cpu_all = 0.0;
  double untraced_cpu = 0.0;
  double traced_cpu = 0.0;
  std::size_t untraced_reps = 0;
  std::size_t traced_reps = 0;
  runtime::MetricsSnapshot last_metrics;
  Retained last;

  const std::int64_t run_start = NowNs();
  for (std::size_t rep = 0;
       rep == 0 || NowNs() - run_start < static_cast<std::int64_t>(
                                              options.seconds * 1e9);
       ++rep) {
    // Traced runs trace every other repetition, so the untraced ones give
    // the cost of the same work without tracing.
    const bool traced = options.trace && rep % 2 == 1;
    const config::ScenarioSpec rep_scenario = load(rep);
    Retained retained;
    for (std::size_t s = 0; s < kStreams; ++s) {
      retained.worlds.push_back(std::make_unique<video::NightStreetWorld>(
          video::WorldConfig{}, rep_scenario.streams[s].seed));
      retained.frames.emplace_back();
      retained.deployed.emplace_back();
    }
    std::shared_ptr<loop::LabelOracle> oracle =
        MakeOracle(retained, rep_scenario.loop);
    const std::int64_t s0 = NowNs();
    LoopSut sut =
        BuildLoopSut(rep_scenario, domains, oracle, initial, pretrain);
    setup_seconds.push_back(static_cast<double>(NowNs() - s0) / 1e9);
    serve::Monitor& monitor = *sut.hosted.monitor;
    loop::ImprovementLoop& improvement = *sut.improvement;
    std::vector<runtime::StreamId> ids;
    for (const config::BoundStream& stream : sut.hosted.streams) {
      retained.index.emplace(stream.handle.id(), ids.size());
      ids.push_back(stream.handle.id());
    }
    sink->BindStreams(ids);
    serve::EventFilter video_only;
    video_only.domain = "video";
    serve::Subscription loop_subscription =
        monitor.Subscribe(video_only, improvement.sink());
    serve::Subscription flag_subscription = monitor.Subscribe({}, sink);
    detector.SetModel(initial);

    // When each batch was due from its camera, per stream.
    std::vector<std::vector<std::int64_t>> due_ns(kStreams);
    std::uint64_t served_version = improvement.registry().Current().version;
    std::size_t offered = 0;
    const ProcCounters cpu0 = ProcCounters::Now();
    const double steal0 = HostStealSeconds();
    const std::int64_t t0 = NowNs();
    // Wave 0 is the warm-up; a round follows every later wave.
    for (std::size_t wave = 0; wave <= kRounds; ++wave) {
      const std::size_t wave_frames = wave == 0 ? kWarmupFrames : kWaveFrames;
      const std::int64_t w0 = NowNs();
      const loop::ModelHandle handle = improvement.registry().Current();
      if (handle.version != served_version) {
        detector.SetModel(*handle.model);
        served_version = handle.version;
        const std::int64_t w1 = NowNs();
        swap_us.push_back(static_cast<double>(w1 - w0) / 1e3);
        if (traced) {
          spans.Record({"loop.hot_swap", spans.NextId(), 0, wave, w0, w1, 4});
        }
      }
      const std::uint64_t wave_id = spans.NextId();
      std::int64_t wave_observe_ns = 0;
      std::size_t wave_batches = 0;
      const std::int64_t wave_start = NowNs();
      for (std::size_t s = 0; s < kStreams; ++s) {
        const config::BoundStream& stream = sut.hosted.streams[s];
        std::vector<serve::AnyExample> batch;
        std::int64_t d0 = NowNs();
        for (const video::Frame& frame :
             retained.worlds[s]->GenerateFrames(wave_frames)) {
          video::VideoExample example{frame.index, frame.timestamp,
                                      detector.Detect(frame)};
          retained.frames[s].push_back(frame);
          retained.deployed[s].push_back(example);
          batch.push_back(serve::AnyExample::Make(std::move(example)));
          if (batch.size() == kBatch) {
            const std::int64_t d1 = NowNs();
            detect_ns += d1 - d0;
            // Open loop: the batch is due at the camera's pace and timed
            // from then, however late the detector finishes it.
            const std::int64_t due =
                wave_start + static_cast<std::int64_t>(
                                 static_cast<double>(wave_batches++ * kBatch) *
                                 1e9 / kCameraEps);
            if (NowNs() < due) SleepUntilNs(due);
            due_ns[s].push_back(due);
            const std::int64_t o0 = NowNs();
            result.Check(monitor.ObserveBatch(stream.handle, std::move(batch))
                             .ok(),
                         "loop wave observe failed");
            const std::int64_t o1 = NowNs();
            wave_observe_ns += o1 - o0;
            if (traced) {
              spans.Record({"loop.detect", spans.NextId(), wave_id, wave, d0,
                            d1, 4});
              spans.Record({"loop.observe", spans.NextId(), wave_id, wave,
                            o0, o1, 4});
            }
            offered += kBatch;
            ++observed_batches;
            batch.clear();
            d0 = NowNs();
          }
        }
      }
      const std::int64_t flush0 = NowNs();
      monitor.Flush();
      const std::int64_t wave_end = NowNs();
      detected += kStreams * wave_frames;
      wave_observe_ms.push_back(Ms(wave_observe_ns + wave_end - flush0));
      if (traced) {
        spans.Record({"loop.wave", wave_id, 0, wave, wave_start, wave_end, 4});
      }
      rss.Sample();
      if (wave == 0) continue;

      const std::uint64_t version_before =
          improvement.registry().Current().version;
      const std::int64_t r0 = NowNs();
      const std::optional<loop::RoundStats> stats = improvement.RunRound();
      const std::int64_t r1 = NowNs();
      improvement.WaitForRetrains();
      const std::int64_t r2 = NowNs();
      result.Check(stats.has_value(), "a loop round selected nothing");
      result.Check(improvement.registry().Current().version ==
                       version_before + 1,
                   "a loop round did not publish exactly one model");
      if (stats) {
        labels_human += stats->human_labels;
        labels_weak += stats->weak_labels;
      }
      select_ms.push_back(Ms(r1 - r0));
      retrain_ms.push_back(Ms(r2 - r1));
      round_ms.push_back(Ms(r2 - r0));
      if (traced) {
        const std::uint64_t round_id = spans.NextId();
        spans.Record({"loop.round", round_id, 0, wave, r0, r2, 5});
        spans.Record({"loop.select_label", spans.NextId(), round_id, wave, r0,
                      r1, 5});
        spans.Record({"loop.retrain", spans.NextId(), round_id, wave, r1, r2,
                      5});
      }
    }
    const std::int64_t t1 = NowNs();
    const ProcCounters cpu1 = ProcCounters::Now();
    rep_steal_s.push_back(HostStealSeconds() - steal0);
    rss_mb.push_back(rss.TakeWindowMb());

    const runtime::MetricsSnapshot snapshot = monitor.Metrics();
    result.Check(snapshot.examples_seen + snapshot.TotalShedExamples() +
                         snapshot.TotalDroppedExamples() +
                         snapshot.TotalErroredExamples() ==
                     offered,
                 "loop accounting identity does not reconcile");
    result.attempted += offered;
    result.failed += offered - snapshot.examples_seen;

    // Flag latency: ObserveBatch of the batch that settles the flag ->
    // the sink's Consume; percentiles per repetition.
    std::vector<double> rep_ms;
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t i = 0; i < sink->size(s); ++i) {
        const FlagSink::Record& record = sink->at(s, i);
        const std::uint64_t b =
            SettlingFrame(0, record.example, settle_lag, kBatch, 1);
        if (b < due_ns[s].size()) {
          rep_ms.push_back(Ms(record.consume_ns - due_ns[s][b]));
        }
      }
    }
    std::sort(rep_ms.begin(), rep_ms.end());
    const std::optional<Quantile> rep_p50 = QuantileOf(rep_ms, 0.50);
    const std::optional<Quantile> rep_p95 = QuantileOf(rep_ms, 0.95);
    result.Check(rep_p50 && rep_p95, "too few loop flags for flag_p95_ms");
    p50s.push_back(rep_p50 ? rep_p50->value : 0.0);
    p95s.push_back(rep_p95 ? rep_p95->value : 0.0);
    latencies_ms.insert(latencies_ms.end(), rep_ms.begin(), rep_ms.end());
    std::vector<FlagRecord> served = sink->Flags();
    flag_subscription.Unsubscribe();
    loop_subscription.Unsubscribe();
    // The loop must have improved the model: on the last wave's frames,
    // the model served there (trained on the earlier waves' labels) must
    // detect with a higher mAP than the pretrained model.
    std::vector<FlagRecord> expected;
    std::vector<eval::FrameEval> improved;
    std::vector<eval::FrameEval> pretrained;
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::vector<FlagRecord> flags = ReferencePass(
          suite, window, settle_lag, retained.deployed[s], kBatch,
          retained.deployed[s].size() / kBatch,
          static_cast<std::uint32_t>(s));
      expected.insert(expected.end(), flags.begin(), flags.end());
      for (std::size_t i = kFramesPerStream - kWaveFrames;
           i < kFramesPerStream; ++i) {
        const video::Frame& frame = retained.frames[s][i];
        improved.push_back({detector.DetectForEval(frame), frame.truths});
        pretrained.push_back({control.DetectForEval(frame), frame.truths});
      }
    }
    const double improved_map = eval::MeanAveragePrecision(improved);
    const double pretrained_map = eval::MeanAveragePrecision(pretrained);
    result.Check(improved_map > pretrained_map,
                 "the loop did not improve the detector: last-wave mAP " +
                     std::to_string(improved_map) + " vs pretrained " +
                     std::to_string(pretrained_map));
    result.Check(served.size() == expected.size() &&
                     CanonicalDigest(std::move(served)) ==
                         CanonicalDigest(std::move(expected)),
                 "loop flag digest differs from the reference evaluator");

    const double wall_s = static_cast<double>(t1 - t0) / 1e9;
    const double cpu_s = cpu1.user_s + cpu1.sys_s - cpu0.user_s - cpu0.sys_s;
    loop_wall_s.push_back(wall_s);
    capacity.push_back(static_cast<double>(offered) / wall_s);
    cpu_per_ex.push_back(cpu_s * 1e6 / static_cast<double>(offered));
    cpu_sys += cpu1.sys_s - cpu0.sys_s;
    cpu_all += cpu_s;
    voluntary_switches += cpu1.voluntary_switches - cpu0.voluntary_switches;
    (traced ? traced_cpu : untraced_cpu) += cpu_per_ex.back();
    ++(traced ? traced_reps : untraced_reps);
    last_metrics = snapshot;
    last = std::move(retained);

    for (std::size_t k = 0; k < kSetupsPerRep; ++k) {
      Retained unused;
      std::shared_ptr<loop::LabelOracle> unused_oracle =
          MakeOracle(unused, scenario.loop);
      const std::int64_t t0 = NowNs();
      LoopSut throwaway = BuildLoopSut(scenario, domains, unused_oracle,
                                       initial, pretrain);
      setup_seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  // Each figure comes from the repetitions the host disturbed least.
  const auto figure = [&](const std::vector<double>& values, Better better) {
    return GoodQuartile(LeastStolen(values, rep_steal_s), better);
  };
  const double cpu_us_per_ex = figure(cpu_per_ex, Better::kLower);
  result.end_to_end = {
      {"flag_p50_ms", {figure(p50s, Better::kLower), "ms"}},
      {"flag_p95_ms", {figure(p95s, Better::kLower), "ms"}},
      {"cpu_us_per_ex", {cpu_us_per_ex, "us"}},
      {"capacity_eps", {figure(capacity, Better::kHigher), "ex/s"}},
      {"setup_s", {GoodQuartile(setup_seconds, Better::kLower), "s"}},
      {"sut_peak_rss_mb", {GoodQuartile(rss_mb, Better::kLower), "MB"}},
  };
  if (!options.trace) return 0;

  // ---- per-layer metrics (traced run) ------------------------------------
  auto& layer = result.per_layer;
  layer["loop.round_p50_ms"] = {Median(round_ms), "ms"};
  layer["loop.select_label_ms"] = {Median(select_ms), "ms"};
  layer["loop.retrain_ms"] = {Median(retrain_ms), "ms"};
  layer["loop.hot_swap_us"] = {Median(swap_us), "us"};
  layer["loop.wall_s"] = {Median(loop_wall_s), "s"};
  layer["loop.detect_us_per_frame"] = {
      static_cast<double>(detect_ns) / 1e3 / static_cast<double>(detected),
      "us"};
  layer["loop.wave_observe_ms"] = {Median(wave_observe_ms), "ms"};
  const double reps = static_cast<double>(untraced_reps + traced_reps);
  layer["loop.labels_human"] = {static_cast<double>(labels_human) / reps,
                                "count"};
  layer["loop.labels_weak"] = {static_cast<double>(labels_weak) / reps,
                               "count"};

  // Scoring and serving, standalone over the last repetition's frames as
  // the detector produced them.
  const double score_ns_per_ex = ScoreLayers(suite, window, settle_lag,
                                             last.deployed, kBatch, spans,
                                             layer);
  std::vector<std::vector<std::vector<serve::AnyExample>>> batches(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (std::size_t begin = 0; begin < last.deployed[s].size();
         begin += kBatch) {
      std::vector<serve::AnyExample> batch;
      for (std::size_t i = begin; i < begin + kBatch; ++i) {
        batch.push_back(serve::AnyExample::Make(last.deployed[s][i]));
      }
      batches[s].push_back(std::move(batch));
    }
  }
  ServeLayers(domains, suite, window, settle_lag, std::move(batches),
              score_ns_per_ex, spans, layer);
  RuntimeLayers(last_metrics, layer);
  layer["proc.cpu_sys_frac"] = {cpu_sys / cpu_all, "frac"};
  double steal_s = 0.0;
  double wall_s = 0.0;
  for (std::size_t r = 0; r < rep_steal_s.size(); ++r) {
    steal_s += rep_steal_s[r];
    wall_s += loop_wall_s[r];
  }
  layer["host.steal_frac"] = {
      steal_s / (wall_s * static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN))),
      "frac"};
  layer["proc.vcsw_per_frame"] = {static_cast<double>(voluntary_switches) /
                                      static_cast<double>(observed_batches),
                                  "count"};
  const std::optional<Quantile> p99 = QuantileOf(latencies_ms, 0.99);
  layer["sink.flag_p99_ms"] = {p99 ? p99->value : 0.0, "ms"};
  layer["sink.flags_per_ex"] = {
      static_cast<double>(latencies_ms.size()) /
          static_cast<double>(result.attempted),
      "count"};

  // Attribution: detection, scoring, serving and the rounds per example,
  // against the loop's measured CPU per example.
  const double round_ns_per_ex =
      Median(round_ms) * 1e6 * kRounds /
      static_cast<double>(kStreams * kFramesPerStream);
  const double named_ns = static_cast<double>(detect_ns) /
                              static_cast<double>(detected) +
                          score_ns_per_ex +
                          layer["serve.overhead_ns_per_ex"].value +
                          round_ns_per_ex;
  layer["attrib.unattributed_frac"] = {
      1.0 - named_ns / (cpu_us_per_ex * 1e3),
      "frac"};
  if (traced_reps > 0 && untraced_reps > 0) {
    layer["bench.trace_overhead_frac"] = {
        (traced_cpu / static_cast<double>(traced_reps)) /
                (untraced_cpu / static_cast<double>(untraced_reps)) -
            1.0,
        "frac"};
  }
  return 0;
}

}  // namespace wirebench
