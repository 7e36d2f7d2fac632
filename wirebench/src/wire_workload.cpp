// The three wire workloads: eight streams of one domain driven over a
// Unix-domain socket into a 2-shard, 1-handler IngestServer by a single
// load-generator thread on two connections.
//
// Each run: pregenerate a seeded traffic pool per stream and pre-encode it
// into DATA payloads (untimed); set the system up; then alternate paced
// open-loop windows (flag latency, CPU per example) with flat-out slices
// (capacity), timing a throwaway setup after each round; finally check the
// STATS accounting identity and that the sink's canonical flag digest
// equals a reference IncrementalWindowEvaluator pass over exactly the
// frames that were sent. Streams cycle through their pool, so a run of any
// length sends a known, reproducible example sequence. See README.md.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/example_gen.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "config/spec.hpp"
#include "helpers.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "runtime/event_sink.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"
#include "suite_tools.hpp"

namespace wirebench {
namespace {

using namespace omg;

constexpr std::size_t kStreams = 8;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueueCapacity = 512;
/// Throwaway setups timed after every round (setup_s aggregates them with
/// the measured system's own setup).
constexpr std::size_t kSetupsPerRound = 1;
constexpr double kWarmupSeconds = 0.5;
/// One paced window plus one flat-out slice. Short rounds keep the host's
/// short scheduling stalls inside a few windows.
constexpr double kRoundSeconds = 0.2;
/// Share of each round spent paced; the rest is flat-out.
constexpr double kPacedShare = 0.55;
/// Reference passes run on this many threads, one stream per task.
constexpr std::size_t kReferenceThreads = 4;

struct WireSpec {
  std::string name;
  std::string domain;
  std::size_t frame_examples;
  /// Offered rate of the paced phase, examples/s (about a quarter of
  /// flat-out capacity on a 4-core host).
  double paced_eps;
  /// Upper bound on flat-out capacity: sizes the sink's preallocated
  /// storage and caps the flat-out phase.
  double max_flat_eps;
  /// Examples per stream in the cycled traffic pool.
  std::size_t pool_examples;
  std::size_t window;
  std::size_t settle_lag;
  /// [suite]/[assertion] sections of the scenario.
  std::string suite;
};

const std::vector<WireSpec>& Specs() {
  static const std::vector<WireSpec> specs = {
      {"video_consistency_wire", "video", 64, 20000.0, 300000.0, 1024, 48, 8,
       "[suite video]\nassertions = [video.multibox, video.consistency]\n\n"
       "[assertion video.multibox]\niou = 0.30\n\n"
       "[assertion video.consistency]\ntemporal_threshold = 1.0\n"
       "tracker_iou = 0.2\ntracker_max_misses = 2\n"},
      {"av_wire", "av", 64, 100000.0, 1200000.0, 2048, 32, 4,
       "[suite av]\nassertions = [av.agree, av.multibox]\n\n"
       "[assertion av.agree]\niou = 0.20\n"},
      {"ecg_smallframe_wire", "ecg", 8, 60000.0, 800000.0, 2048, 80, 8,
       "[suite ecg]\nassertions = [ecg.oscillation]\n\n"
       "[assertion ecg.oscillation]\ntemporal_threshold = 30.0\n"},
  };
  return specs;
}

std::string ScenarioText(const WireSpec& spec, std::uint64_t seed) {
  std::string text = "[scenario]\nname = \"" + spec.name +
                     "\"\n\n[runtime]\nshards = " + std::to_string(kShards) +
                     "\nwindow = " + std::to_string(spec.window) +
                     "\nsettle_lag = " + std::to_string(spec.settle_lag) +
                     "\nqueue_capacity = " + std::to_string(kQueueCapacity) +
                     "\n\n[admission]\npolicy = block\n\n" + spec.suite;
  for (std::size_t s = 0; s < kStreams; ++s) {
    text += "\n[stream " + spec.domain + "-" + std::to_string(s) +
            "]\ndomain = " + spec.domain +
            "\nexamples = " + std::to_string(spec.pool_examples) +
            "\nbatch = " + std::to_string(spec.frame_examples) +
            "\nseed = " + std::to_string(seed * 1000 + s + 1) + "\n";
  }
  return text;
}

/// The system under test plus the generator's two connections.
struct Sut {
  config::ScenarioMonitor hosted;
  std::unique_ptr<net::IngestServer> server;
  std::vector<net::ClientConnection> connections;
  std::vector<std::uint64_t> bindings;  ///< per stream

  ~Sut() {
    for (net::ClientConnection& connection : connections) {
      static_cast<void>(connection.Goodbye());
    }
    if (server != nullptr) server->Stop();
  }

  net::ClientConnection& ConnectionOf(std::size_t stream) {
    return connections[stream % connections.size()];
  }
};

/// Config, Monitor build, streams registered, server Start, every HELLO
/// and BIND — the span setup_s times. Throws on any failure.
std::unique_ptr<Sut> BuildSut(const std::string& scenario_text,
                              const serve::DomainRegistry& domains,
                              const std::string& uds_path) {
  const config::ScenarioSpec scenario = config::ConfigLoader::Load(
      config::SpecDocument::Parse(scenario_text, "wirebench"));
  auto sut = std::make_unique<Sut>();
  sut->hosted = config::BuildScenarioMonitor(scenario, domains);
  net::IngestServerOptions options;
  options.uds_path = uds_path;
  options.handler_threads = 1;
  sut->server = std::make_unique<net::IngestServer>(
      options, *sut->hosted.monitor, domains);
  for (const config::BoundStream& stream : sut->hosted.streams) {
    sut->server->ExposeStream(stream.handle);
  }
  const serve::Result<net::ServerEndpoints> endpoints = sut->server->Start();
  common::Check(endpoints.ok(), "server start failed");
  for (std::size_t c = 0; c < kConnections; ++c) {
    serve::Result<net::ClientConnection> connection =
        net::ClientConnection::ConnectUds(uds_path);
    common::Check(connection.ok(), "connect failed");
    common::Check(connection.value().Hello("wirebench", "").ok(),
                  "HELLO failed");
    sut->connections.push_back(std::move(connection.value()));
  }
  for (std::size_t s = 0; s < sut->hosted.streams.size(); ++s) {
    const config::BoundStream& stream = sut->hosted.streams[s];
    serve::Result<std::uint64_t> binding = sut->ConnectionOf(s).BindStream(
        stream.spec.domain, stream.spec.name);
    common::Check(binding.ok(), "BIND failed");
    sut->bindings.push_back(binding.value());
  }
  return sut;
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::size_t RoundDownToStreams(double frames) {
  return std::max<std::size_t>(
      kStreams,
      static_cast<std::size_t>(frames) / kStreams * kStreams);
}

template <typename T>
int RunTyped(const WireSpec& spec, const RunOptions& options,
             SpanRecorder& spans, RunResult& result) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  const net::PayloadCodec& codec = *domains.CodecFor(spec.domain);
  const std::string scenario_text = ScenarioText(spec, options.seed);
  const config::ScenarioSpec scenario = config::ConfigLoader::Load(
      config::SpecDocument::Parse(scenario_text, "wirebench"));
  const config::SuiteSpec& suite = *scenario.SuiteFor(spec.domain);
  // Reading a spec's parameters records them in the spec (SpecSection
  // tracks consumed keys), so each parallel reference pass gets its own
  // copy, made here on one thread.
  const std::vector<config::SuiteSpec> stream_suites(kStreams, suite);
  const std::size_t F = spec.frame_examples;
  const std::size_t pool_frames = spec.pool_examples / F;
  result.connections = kConnections;

  // ---- inputs, generated and encoded before anything is timed ----------
  common::TrafficMap traffic = common::GenerateScenarioTraffic(scenario);
  std::vector<std::vector<T>> typed(kStreams);
  std::vector<std::vector<std::vector<std::uint8_t>>> payloads(kStreams);
  std::int64_t encode_ns = 0;
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::vector<serve::AnyExample>& pool =
        traffic.at(scenario.streams[s].name);
    common::Check(pool.size() == spec.pool_examples, "short traffic pool");
    for (const serve::AnyExample& example : pool) {
      typed[s].push_back(example.Get<T>());
    }
    for (std::size_t f = 0; f < pool_frames; ++f) {
      const std::int64_t t0 = NowNs();
      payloads[s].push_back(net::EncodeBatch(
          codec, std::span(pool).subspan(f * F, F)));
      encode_ns += NowNs() - t0;
    }
  }
  traffic.clear();

  // One reference pass over each stream's pool sizes the sink's storage
  // from the pool's flag density.
  std::vector<std::size_t> pool_flags(kStreams);
  ParallelFor(kStreams, kReferenceThreads, [&](std::size_t s) {
    pool_flags[s] =
        ReferencePass(stream_suites[s], spec.window, spec.settle_lag,
                      typed[s], F, pool_frames, static_cast<std::uint32_t>(s))
            .size();
  });

  // ---- run geometry -----------------------------------------------------
  // The run alternates paced windows with flat-out slices, so both phases
  // sample the whole run and a stall on the host moves one window's
  // figures rather than the run's. A warm-up window, excluded from every
  // metric, precedes the first round.
  const double frame_rate = spec.paced_eps / static_cast<double>(F);
  const auto rounds = static_cast<std::size_t>(
      std::max(4.0, std::round(options.seconds / kRoundSeconds)));
  const double round_seconds = options.seconds / static_cast<double>(rounds);
  const std::size_t warm_frames =
      RoundDownToStreams(kWarmupSeconds * frame_rate);
  const std::size_t window_frames =
      RoundDownToStreams(kPacedShare * round_seconds * frame_rate);
  const auto slice_ns = static_cast<std::int64_t>(
      (1.0 - kPacedShare) * round_seconds * 1e9);
  const std::size_t flat_cap = RoundDownToStreams(
      spec.max_flat_eps * (1.0 - kPacedShare) * options.seconds /
      static_cast<double>(F));
  const std::size_t max_frames = warm_frames + rounds * window_frames +
                                 flat_cap;
  const std::size_t max_examples_per_stream = max_frames / kStreams * F;

  std::vector<std::size_t> capacities(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    capacities[s] = static_cast<std::size_t>(
                        1.5 * static_cast<double>(pool_flags[s]) /
                        static_cast<double>(spec.pool_examples) *
                        static_cast<double>(max_examples_per_stream)) +
                    4096;
  }
  // Generator buffers and the sink's storage are allocated and touched
  // before the system under test exists, so they stay out of its RSS. Per
  // global frame: when it was due (-1 for flat-out frames) and sent.
  std::vector<std::int64_t> due_ns(max_frames, -1);
  std::vector<std::int64_t> send_start(max_frames, 0);
  std::vector<std::int64_t> send_end(max_frames, 0);
  auto sink = std::make_shared<FlagSink>(capacities, QualifiedNames<T>(suite));
  const std::string uds_path =
      std::string(kOutDir) + "/wb-" + std::to_string(::getpid()) + ".sock";

  // ---- setup -------------------------------------------------------------
  RssPeak rss;
  std::vector<double> setup_seconds;
  const auto timed_setup = [&](const std::string& path) {
    const std::int64_t t0 = NowNs();
    std::unique_ptr<Sut> built = BuildSut(scenario_text, domains, path);
    setup_seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return built;
  };
  std::unique_ptr<Sut> sut = timed_setup(uds_path);
  rss.Sample();
  std::vector<runtime::StreamId> ids;
  for (const config::BoundStream& stream : sut->hosted.streams) {
    ids.push_back(stream.handle.id());
  }
  sink->BindStreams(ids);
  serve::Subscription subscription =
      sut->hosted.monitor->Subscribe({}, sink);

  bool send_failed = false;
  std::uint64_t g = 0;  // next global frame; stream g % kStreams
  const auto send_frame = [&](std::uint64_t frame) {
    const std::size_t s = frame % kStreams;
    if (!sut->ConnectionOf(s)
             .SendEncoded(sut->bindings[s], spec.domain,
                          static_cast<std::uint32_t>(F),
                          payloads[s][(frame / kStreams) % pool_frames])
             .ok()) {
      send_failed = true;
    }
  };
  const auto bytes_sent = [&] {
    std::uint64_t total = 0;
    for (const net::ClientConnection& c : sut->connections) {
      total += c.bytes_sent();
    }
    return total;
  };
  const auto drain = [&] {
    for (net::ClientConnection& c : sut->connections) {
      if (!c.Flush().ok()) send_failed = true;
    }
    // The in-process Flush orders the shard workers' sink writes before
    // this thread's reads.
    sut->hosted.monitor->Flush();
  };
  // Open loop: frame i of the window is due at start + i / frame_rate and
  // is timed from then, however late the generator gets to it.
  const double period_ns = 1e9 / frame_rate;
  const auto paced = [&](std::size_t frames, bool traced) {
    const std::int64_t start = NowNs() + 1'000'000;
    const std::uint64_t first = g;
    for (; g < first + frames && !send_failed; ++g) {
      const std::int64_t due =
          start + std::llround(static_cast<double>(g - first) * period_ns);
      if (NowNs() < due) SleepUntilNs(due);
      const std::int64_t t0 = NowNs();
      send_frame(g);
      const std::int64_t t1 = NowNs();
      due_ns[g] = due;
      send_start[g] = t0;
      send_end[g] = t1;
      if (traced) {
        spans.Record({"loadgen.frame", 3 * g + 1, 0, g, due, t1, 0});
        spans.Record({"loadgen.late", 3 * g + 2, 3 * g + 1, g, due, t0, 0});
        spans.Record({"net.send", 3 * g + 3, 3 * g + 1, g, t0, t1, 0});
      }
      if (g % 256 == 0) rss.Sample();
    }
  };

  // ---- the rounds ---------------------------------------------------------
  struct Window {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    double cpu_s = 0.0;
    double steal_s = 0.0;  // host steal during the window
    bool traced = false;
  };
  std::vector<Window> windows;
  std::vector<double> slice_eps;
  std::vector<double> slice_steal_s;
  std::vector<double> rss_mb;  // peak RSS per round
  ProcCounters paced_proc;  // summed over the paced windows
  std::uint64_t paced_bytes = 0;
  runtime::MetricsSnapshot paced_metrics;
  std::size_t flat_frames = 0;
  paced(warm_frames, false);
  drain();
  const std::int64_t rounds_start = NowNs();
  const double rounds_steal = HostStealSeconds();
  for (std::size_t round = 0; round < rounds && !send_failed; ++round) {
    // Traced runs trace every other window, so the untraced windows give
    // the same run's cost without tracing.
    const bool traced = options.trace && round % 2 == 1;
    const ProcCounters before = ProcCounters::Now();
    const double steal_before = HostStealSeconds();
    const std::uint64_t bytes_before = bytes_sent();
    const std::uint64_t begin = g;
    paced(window_frames, traced);
    drain();
    const ProcCounters after = ProcCounters::Now();
    const double steal_after = HostStealSeconds();
    windows.push_back({begin, g,
                       after.user_s + after.sys_s - before.user_s -
                           before.sys_s,
                       steal_after - steal_before, traced});
    paced_proc.user_s += after.user_s - before.user_s;
    paced_proc.sys_s += after.sys_s - before.sys_s;
    paced_proc.voluntary_switches +=
        after.voluntary_switches - before.voluntary_switches;
    paced_bytes += bytes_sent() - bytes_before;
    // The runtime's own counters, read before any flat-out traffic.
    if (round == 0) paced_metrics = sut->hosted.monitor->Metrics();

    // Flat-out frames stop at flat_cap in total, so every paced frame
    // still has its slot in the per-frame buffers.
    const std::int64_t t0 = NowNs();
    std::uint64_t sent = 0;
    while (flat_frames < flat_cap && NowNs() - t0 < slice_ns &&
           !send_failed) {
      send_frame(g++);
      ++flat_frames;
      if (++sent % 32 == 0) rss.Sample();
    }
    drain();
    if (sent > 0) {
      slice_eps.push_back(static_cast<double>(sent * F) /
                          (static_cast<double>(NowNs() - t0) / 1e9));
      slice_steal_s.push_back(HostStealSeconds() - steal_after);
    }
    rss_mb.push_back(rss.TakeWindowMb());
    for (std::size_t k = 0; k < kSetupsPerRound; ++k) {
      timed_setup(uds_path + ".setup");
    }
  }
  const double steal_frac =
      (HostStealSeconds() - rounds_steal) /
      (static_cast<double>(NowNs() - rounds_start) / 1e9 *
       static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  result.Check(flat_frames < flat_cap,
               "flat-out phase hit the frame cap; raise max_flat_eps");
  const std::uint64_t frames_sent = g;

  // Flag latency: due time of the frame that settles the flag -> Consume,
  // for flags settled by a paced window's frames.
  std::vector<double> latencies_ms;
  std::vector<std::vector<double>> window_ms(windows.size());
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (std::size_t i = 0; i < sink->size(s); ++i) {
      const FlagSink::Record& record = sink->at(s, i);
      const std::uint64_t carrier = SettlingFrame(
          s, record.example, spec.settle_lag, F, kStreams);
      if (carrier >= frames_sent || due_ns[carrier] < 0) continue;
      const auto window = std::upper_bound(
          windows.begin(), windows.end(), carrier,
          [](std::uint64_t frame, const Window& w) { return frame < w.begin; });
      if (window == windows.begin() || carrier >= (window - 1)->end) continue;
      const double latency = Ms(record.consume_ns - due_ns[carrier]);
      latencies_ms.push_back(latency);
      window_ms[static_cast<std::size_t>(window - windows.begin()) - 1]
          .push_back(latency);
      if ((window - 1)->traced) {
        spans.Record({"server.to_flag", spans.NextId(), 3 * carrier + 1,
                      carrier, send_end[carrier], record.consume_ns, 1});
      }
    }
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  std::vector<double> late_ms;
  for (const Window& window : windows) {
    for (std::uint64_t frame = window.begin; frame < window.end; ++frame) {
      late_ms.push_back(Ms(send_start[frame] - due_ns[frame]));
    }
  }
  std::sort(late_ms.begin(), late_ms.end());

  // ---- accounting and the flag digest -----------------------------------
  result.Check(!send_failed, "a DATA send or FLUSH failed");
  const serve::Result<std::vector<std::uint64_t>> stats =
      sut->connections.front().Stats();
  const std::optional<WireAccount> account =
      stats.ok() ? WireAccount::FromStats(stats.value()) : std::nullopt;
  result.Check(account.has_value(), "STATS failed");
  const std::uint64_t offered = frames_sent * F;
  if (account) {
    result.Check(account->Reconciles(),
                 "wire accounting identity does not reconcile");
    result.Check(account->offered == offered,
                 "server offered count differs from examples sent");
    result.attempted = account->offered;
    result.failed = account->Lost();
  }
  result.Check(sink->overflow() == 0, "sink storage overflowed");
  result.Check(sink->unknown() == 0, "sink saw an unknown stream/assertion");
  std::vector<FlagRecord> served = sink->Flags();
  subscription.Unsubscribe();
  sut.reset();

  std::vector<std::vector<FlagRecord>> reference(kStreams);
  ParallelFor(kStreams, kReferenceThreads, [&](std::size_t s) {
    const std::size_t frames = frames_sent / kStreams +
                               (s < frames_sent % kStreams ? 1 : 0);
    reference[s] =
        ReferencePass(stream_suites[s], spec.window, spec.settle_lag,
                      typed[s], F, frames, static_cast<std::uint32_t>(s));
  });
  std::vector<FlagRecord> expected;
  for (const auto& flags : reference) {
    expected.insert(expected.end(), flags.begin(), flags.end());
  }
  const std::size_t served_flags = served.size();
  const std::size_t expected_flags = expected.size();
  result.Check(served_flags == expected_flags &&
                   CanonicalDigest(std::move(served)) ==
                       CanonicalDigest(std::move(expected)),
               "served flag digest differs from the reference evaluator (" +
                   std::to_string(served_flags) + " vs " +
                   std::to_string(expected_flags) + " flags)");

  // ---- end-to-end metrics over the untraced windows -----------------------
  std::vector<double> p50s;
  std::vector<double> p95s;
  std::vector<double> cpu_us;
  std::vector<double> window_steal_s;
  std::vector<double> traced_cpu_us;
  double measured_examples = 0.0;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const double examples =
        static_cast<double>((windows[k].end - windows[k].begin) * F);
    measured_examples += examples;
    if (windows[k].traced) {
      traced_cpu_us.push_back(windows[k].cpu_s * 1e6 / examples);
      continue;
    }
    std::sort(window_ms[k].begin(), window_ms[k].end());
    const std::optional<Quantile> p50 = QuantileOf(window_ms[k], 0.50);
    const std::optional<Quantile> p95 = QuantileOf(window_ms[k], 0.95);
    result.Check(p50 && p95, "too few paced flags in a window for p95");
    p50s.push_back(p50 ? p50->value : 0.0);
    p95s.push_back(p95 ? p95->value : 0.0);
    cpu_us.push_back(windows[k].cpu_s * 1e6 / examples);
    window_steal_s.push_back(windows[k].steal_s);
  }
  // Each figure comes from the windows the host disturbed least.
  const auto paced_figure = [&](const std::vector<double>& values) {
    return GoodQuartile(LeastStolen(values, window_steal_s), Better::kLower);
  };
  const double cpu_us_per_ex = paced_figure(cpu_us);
  result.end_to_end = {
      {"flag_p50_ms", {paced_figure(p50s), "ms"}},
      {"flag_p95_ms", {paced_figure(p95s), "ms"}},
      {"cpu_us_per_ex", {cpu_us_per_ex, "us"}},
      {"capacity_eps",
       {GoodQuartile(LeastStolen(slice_eps, slice_steal_s), Better::kHigher),
        "ex/s"}},
      {"setup_s", {GoodQuartile(setup_seconds, Better::kLower), "s"}},
      {"sut_peak_rss_mb", {GoodQuartile(rss_mb, Better::kLower), "MB"}},
  };
  if (!options.trace) return 0;

  // ---- per-layer metrics (traced run) ------------------------------------
  auto& layer = result.per_layer;
  const double pool_examples = static_cast<double>(kStreams * spec.pool_examples);
  layer["net.encode_ns_per_ex"] = {static_cast<double>(encode_ns) /
                                       pool_examples, "ns"};

  // Frame assembly (both CRCs) over the pool's frames as one byte stream,
  // fed in socket-read-sized slices.
  std::vector<std::uint8_t> stream_bytes;
  for (std::size_t f = 0; f < pool_frames; ++f) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      net::FrameHeader header;
      header.type = net::FrameType::kData;
      header.stream = s + 1;
      header.set_domain_tag(spec.domain);
      header.count = static_cast<std::uint32_t>(F);
      const std::vector<std::uint8_t> frame =
          net::EncodeFrame(header, payloads[s][f]);
      stream_bytes.insert(stream_bytes.end(), frame.begin(), frame.end());
    }
  }
  {
    constexpr std::size_t kReadBytes = 64 * 1024;
    const std::int64_t t0 = NowNs();
    net::FrameAssembler assembler(4u << 20);
    std::size_t frames = 0;
    for (std::size_t at = 0; at < stream_bytes.size(); at += kReadBytes) {
      assembler.Feed(std::span(stream_bytes)
                         .subspan(at, std::min(kReadBytes,
                                               stream_bytes.size() - at)));
      for (net::FrameAssembler::Step step = assembler.Next(); step.frame;
           step = assembler.Next()) {
        ++frames;
      }
    }
    const std::int64_t t1 = NowNs();
    result.Check(frames == pool_frames * kStreams, "assembler lost frames");
    spans.Record({"net.assemble", spans.NextId(), 0, 0, t0, t1, 2});
    layer["net.assemble_ns_per_ex"] = {
        static_cast<double>(t1 - t0) / pool_examples, "ns"};
  }
  std::vector<std::vector<std::vector<serve::AnyExample>>> decoded(kStreams);
  {
    const std::int64_t t0 = NowNs();
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t f = 0; f < pool_frames; ++f) {
        serve::Result<std::vector<serve::AnyExample>> batch =
            net::DecodeBatch(codec, payloads[s][f],
                             static_cast<std::uint32_t>(F));
        result.Check(batch.ok(), "pool frame does not decode");
        if (batch.ok()) decoded[s].push_back(std::move(batch.value()));
      }
    }
    const std::int64_t t1 = NowNs();
    spans.Record({"net.decode", spans.NextId(), 0, 0, t0, t1, 2});
    layer["net.decode_ns_per_ex"] = {
        static_cast<double>(t1 - t0) / pool_examples, "ns"};
  }
  layer["net.wire_bytes_per_ex"] = {
      static_cast<double>(paced_bytes) / measured_examples, "B"};

  const double score_ns_per_ex = ScoreLayers(
      suite, spec.window, spec.settle_lag, typed, F, spans, layer);
  ServeLayers(domains, suite, spec.window, spec.settle_lag,
              std::move(decoded), score_ns_per_ex, spans, layer);
  // The measured system after the first paced window (warm-up included,
  // no flat-out traffic yet).
  RuntimeLayers(paced_metrics, layer);

  layer["proc.cpu_sys_frac"] = {
      paced_proc.sys_s / (paced_proc.user_s + paced_proc.sys_s), "frac"};
  layer["host.steal_frac"] = {steal_frac, "frac"};
  layer["proc.vcsw_per_frame"] = {
      static_cast<double>(paced_proc.voluntary_switches) * F /
          measured_examples,
      "count"};

  const std::map<std::string, LayerTime> times = spans.Layers();
  const auto self_ns = [&times](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? 0.0 : it->second.MeanSelfNs();
  };
  layer["net.send_us_per_frame"] = {self_ns("net.send") / 1e3, "us"};
  const std::optional<Quantile> late_p99 = QuantileOf(late_ms, 0.99);
  layer["loadgen.late_p99_ms"] = {late_p99 ? late_p99->value : 0.0, "ms"};
  layer["loadgen.late_max_ms"] = {late_ms.empty() ? 0.0 : late_ms.back(),
                                  "ms"};
  layer["loadgen.frames"] = {static_cast<double>(frames_sent), "count"};
  const std::optional<Quantile> p99 = QuantileOf(latencies_ms, 0.99);
  layer["sink.flag_p99_ms"] = {p99 ? p99->value : 0.0, "ms"};
  layer["sink.flags_per_ex"] = {
      static_cast<double>(served_flags) / static_cast<double>(offered),
      "count"};

  // Attribution: the named per-example stage costs against the measured
  // CPU per example of the untraced windows.
  const double named_ns = self_ns("net.send") / static_cast<double>(F) +
                          layer["net.assemble_ns_per_ex"].value +
                          layer["net.decode_ns_per_ex"].value +
                          score_ns_per_ex +
                          layer["serve.overhead_ns_per_ex"].value;
  layer["attrib.unattributed_frac"] = {1.0 - named_ns / (cpu_us_per_ex * 1e3),
                                       "frac"};
  layer["bench.trace_overhead_frac"] = {
      GoodQuartile(traced_cpu_us, Better::kLower) / cpu_us_per_ex - 1.0,
      "frac"};
  return 0;
}

}  // namespace

std::vector<std::string> WireWorkloadNames() {
  std::vector<std::string> names;
  for (const WireSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

int RunWireWorkload(const RunOptions& options, SpanRecorder& spans,
                    RunResult& result) {
  for (const WireSpec& spec : Specs()) {
    if (spec.name != options.workload) continue;
    if (spec.domain == "video") {
      return RunTyped<video::VideoExample>(spec, options, spans, result);
    }
    if (spec.domain == "av") {
      return RunTyped<av::AvExample>(spec, options, spans, result);
    }
    return RunTyped<ecg::EcgExample>(spec, options, spans, result);
  }
  return 2;
}

}  // namespace wirebench
