// wirebench: one command for the repository's wire-to-flag benchmark.
//
//   wirebench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload, checks its outputs, and prints as the last line of
// stdout one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics untraced, the per-layer metrics traced. The line
// before it is the run's env block. A failed check prints the failures to
// stderr, no result, and exits 1. Traced runs also write their spans as
// Chrome-trace JSON to kOutDir/<workload>-seed<N>.trace.json.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "helpers.hpp"
#include "spans.hpp"

namespace {

using namespace wirebench;

/// Every workload reports every one of these (never 0).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"flag_p50_ms", "ms"},   {"flag_p95_ms", "ms"},
    {"cpu_us_per_ex", "us"}, {"capacity_eps", "ex/s"},
    {"setup_s", "s"},        {"sut_peak_rss_mb", "MB"},
};

/// The traced run reports every one of these; a layer a workload does not
/// exercise reads 0 (the loop has no wire; the wire workloads run no
/// improvement rounds; each domain's assertions run on its own workload).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"net.assemble_ns_per_ex", "ns"},
    {"net.decode_ns_per_ex", "ns"},
    {"net.wire_bytes_per_ex", "B"},
    {"net.encode_ns_per_ex", "ns"},
    {"net.send_us_per_frame", "us"},
    {"proc.vcsw_per_frame", "count"},
    {"proc.cpu_sys_frac", "frac"},
    {"host.steal_frac", "frac"},
    {"runtime.service_ms", "ms"},
    {"core.score_ns_per_ex", "ns"},
    {"core.video.consistency_ns_per_ex", "ns"},
    {"core.video.multibox_ns_per_ex", "ns"},
    {"core.av.agree_ns_per_ex", "ns"},
    {"core.av.multibox_ns_per_ex", "ns"},
    {"core.ecg.oscillation_ns_per_ex", "ns"},
    {"core.events_per_ex", "count"},
    {"serve.overhead_ns_per_ex", "ns"},
    {"serve.observe_call_us", "us"},
    {"serve.flush_ms", "ms"},
    {"runtime.busy_frac", "frac"},
    {"runtime.queue_wait_ms", "ms"},
    {"runtime.queue_depth_peak", "count"},
    {"runtime.stolen_batches", "count"},
    {"runtime.observe_to_flag_p50_ms", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.late_max_ms", "ms"},
    {"loadgen.frames", "count"},
    {"sink.flag_p99_ms", "ms"},
    {"sink.flags_per_ex", "count"},
    {"loop.select_label_ms", "ms"},
    {"loop.retrain_ms", "ms"},
    {"loop.hot_swap_us", "us"},
    {"loop.round_p50_ms", "ms"},
    {"loop.wall_s", "s"},
    {"loop.detect_us_per_frame", "us"},
    {"loop.wave_observe_ms", "ms"},
    {"loop.labels_human", "count"},
    {"loop.labels_weak", "count"},
    {"attrib.unattributed_frac", "frac"},
    {"bench.trace_overhead_frac", "frac"},
};

constexpr std::size_t kTraceSpans = 600'000;

int Usage(const std::string& problem) {
  std::cerr << "wirebench: " << problem
            << "\nusage: wirebench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const std::string& name : WireWorkloadNames()) std::cerr << " " << name;
  std::cerr << " video_loop\n";
  return 2;
}

std::string EnvJson(const RunOptions& options, const RunResult& result) {
  const char* sha = std::getenv("WIREBENCH_GIT_SHA");
  std::ostringstream env;
  env << "{\"env\":{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"compiler\":" << JsonString(WIREBENCH_COMPILER)
      << ",\"build_type\":" << JsonString(WIREBENCH_BUILD_TYPE)
      << ",\"git_sha\":" << JsonString(sha != nullptr ? sha : "unknown")
      << ",\"seed\":" << options.seed
      << ",\"seconds\":" << JsonNumber(options.seconds)
      << ",\"trace\":" << (options.trace ? 1 : 0)
      << ",\"workload\":" << JsonString(options.workload)
      // Every workload drives the system from one generator thread.
      << ",\"generator_threads\":1"
      << ",\"connections\":" << result.connections << "}}";
  return env.str();
}

std::string ResultJson(const RunResult& result,
                       const std::map<std::string, Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\":true,\"attempted\":" << result.attempted
      << ",\"failed\":" << result.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":"
        << JsonNumber(metric.value) << ",\"unit\":" << JsonString(metric.unit)
        << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  RecordStartupRss();
  RunOptions options;
  std::string trace_flag;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        trace_flag = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || options.seconds < 1.0 ||
      options.seconds > 60.0 || (trace_flag != "0" && trace_flag != "1")) {
    return Usage("--seed, --seconds (1..60) and --trace 0|1 are required");
  }
  options.trace = trace_flag == "1";
  bool wire = false;
  for (const std::string& name : WireWorkloadNames()) {
    wire = wire || name == options.workload;
  }
  if (!wire && options.workload != "video_loop") {
    return Usage("unknown workload '" + options.workload + "'");
  }
  std::error_code mkdir_error;
  std::filesystem::create_directories(kOutDir, mkdir_error);
  if (mkdir_error) return Usage(std::string("cannot create ") + kOutDir);

  SpanRecorder spans(options.trace ? kTraceSpans : 0);
  RunResult result;
  try {
    const int status = wire ? RunWireWorkload(options, spans, result)
                            : RunLoopWorkload(options, spans, result);
    if (status != 0) result.failures.push_back("workload returned error");
  } catch (const std::exception& error) {
    result.failures.push_back(std::string("exception: ") + error.what());
  }

  std::map<std::string, Metric> metrics;
  if (options.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = result.per_layer.find(name);
      metrics[name] = it != result.per_layer.end() ? it->second
                                                   : Metric{0.0, unit};
    }
    result.Check(spans.dropped() == 0, "span storage overflowed");
  } else {
    for (const auto& [name, unit] : kEndToEnd) {
      const auto it = result.end_to_end.find(name);
      result.Check(it != result.end_to_end.end() && it->second.value > 0.0,
                   "end-to-end metric missing or not positive: " + name);
      if (it != result.end_to_end.end()) metrics[name] = it->second;
    }
  }
  for (const auto& [name, metric] : metrics) {
    result.Check(std::isfinite(metric.value), "non-finite metric " + name);
  }
  result.Check(result.attempted > 0, "nothing was attempted");
  if (!result.failures.empty()) {
    for (const std::string& failure : result.failures) {
      std::cerr << "wirebench: check failed: " << failure << "\n";
    }
    return 1;
  }

  const std::string stem = std::string(kOutDir) + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  const std::string env = EnvJson(options, result);
  const std::string line = ResultJson(result, metrics);
  if (options.trace) {
    std::ofstream trace(stem + ".trace.json");
    spans.WriteChromeTrace(trace);
  }
  std::ofstream(stem + (options.trace ? ".traced" : ".untraced") +
                ".json")
      << env << "\n" << line << "\n";
  std::cout << env << "\n" << line << std::endl;
  return 0;
}
