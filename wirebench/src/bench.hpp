// Shared declarations of the benchmark program: run options, the result a
// workload reports, and the process probes (clock, CPU, RSS) every
// workload measures with.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace wirebench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Where runs leave their socket, span files and result records, relative
/// to the repository root the benchmark runs from.
inline constexpr const char* kOutDir = ".bench_build/wirebench/run";

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run measured and checked.
struct RunResult {
  /// Examples offered to the system under test.
  std::uint64_t attempted = 0;
  /// Offered examples that reached no assertion (shed, dropped, errored,
  /// quota-rejected or undecodable).
  std::uint64_t failed = 0;
  /// Failed correctness checks; any entry fails the run.
  std::vector<std::string> failures;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Generator connections, stamped into the env block.
  std::size_t connections = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// CLOCK_MONOTONIC nanoseconds (the clock std::chrono::steady_clock reads).
std::int64_t NowNs();
/// Sleeps until CLOCK_MONOTONIC reaches `deadline_ns`.
void SleepUntilNs(std::int64_t deadline_ns);

/// Process-wide CPU and context-switch counters (getrusage).
struct ProcCounters {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t voluntary_switches = 0;
  static ProcCounters Now();
};

/// CPU seconds the hypervisor ran other guests while this machine's CPUs
/// had work (the steal column of /proc/stat, summed over CPUs); 0 where
/// the kernel does not report it.
double HostStealSeconds();

/// Records the process's RSS before any input or system is built: the
/// binary, its libraries and runtime start-up. main calls it first.
void RecordStartupRss();

/// Tracks the largest resident set size sampled in each window of a run,
/// as a server process of its own would have it: the startup RSS plus the
/// growth over the RSS at construction, so the benchmark's inputs and
/// buffers, allocated before, are left out. Sampling is a pread of
/// /proc/self/statm on a descriptor held open, cheap enough to call every
/// few frames.
class RssPeak {
 public:
  RssPeak();
  ~RssPeak();
  RssPeak(const RssPeak&) = delete;
  RssPeak& operator=(const RssPeak&) = delete;

  void Sample();
  /// Closes the current window: returns its peak (startup RSS plus growth
  /// over the baseline) in MB and starts the next window.
  double TakeWindowMb();

 private:
  std::uint64_t Read() const;

  int fd_ = -1;
  std::uint64_t base_ = 0;
  std::uint64_t peak_ = 0;
};

int RunWireWorkload(const RunOptions& options, SpanRecorder& spans,
                    RunResult& result);
int RunLoopWorkload(const RunOptions& options, SpanRecorder& spans,
                    RunResult& result);

/// Names of the wire workloads RunWireWorkload accepts.
std::vector<std::string> WireWorkloadNames();

}  // namespace wirebench
