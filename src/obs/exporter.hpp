// MetricsExporter — periodic snapshot export to JSON-lines and Prometheus.
//
// The exporter owns a background thread that snapshots a metrics source
// (any callable returning runtime::MetricsSnapshot — in practice
// Monitor::Metrics or ShardedMonitorService::Metrics) every `period` and
// renders it to up to two file sinks:
//
//   * JSON-lines (`jsonl_path`): one self-contained JSON object appended
//     per export — a time series a notebook or the planned cluster router
//     can aggregate across processes.
//   * Prometheus text exposition (`prometheus_path`): the file is
//     rewritten atomically-enough (truncate + write) per export, matching
//     how node_exporter's textfile collector consumes metrics.
//
// Domain-qualified assertion names ("video/flicker") and stream names are
// label *values*, never metric names, so the '/' qualifier survives both
// formats verbatim (escaped per format rules). The free Write* functions
// do the rendering and are the unit-tested surface; the exporter is the
// scheduling shell around them. Stop() (and the destructor) performs one
// final export so short runs still produce output.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/mutex.hpp"
#include "runtime/metrics.hpp"

namespace omg::obs {

/// Exporter schedule and sinks; empty paths disable that sink.
struct MetricsExporterOptions {
  /// Snapshot cadence of the background thread.
  std::chrono::milliseconds period{1000};
  /// JSON-lines sink (appended; one object per export). "" = off.
  std::string jsonl_path;
  /// Prometheus text-exposition sink (rewritten per export). "" = off.
  std::string prometheus_path;
};

/// Renders `snapshot` in Prometheus text exposition format (with HELP/TYPE
/// headers). Qualified assertion/stream names appear as escaped label
/// values.
void WritePrometheusText(const runtime::MetricsSnapshot& snapshot,
                         std::ostream& out);

/// Renders `snapshot` as one JSON object line, stamped `ts_ns` (obs::Clock
/// time).
void WriteMetricsJsonLine(const runtime::MetricsSnapshot& snapshot,
                          std::uint64_t ts_ns, std::ostream& out);

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string PrometheusEscapeLabel(std::string_view value);

/// See the file comment. Start() is not implicit — construct, then Start().
class MetricsExporter {
 public:
  using SnapshotFn = std::function<runtime::MetricsSnapshot()>;

  /// `snapshot` must be callable from the exporter thread for the
  /// exporter's whole lifetime (it is invoked once more during Stop()).
  MetricsExporter(MetricsExporterOptions options, SnapshotFn snapshot);

  /// Stops the thread (final export included).
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Spawns the background thread; idempotent.
  void Start();

  /// Joins the thread after one final export; idempotent and safe to call
  /// from several threads at once (one caller joins and writes the final
  /// export, the rest return immediately). Exports written so far stay on
  /// disk.
  void Stop();

  /// Performs one synchronous export (also what the background thread
  /// calls). Thread-safe. Returns the number of exports performed so far.
  std::size_t ExportOnce();

 private:
  /// Thread body; `stop` is the run's own stop token (see stop_).
  void Run(std::shared_ptr<bool> stop);

  MetricsExporterOptions options_;
  SnapshotFn snapshot_;

  Mutex io_mutex_;  ///< serialises ExportOnce bodies
  std::size_t exports_ OMG_GUARDED_BY(io_mutex_) = 0;

  Mutex run_mutex_;  ///< guards stop_/thread lifecycle
  CondVar wake_;
  /// Stop token of the current run, one per Start() (the thread holds its
  /// own reference and re-reads the flag under run_mutex_). Per-run tokens
  /// keep a Start() racing a Stop() from resurrecting the claimed thread.
  std::shared_ptr<bool> stop_ OMG_GUARDED_BY(run_mutex_)
      OMG_PT_GUARDED_BY(run_mutex_);
  std::thread thread_ OMG_GUARDED_BY(run_mutex_);
};

}  // namespace omg::obs
