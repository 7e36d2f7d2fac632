#include "suite_tools.hpp"

#include "runtime/admission.hpp"

namespace wirebench {

void ServeLayers(
    const omg::serve::DomainRegistry& domains,
    const omg::config::SuiteSpec& suite, std::size_t window,
    std::size_t settle_lag,
    std::vector<std::vector<std::vector<omg::serve::AnyExample>>> batches,
    double score_ns_per_ex, SpanRecorder& spans, Layers& layer) {
  using namespace omg;
  serve::Result<std::unique_ptr<serve::Monitor>> built =
      serve::Monitor::Builder()
          .Shards(1)
          .Window(window)
          .SettleLag(settle_lag)
          .QueueCapacity(512)
          .Admission(runtime::AdmissionPolicy::kBlock)
          .Build();
  common::Check(built.ok(), "in-process monitor build failed");
  serve::Monitor& monitor = *built.value();
  std::vector<serve::StreamHandle> handles;
  for (std::size_t s = 0; s < batches.size(); ++s) {
    serve::Result<serve::StreamHandle> handle = monitor.RegisterStream(
        suite.domain, domains.At(suite.domain).make_suite_factory(suite),
        {"inproc-" + std::to_string(s)});
    common::Check(handle.ok(), "in-process register failed");
    handles.push_back(handle.value());
  }
  double examples = 0.0;
  double observe_ns = 0.0;
  std::size_t calls = 0;
  const std::uint64_t pass_id = spans.NextId();
  const std::int64_t t0 = NowNs();
  const std::size_t frames = batches.empty() ? 0 : batches.front().size();
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t s = 0; s < batches.size(); ++s) {
      examples += static_cast<double>(batches[s][f].size());
      const std::int64_t c0 = NowNs();
      const bool ok =
          monitor.ObserveBatch(handles[s], std::move(batches[s][f])).ok();
      const std::int64_t c1 = NowNs();
      common::Check(ok, "in-process ObserveBatch failed");
      observe_ns += static_cast<double>(c1 - c0);
      ++calls;
      spans.Record({"serve.observe", spans.NextId(), pass_id, 0, c0, c1, 3});
    }
  }
  const std::int64_t f0 = NowNs();
  monitor.Flush();
  const std::int64_t t1 = NowNs();
  spans.Record({"serve.flush", spans.NextId(), pass_id, 0, f0, t1, 3});
  spans.Record({"serve.pass", pass_id, 0, 0, t0, t1, 3});
  layer["serve.overhead_ns_per_ex"] = {
      static_cast<double>(t1 - t0) / examples - score_ns_per_ex, "ns"};
  layer["serve.observe_call_us"] = {
      observe_ns / 1e3 / static_cast<double>(calls), "us"};
  layer["serve.flush_ms"] = {static_cast<double>(t1 - f0) / 1e6, "ms"};
}

void RuntimeLayers(const omg::runtime::MetricsSnapshot& metrics,
                   Layers& layer) {
  double busy = 0.0;
  double queue_wait_ns = 0.0;
  double service_ns = 0.0;
  double batches = 0.0;
  double depth_peak = 0.0;
  double stolen = 0.0;
  for (const omg::runtime::ShardMetrics& shard : metrics.shards) {
    busy += shard.BusyFraction() / static_cast<double>(metrics.shards.size());
    queue_wait_ns += static_cast<double>(shard.queue_wait_ns);
    service_ns += static_cast<double>(shard.busy_ns + shard.steal_ns);
    batches += static_cast<double>(shard.batches + shard.errored_batches);
    depth_peak =
        std::max(depth_peak, static_cast<double>(shard.queue_depth_peak));
    stolen += static_cast<double>(shard.stolen_batches);
  }
  layer["runtime.busy_frac"] = {busy, "frac"};
  layer["runtime.queue_wait_ms"] = {queue_wait_ns / 1e6 / batches, "ms"};
  layer["runtime.service_ms"] = {service_ns / 1e6 / batches, "ms"};
  layer["runtime.queue_depth_peak"] = {depth_peak, "count"};
  layer["runtime.stolen_batches"] = {stolen, "count"};
  layer["runtime.observe_to_flag_p50_ms"] = {
      metrics.MergedLatency().Quantile(0.50) * 1e3, "ms"};
}

}  // namespace wirebench
