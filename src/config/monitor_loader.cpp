#include "config/monitor_loader.hpp"

#include <utility>

#include "common/check.hpp"

namespace omg::config {

ScenarioMonitor BuildScenarioMonitor(const ScenarioSpec& scenario,
                                     const serve::DomainRegistry& domains) {
  ScenarioMonitor out;

  serve::Monitor::Builder builder;
  builder.Runtime(ConfigLoader::MakeRuntimeConfig(scenario));
  if (scenario.observability.trace) {
    obs::TracerOptions trace;
    trace.ring_capacity = scenario.observability.ring_capacity;
    trace.sample_every = scenario.observability.sample_every;
    builder.Trace(trace);  // Build() sizes shard_lanes to the shard count
  }
  serve::Result<std::unique_ptr<serve::Monitor>> built = builder.Build();
  // Load() already ran Validate() on this geometry; a failure here is a
  // loader/facade disagreement, not a config error.
  if (!built.ok()) throw common::CheckError(built.error().message);
  out.monitor = std::move(built.value());

  // Compile each declared domain's suite spec once; every stream of the
  // domain gets a private bundle from the shared erased factory.
  std::map<std::string, serve::AnySuiteFactory> factories;
  for (const StreamSpec& stream : scenario.streams) {
    if (factories.find(stream.domain) != factories.end()) continue;
    if (!domains.Has(stream.domain)) {
      throw SpecError(scenario.source, 0, 0,
                      "stream '" + stream.name + "' names domain '" +
                          stream.domain + "' but no such domain is "
                          "registered (registered: " +
                          domains.JoinedNames() + ")");
    }
    const SuiteSpec* suite = scenario.SuiteFor(stream.domain);
    common::Check(suite != nullptr,
                  "validated scenario lost its suite for domain " +
                      stream.domain);
    factories.emplace(stream.domain,
                      domains.At(stream.domain).make_suite_factory(*suite));

    // Column order for loop/collector wiring: probe one erased bundle.
    out.assertion_names.emplace(stream.domain,
                                factories.at(stream.domain)().names);
  }

  for (const StreamSpec& stream : scenario.streams) {
    serve::StreamOptions options;
    options.name = stream.name;
    options.severity_hint = stream.severity_hint;
    serve::Result<serve::StreamHandle> handle = out.monitor->RegisterStream(
        stream.domain, factories.at(stream.domain), std::move(options));
    if (!handle.ok()) {
      throw common::CheckError("RegisterStream('" + stream.name +
                               "'): " + handle.error().message);
    }
    out.streams.push_back({stream, handle.value()});
  }
  return out;
}

}  // namespace omg::config
