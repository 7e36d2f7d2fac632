#include "loop/model_registry.hpp"

#include <utility>

namespace omg::loop {

std::uint64_t ModelRegistry::Publish(nn::Mlp model) {
  auto shared = std::make_shared<const nn::Mlp>(std::move(model));
  std::uint64_t version;
  std::shared_ptr<obs::Tracer> tracer;
  {
    MutexLock lock(mutex_);
    current_.version += 1;
    current_.model = std::move(shared);
    version = current_.version;
    tracer = tracer_;
  }
  if (tracer != nullptr) {
    tracer->EmitControl(obs::TraceEventKind::kModelHotSwap,
                        obs::TracePhase::kInstant,
                        obs::TraceEvent::kNoStream, version);
  }
  return version;
}

ModelHandle ModelRegistry::Current() const {
  MutexLock lock(mutex_);
  return current_;
}

std::uint64_t ModelRegistry::version() const {
  MutexLock lock(mutex_);
  return current_.version;
}

void ModelRegistry::AttachTracer(std::shared_ptr<obs::Tracer> tracer) {
  MutexLock lock(mutex_);
  tracer_ = std::move(tracer);
}

}  // namespace omg::loop
