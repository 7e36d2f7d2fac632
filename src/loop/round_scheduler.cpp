#include "loop/round_scheduler.hpp"

#include <utility>

#include "bandit/bal.hpp"
#include "common/check.hpp"

namespace omg::loop {

using common::Check;

RoundScheduler::RoundScheduler(RoundConfig config,
                               std::shared_ptr<FlagStore> store,
                               std::unique_ptr<bandit::SelectionStrategy>
                                   strategy,
                               std::shared_ptr<LabelOracle> oracle,
                               RetrainWorker* retrain, std::uint64_t seed,
                               ConfidenceFn confidences)
    : config_(config),
      store_(std::move(store)),
      strategy_(std::move(strategy)),
      oracle_(std::move(oracle)),
      retrain_(retrain),
      confidences_(std::move(confidences)),
      rng_(seed) {
  Check(config_.budget >= 1, "round budget must be >= 1");
  Check(store_ != nullptr, "scheduler needs a flag store");
  Check(strategy_ != nullptr, "scheduler needs a selection strategy");
  Check(oracle_ != nullptr, "scheduler needs a label oracle");
}

std::optional<RoundStats> RoundScheduler::RunRound() {
  MutexLock round_lock(round_mutex_);

  const FlagStore::Snapshot snapshot = store_->TakeSnapshot();
  if (snapshot.keys.size() < config_.min_candidates) return std::nullopt;
  if (config_.tracer != nullptr) {
    config_.tracer->EmitControl(obs::TraceEventKind::kRound,
                                obs::TracePhase::kBegin,
                                obs::TraceEvent::kNoStream, next_round_,
                                snapshot.keys.size());
  }

  std::vector<double> confidences;
  if (confidences_) {
    confidences = confidences_(snapshot.keys);
    Check(confidences.size() == snapshot.keys.size(),
          "confidence provider returned wrong size");
  } else {
    confidences.assign(snapshot.keys.size(), 0.0);
  }

  bandit::RoundContext context;
  context.severities = &snapshot.severities;
  context.confidences = confidences;
  context.round = next_round_;
  // already_labeled stays empty: labeled candidates leave the store.

  RoundStats stats;
  stats.round = next_round_;
  stats.candidates = snapshot.keys.size();

  const std::vector<std::size_t> picked =
      strategy_->Select(context, config_.budget, rng_);
  ++next_round_;
  if (auto* bal = dynamic_cast<bandit::BalStrategy*>(strategy_.get())) {
    stats.used_fallback = bal->UsedFallback();
  }

  std::vector<CandidateKey> keys;
  keys.reserve(picked.size());
  for (const std::size_t index : picked) {
    common::CheckIndex(static_cast<std::ptrdiff_t>(index), 0,
                       static_cast<std::ptrdiff_t>(snapshot.keys.size()),
                       "strategy selected out-of-snapshot index");
    keys.push_back(snapshot.keys[index]);
  }
  stats.selected = keys.size();

  if (!keys.empty()) {
    LabelBatch batch = oracle_->Label(keys);
    stats.human_labels = batch.human_labels;
    stats.weak_labels = batch.weak_labels;
    stats.labeled_rows = batch.data.size();
    store_->Remove(keys);
    if (retrain_ != nullptr && !batch.data.empty()) {
      retrain_->Submit(std::move(batch.data));
    }
  }

  {
    MutexLock history_lock(history_mutex_);
    history_.push_back(stats);
  }
  if (config_.tracer != nullptr) {
    config_.tracer->EmitControl(obs::TraceEventKind::kRound,
                                obs::TracePhase::kEnd,
                                obs::TraceEvent::kNoStream, stats.round,
                                stats.labeled_rows);
  }
  return stats;
}

std::vector<RoundStats> RoundScheduler::History() const {
  MutexLock lock(history_mutex_);
  return history_;
}

}  // namespace omg::loop
