// Live bandit rounds over the FlagStore.
//
// Algorithm 2 was written for bulk rounds over a fixed benchmark pool; here
// each round's pool is whatever the runtime flagged recently. The scheduler
// snapshots the store into a bandit::RoundContext, runs any
// SelectionStrategy over it (BAL with fallback, uncertainty, random — the
// strategies are reused unchanged), dispatches the selections to a
// LabelOracle, drops the labeled candidates from the store, and hands the
// labeled rows to the RetrainWorker. The caller runs each round (RunRound),
// as Algorithm 2 runs discrete rounds between waves of traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bandit/strategy.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "loop/flag_store.hpp"
#include "loop/oracle.hpp"
#include "loop/retrain_worker.hpp"
#include "obs/tracer.hpp"

namespace omg::loop {

/// Round parameters.
struct RoundConfig {
  /// Labels spent per round (the paper's per-round budget).
  std::size_t budget = 8;
  /// Rounds with fewer candidates are skipped (nothing worth labeling yet).
  std::size_t min_candidates = 1;
  /// Optional trace sink: each executed round emits a `round` span on the
  /// control lane (begin: candidates; end: labeled rows).
  std::shared_ptr<obs::Tracer> tracer;
};

/// What one round did; History() keeps these in order.
struct RoundStats {
  std::size_t round = 0;
  std::size_t candidates = 0;   ///< store size at snapshot time
  std::size_t selected = 0;     ///< candidates picked by the strategy
  std::size_t human_labels = 0; ///< full-weight rows produced
  std::size_t weak_labels = 0;  ///< down-weighted rows produced
  std::size_t labeled_rows = 0; ///< total rows submitted for retraining
  bool used_fallback = false;   ///< BAL fell back to its baseline
};

/// Drives select -> label -> retrain rounds against live flagged traffic.
class RoundScheduler {
 public:
  /// Optional per-candidate model-confidence provider; required by
  /// confidence-based strategies (uncertainty, BAL with an uncertainty
  /// fallback). When absent, confidences are reported as zero.
  using ConfidenceFn =
      std::function<std::vector<double>(std::span<const CandidateKey>)>;

  /// `retrain` may be null — a loop that only measures selection (the
  /// no-retrain control arm of bench_loop_convergence) skips training.
  RoundScheduler(RoundConfig config, std::shared_ptr<FlagStore> store,
                 std::unique_ptr<bandit::SelectionStrategy> strategy,
                 std::shared_ptr<LabelOracle> oracle, RetrainWorker* retrain,
                 std::uint64_t seed, ConfidenceFn confidences = {});

  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  /// Runs one round synchronously. Returns nullopt when the store held
  /// fewer than `min_candidates` candidates (the round is not counted).
  /// Thread-safe; concurrent calls serialise. A throwing oracle, strategy
  /// or confidence provider throws out of RunRound to its caller.
  std::optional<RoundStats> RunRound();

  /// Completed rounds, in order.
  std::vector<RoundStats> History() const;

 private:
  RoundConfig config_;
  std::shared_ptr<FlagStore> store_;
  std::unique_ptr<bandit::SelectionStrategy> strategy_;
  std::shared_ptr<LabelOracle> oracle_;
  RetrainWorker* retrain_;
  ConfidenceFn confidences_;

  Mutex round_mutex_;  ///< serialises rounds
  common::Rng rng_ OMG_GUARDED_BY(round_mutex_);
  std::size_t next_round_ OMG_GUARDED_BY(round_mutex_) = 0;

  mutable Mutex history_mutex_;
  std::vector<RoundStats> history_ OMG_GUARDED_BY(history_mutex_);
};

}  // namespace omg::loop
