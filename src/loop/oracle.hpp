// Labeling oracles: how selected candidates become training rows.
//
// The paper uses two label sources — humans (§3, §5.3: the active-learning
// budget) and the consistency API's corrections (§4.2, §5.5: weak labels,
// down-weighted relative to human ones). The loop treats both behind one
// interface so a RoundScheduler can dispatch BAL's selections to either, or
// to a mix of the two (Table 6 combines them).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "loop/flag_store.hpp"
#include "nn/trainer.hpp"

namespace omg::loop {

/// Training rows produced by labeling one round's selections.
struct LabelBatch {
  /// The labeled rows (weights already applied).
  nn::Dataset data;
  /// Rows carrying full-weight (human / ground-truth) labels.
  std::size_t human_labels = 0;
  /// Rows carrying down-weighted weak labels.
  std::size_t weak_labels = 0;
};

/// Turns selected candidates into labeled training data.
///
/// Implementations run on whichever thread calls RoundScheduler::RunRound;
/// they must not assume the caller's thread identity but are never called
/// concurrently with themselves (rounds are serialised).
class LabelOracle {
 public:
  virtual ~LabelOracle() = default;

  /// Display name ("ground-truth", "weak-consistency", "mixed", ...).
  virtual std::string Name() const = 0;

  virtual LabelBatch Label(std::span<const CandidateKey> keys) = 0;
};

/// Simulation stand-in for the human labeler: resolves each candidate to
/// ground truth through a domain callback (e.g. NightStreetWorld::LabelFrame
/// on the retained frame the key points at).
class GroundTruthOracle final : public LabelOracle {
 public:
  /// Resolves one candidate to its ground-truth training rows.
  using LabelFn = std::function<nn::Dataset(const CandidateKey&)>;

  /// `label` must be non-null.
  explicit GroundTruthOracle(LabelFn label);

  std::string Name() const override { return "ground-truth"; }
  LabelBatch Label(std::span<const CandidateKey> keys) override;

 private:
  LabelFn label_;
};

/// Weak labels from consistency corrections (§4.2), down-weighted.
///
/// `propose` is expected to run the domain's core::ConsistencyEngine over
/// the retained traffic and materialise the corrections touching the given
/// candidates into training rows (see video::MakeWeakLabelDataset); the
/// oracle then scales every row's weight by `weak_weight`, which is how the
/// paper keeps weak labels from overpowering human ones.
class WeakLabelOracle final : public LabelOracle {
 public:
  /// Materialises the corrections touching the given candidates into rows.
  using ProposeFn = std::function<nn::Dataset(std::span<const CandidateKey>)>;

  /// `propose` must be non-null; `weak_weight` in (0, 1].
  WeakLabelOracle(ProposeFn propose, double weak_weight);

  std::string Name() const override { return "weak-consistency"; }
  LabelBatch Label(std::span<const CandidateKey> keys) override;

 private:
  ProposeFn propose_;
  double weak_weight_;
};

/// Human + weak labels on the same selections (the Table 6 mix): the primary
/// oracle's rows and the secondary's are concatenated into one batch.
class MixedOracle final : public LabelOracle {
 public:
  /// Both oracles must be non-null; each round labels through both.
  MixedOracle(std::shared_ptr<LabelOracle> primary,
              std::shared_ptr<LabelOracle> secondary);

  std::string Name() const override;
  LabelBatch Label(std::span<const CandidateKey> keys) override;

 private:
  std::shared_ptr<LabelOracle> primary_;
  std::shared_ptr<LabelOracle> secondary_;
};

}  // namespace omg::loop
