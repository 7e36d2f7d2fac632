// Bridges the domain-agnostic ConsistencyEngine into the Assertion<Example>
// world, so consistency-generated assertions sit in an AssertionSuite next to
// user-written ones (as §4.2 requires: "these assertions are treated the same
// as user-provided ones in the rest of the system").
//
// A ConsistencyAnalyzer owns the engine plus a domain-provided extractor that
// turns the example stream into frames/records (the Id and Attrs functions
// live inside the extractor). All generated assertions share one analyzer,
// and the analyzer memoises the latest pass per input stream so a suite run
// costs one extraction and one engine pass, not one per generated column.
// A suite pass computes severities only; corrections are built on demand
// from the same pass's extraction.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/assertion.hpp"
#include "core/consistency.hpp"

namespace omg::core {

/// Frames + records extracted from an example stream.
struct ConsistencyExtraction {
  std::vector<ConsistencyFrame> frames;
  std::vector<ConsistencyRecord> records;
};

/// Runs a ConsistencyEngine over example streams, caching the last pass.
template <typename Example>
class ConsistencyAnalyzer {
 public:
  /// Extractor: applies the user's Id/Attrs functions to the stream.
  using ExtractFn =
      std::function<ConsistencyExtraction(std::span<const Example>)>;

  ConsistencyAnalyzer(ConsistencyConfig config, ExtractFn extract)
      : engine_(std::move(config)), extract_(std::move(extract)) {
    common::Check(static_cast<bool>(extract_), "extractor must be set");
  }

  /// Names of the generated assertions (column order of Analyze results).
  std::vector<std::string> AssertionNames() const {
    return engine_.AssertionNames();
  }

  /// Severities of `examples`, one column per generated assertion, without
  /// building corrections: what a suite pass reads. Memoised on (data
  /// pointer, size) with the extraction, so one suite pass runs the
  /// extractor and the engine once; passing a *different* stream
  /// re-analyses.
  const std::vector<std::vector<double>>& Severities(
      std::span<const Example> examples) {
    if (!Cached(examples)) {
      ConsistencyExtraction extraction = extract_(examples);
      ConsistencyResult result;
      result.severities = engine_.Severities(
          extraction.frames, extraction.records, examples.size());
      Store(examples, std::move(extraction), std::move(result), false);
    }
    return result_.severities;
  }

  /// Full analysis of `examples`, corrections included, memoised on the
  /// same key. After a suite pass on the same stream it builds the
  /// corrections from the cached extraction, without re-extracting.
  const ConsistencyResult& Analyze(std::span<const Example> examples) {
    if (!Cached(examples)) {
      ConsistencyExtraction extraction = extract_(examples);
      ConsistencyResult result = engine_.Analyze(
          extraction.frames, extraction.records, examples.size());
      Store(examples, std::move(extraction), std::move(result), true);
    } else if (!has_corrections_) {
      result_ = engine_.Analyze(extraction_.frames, extraction_.records,
                                examples.size());
      has_corrections_ = true;
    }
    return result_;
  }

  /// Records of the latest pass — Correction::support_records index into
  /// this vector.
  const std::vector<ConsistencyRecord>& LatestRecords() const {
    common::Check(cached_, "Analyze must run first");
    return extraction_.records;
  }

  /// Corrections from the latest analysis of `examples`.
  const std::vector<Correction>& Corrections(
      std::span<const Example> examples) {
    return Analyze(examples).corrections;
  }

  /// Drops the memoised pass. Callers must invalidate whenever example
  /// content may have changed without the (pointer, size) key changing —
  /// e.g. a freshly allocated stream of the same length after retraining
  /// the model (allocator reuse can alias the key).
  void Invalidate() {
    cached_ = false;
    has_corrections_ = false;
    extraction_ = {};
    result_ = {};
    cache_data_ = nullptr;
    cache_size_ = 0;
  }

 private:
  bool Cached(std::span<const Example> examples) const {
    return cached_ && cache_data_ == examples.data() &&
           cache_size_ == examples.size();
  }

  void Store(std::span<const Example> examples,
             ConsistencyExtraction extraction, ConsistencyResult result,
             bool has_corrections) {
    extraction_ = std::move(extraction);
    result_ = std::move(result);
    has_corrections_ = has_corrections;
    cache_data_ = examples.data();
    cache_size_ = examples.size();
    cached_ = true;
  }

  ConsistencyEngine engine_;
  ExtractFn extract_;
  /// The memo: one key's extraction and result. Until `has_corrections_`
  /// the result holds only the severities.
  bool cached_ = false;
  bool has_corrections_ = false;
  ConsistencyExtraction extraction_;
  ConsistencyResult result_;
  const Example* cache_data_ = nullptr;
  std::size_t cache_size_ = 0;
};

/// One generated assertion = one column of the shared analyzer's result.
template <typename Example>
class GeneratedConsistencyAssertion final : public Assertion<Example> {
 public:
  GeneratedConsistencyAssertion(
      std::string name, std::shared_ptr<ConsistencyAnalyzer<Example>> analyzer,
      std::size_t column)
      : Assertion<Example>(std::move(name)),
        analyzer_(std::move(analyzer)),
        column_(column) {}

  std::vector<double> CheckAll(std::span<const Example> examples) override {
    const std::vector<std::vector<double>>& severities =
        analyzer_->Severities(examples);
    common::CheckIndex(static_cast<std::ptrdiff_t>(column_), 0,
                       static_cast<std::ptrdiff_t>(severities.size()),
                       "generated assertion column");
    return severities[column_];
  }

 private:
  std::shared_ptr<ConsistencyAnalyzer<Example>> analyzer_;
  std::size_t column_;
};

/// Implements the paper's AddConsistencyAssertion(Id, Attrs, T): builds a
/// shared analyzer, registers every generated assertion into `suite`, and
/// returns the analyzer so callers can pull corrections for weak supervision.
///
/// `name_prefix` disambiguates when several consistency sources coexist
/// (e.g. "" for the only source, "news:" for a second one).
template <typename Example>
std::shared_ptr<ConsistencyAnalyzer<Example>> AddConsistencyAssertion(
    AssertionSuite<Example>& suite, ConsistencyConfig config,
    typename ConsistencyAnalyzer<Example>::ExtractFn extract,
    const std::string& name_prefix = "") {
  auto analyzer = std::make_shared<ConsistencyAnalyzer<Example>>(
      std::move(config), std::move(extract));
  const auto names = analyzer->AssertionNames();
  common::Check(!names.empty(),
                "consistency config generates no assertions (no attribute "
                "keys and no temporal threshold)");
  for (std::size_t column = 0; column < names.size(); ++column) {
    suite.Add(std::make_unique<GeneratedConsistencyAssertion<Example>>(
        name_prefix + names[column], analyzer, column));
  }
  return analyzer;
}

}  // namespace omg::core
