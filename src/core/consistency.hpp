// Consistency assertions and weak-label generation (§4 of the paper).
//
// The user describes a model's output with two functions — `Id` (an opaque
// identifier per output) and `Attrs` (named attributes expected to be
// consistent per identifier) — plus a temporal threshold `T`. From that
// description OMG generates:
//
//   * one Boolean assertion per attribute key, firing when outputs sharing an
//     identifier disagree on the attribute ("consistent:<key>");
//   * two temporal assertions when T > 0: `flicker` (an identifier
//     disappears and reappears within T seconds) and `appear` (an identifier
//     is present for less than T seconds between absences) — together these
//     enforce "at most one appear/disappear transition per T-second window";
//   * correction rules proposing new labels for outputs that fail an
//     assertion: the most common attribute value for attribute mismatches,
//     output removal for spurious brief appearances, and output insertion
//     for flicker gaps (materialised by a domain-provided WeakLabel
//     function, e.g. averaging the object's boxes on nearby frames).
//
// The engine is domain-agnostic: domains adapt their outputs into
// `ConsistencyRecord`s (e.g. the video pipeline assigns identifiers with an
// IoU tracker) and interpret the corrections back into their own output
// types.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace omg::core {

/// One model output occurrence, as seen by the consistency engine.
struct ConsistencyRecord {
  /// Index of the input/example this output belongs to.
  std::size_t example_index = 0;
  /// Index of this output within its example (frames can have many boxes).
  std::int64_t output_index = -1;
  /// Timestamp of the example, in seconds.
  double timestamp = 0.0;
  /// Comparisons happen only within a group (a scene, a video, a patient).
  std::string group;
  /// The identifier returned by the user's Id function.
  std::string identifier;
  /// Key-value attributes returned by the user's Attrs function.
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// One example (frame / window) on the timeline; frames with zero outputs
/// must still be listed so the engine knows when an identifier was absent.
struct ConsistencyFrame {
  std::size_t example_index = 0;
  double timestamp = 0.0;
  std::string group;
};

/// Configuration of a consistency assertion (§4.1's
/// AddConsistencyAssertion(Id, Attrs, T)).
struct ConsistencyConfig {
  /// Temporal threshold T in seconds; <= 0 disables flicker/appear.
  double temporal_threshold = 0.0;
  /// Attribute keys to check; keys seen in records but not listed here are
  /// ignored. The configured list is authoritative so the set of generated
  /// assertions is fixed per configuration.
  std::vector<std::string> attribute_keys;
};

/// Kinds of correction the engine proposes (§4.2).
enum class CorrectionKind {
  kSetAttribute,  ///< replace an inconsistent attribute with the mode value
  kRemoveOutput,  ///< drop a spurious brief appearance
  kAddOutput,     ///< insert a missing output in a flicker gap
};

/// A proposed correction; corrections become weak labels for retraining.
struct Correction {
  CorrectionKind kind = CorrectionKind::kSetAttribute;
  std::string group;
  std::string identifier;
  /// Example to modify.
  std::size_t example_index = 0;
  /// Timestamp of that example.
  double timestamp = 0.0;
  /// Output to modify/remove (set/remove kinds); -1 for add.
  std::int64_t output_index = -1;
  /// For kSetAttribute: which key and the proposed (mode) value.
  std::string attribute_key;
  std::string proposed_value;
  /// For kAddOutput: indices (into the engine's input records) of the same
  /// identifier's occurrences adjacent to the gap; the domain's WeakLabel
  /// function interpolates from these.
  std::vector<std::size_t> support_records;
};

/// Result of analysing a stream.
struct ConsistencyResult {
  /// Names of the generated assertions, e.g. {"consistent:gender",
  /// "flicker", "appear"}; fixed for a given config.
  std::vector<std::string> assertion_names;
  /// severities[a][e]: severity of generated assertion `a` on example `e`
  /// (counts of violations that touch the example).
  std::vector<std::vector<double>> severities;
  /// Proposed corrections, in deterministic order.
  std::vector<Correction> corrections;
};

/// Generates assertions and corrections from Id/Attrs/T descriptions.
class ConsistencyEngine {
 public:
  explicit ConsistencyEngine(ConsistencyConfig config);

  /// Names of the assertions this engine generates, in column order: one
  /// "consistent:<key>" per configured key, then "flicker" and "appear"
  /// when T > 0.
  std::vector<std::string> AssertionNames() const;

  /// Analyses one stream. `num_examples` bounds example indices; frames must
  /// cover every example index that appears in `records`.
  ConsistencyResult Analyze(const std::vector<ConsistencyFrame>& frames,
                            const std::vector<ConsistencyRecord>& records,
                            std::size_t num_examples) const;

  /// Analyze's `severities`, without building a Correction: what serving
  /// reads. Same preconditions, same checks.
  std::vector<std::vector<double>> Severities(
      const std::vector<ConsistencyFrame>& frames,
      const std::vector<ConsistencyRecord>& records,
      std::size_t num_examples) const;

 private:
  /// The one implementation behind both entry points; appends corrections
  /// only when `corrections` is non-null.
  std::vector<std::vector<double>> Run(
      const std::vector<ConsistencyFrame>& frames,
      const std::vector<ConsistencyRecord>& records, std::size_t num_examples,
      std::vector<Correction>* corrections) const;

  ConsistencyConfig config_;
};

}  // namespace omg::core
