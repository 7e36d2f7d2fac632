// Pure helpers of the wire-to-flag benchmark: percentiles that state their
// support, settle-window latency attribution, the canonical flag digest,
// and the loss arithmetic. They hold no benchmark state, so the helper
// tests (tests/helper_tests.cpp) pin each one without a running system.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace wirebench {

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// One nearest-rank percentile together with the sample it came from.
struct Quantile {
  double value = 0.0;
  /// Samples the percentile was taken over.
  std::size_t samples = 0;
  /// Samples strictly above the percentile's rank.
  std::size_t beyond = 0;
};

/// Nearest-rank percentile `q` in (0, 1) of `sorted` (ascending). Refuses
/// (nullopt) when fewer than kMinSamplesBeyond samples lie beyond the rank:
/// such a tail is one outlier, not a percentile.
std::optional<Quantile> QuantileOf(std::span<const double> sorted, double q);

/// The `q`-quantile (q in [0, 1]) of `values`, linearly interpolated
/// between order statistics; 0 for an empty input.
double QuantileValue(std::vector<double> values, double q);

/// Median of `values`; 0 for an empty input.
double Median(std::vector<double> values);

enum class Better { kLower, kHigher };

/// Aggregates one metric over a run's windows: the quartile on the good
/// side (the lower quartile when lower is better). Interference from other
/// tenants of the host only ever makes a window worse, so this tracks the
/// system's own figure where a median would follow the host.
double GoodQuartile(std::vector<double> values, Better better);

/// The values of the windows the host disturbed least: those whose
/// `steal` (hypervisor steal time during the window) is at most the lower
/// median of all windows' steal, ties kept, so a run the host left alone
/// keeps nearly every window. `values` and `steal` pair up by index.
std::vector<double> LeastStolen(std::span<const double> values,
                                std::span<const double> steal);

/// The frame whose arrival settles a flag on example `example` of
/// `stream`, when frames of `frame_examples` examples go round-robin over
/// `streams` streams (global frame g carries stream g % streams). The
/// evaluator emits example i once example i + settle_lag has been
/// observed, so it is the stream's frame carrying example i + settle_lag.
std::uint64_t SettlingFrame(std::size_t stream, std::uint64_t example,
                            std::size_t settle_lag, std::size_t frame_examples,
                            std::size_t streams);

/// One flag in canonical form. The stream is its position in the
/// workload's stream list, the assertion its column in the suite.
struct FlagRecord {
  std::uint32_t stream = 0;
  std::uint32_t assertion = 0;
  std::uint64_t example = 0;
  double severity = 0.0;
};

/// FNV-1a 64 over the records sorted by (stream, example, assertion,
/// severity bits): equal for any arrival order of the same multiset of
/// flags, different when any field of any flag differs.
std::uint64_t CanonicalDigest(std::vector<FlagRecord> records);

/// The eight counters of a STATS reply, in wire order.
struct WireAccount {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t quota_rejected = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t scored = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errored = 0;

  /// Parses a STATS reply; nullopt unless it carries exactly 8 counters.
  static std::optional<WireAccount> FromStats(
      std::span<const std::uint64_t> values);

  /// Examples that reached no assertion: shed + dropped + errored +
  /// quota_rejected + decode_errors.
  std::uint64_t Lost() const;
  /// offered == scored + Lost(), exactly.
  bool Reconciles() const;
};

/// Renders `value` with every digit a double holds (JSON number syntax).
std::string JsonNumber(double value);

/// Quotes and escapes `text` as a JSON string.
std::string JsonString(const std::string& text);

}  // namespace wirebench
