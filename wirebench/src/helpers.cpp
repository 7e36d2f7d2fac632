#include "helpers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <tuple>

namespace wirebench {

std::optional<Quantile> QuantileOf(std::span<const double> sorted, double q) {
  if (!(q > 0.0 && q < 1.0) || sorted.empty()) return std::nullopt;
  const std::size_t n = sorted.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));  // 1-based nearest rank
  const std::size_t beyond = n - std::max<std::size_t>(rank, 1);
  if (beyond < kMinSamplesBeyond) return std::nullopt;
  return Quantile{sorted[std::max<std::size_t>(rank, 1) - 1], n, beyond};
}

double QuantileValue(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  if (below + 1 >= values.size()) return values.back();
  const double fraction = position - static_cast<double>(below);
  return values[below] + fraction * (values[below + 1] - values[below]);
}

double Median(std::vector<double> values) {
  return QuantileValue(std::move(values), 0.5);
}

double GoodQuartile(std::vector<double> values, Better better) {
  return QuantileValue(std::move(values),
                       better == Better::kLower ? 0.25 : 0.75);
}

std::vector<double> LeastStolen(std::span<const double> values,
                                std::span<const double> steal) {
  if (values.empty() || steal.size() != values.size()) {
    return {values.begin(), values.end()};
  }
  std::vector<double> sorted(steal.begin(), steal.end());
  std::sort(sorted.begin(), sorted.end());
  const double threshold = sorted[(sorted.size() - 1) / 2];
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= threshold) kept.push_back(values[i]);
  }
  return kept;
}

std::uint64_t SettlingFrame(std::size_t stream, std::uint64_t example,
                            std::size_t settle_lag, std::size_t frame_examples,
                            std::size_t streams) {
  return (example + settle_lag) / frame_examples * streams + stream;
}

std::uint64_t CanonicalDigest(std::vector<FlagRecord> records) {
  const auto key = [](const FlagRecord& r) {
    return std::make_tuple(r.stream, r.example, r.assertion,
                           std::bit_cast<std::uint64_t>(r.severity));
  };
  std::sort(records.begin(), records.end(),
            [&key](const FlagRecord& a, const FlagRecord& b) {
              return key(a) < key(b);
            });
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const FlagRecord& r : records) {
    mix(r.stream);
    mix(r.example);
    mix(r.assertion);
    mix(std::bit_cast<std::uint64_t>(r.severity));
  }
  return hash;
}

std::optional<WireAccount> WireAccount::FromStats(
    std::span<const std::uint64_t> values) {
  if (values.size() != 8) return std::nullopt;
  return WireAccount{values[0], values[1], values[2], values[3],
                     values[4], values[5], values[6], values[7]};
}

std::uint64_t WireAccount::Lost() const {
  return shed + dropped + errored + quota_rejected + decode_errors;
}

bool WireAccount::Reconciles() const { return offered == scored + Lost(); }

std::string JsonNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace wirebench
