// Deterministic random-number generation for all OMG-C++ experiments.
//
// Every piece of randomness in the library flows through `Rng` so that every
// experiment is reproducible bit-for-bit from a single seed. The generator is
// xoshiro256** (Blackman & Vigna) seeded via SplitMix64, both implemented
// from the published reference algorithms.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace omg::common {

/// SplitMix64 step: used to expand a single 64-bit seed into generator state.
std::uint64_t SplitMix64(std::uint64_t& state);

/// Deterministic pseudo-random generator (xoshiro256**). Use the member
/// helpers below: their results are identical across platforms.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  result_type operator()();

  /// Derives an independent child generator; `stream` disambiguates children
  /// created from the same parent state.
  Rng Fork(std::uint64_t stream);

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double Normal();

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Normal(double mean, double stddev);

  /// Bernoulli draw with probability p in [0, 1].
  bool Bernoulli(double p);

  /// Exponential with the given rate (> 0).
  double Exponential(double rate);

  /// Samples an index in [0, weights.size()) proportional to `weights`.
  /// Weights must be non-negative with a positive sum.
  std::size_t Categorical(std::span<const double> weights);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          UniformInt(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly (k <= n).
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t k);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace omg::common
