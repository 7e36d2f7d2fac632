// Tests of the benchmark's pure helpers: percentile support, settle-window
// latency attribution, flag-digest canonicalisation, loss arithmetic and
// span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "helpers.hpp"
#include "spans.hpp"

namespace wirebench {
namespace {

std::vector<double> Ascending(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
  return values;
}

TEST(QuantileOf, ReportsValueAndSampleCount) {
  const std::vector<double> values = Ascending(1000);
  const std::optional<Quantile> p99 = QuantileOf(values, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);
  const std::optional<Quantile> p50 = QuantileOf(values, 0.50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 500.0);
  EXPECT_EQ(p50->beyond, 500u);
}

TEST(QuantileOf, RefusesWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(QuantileOf(Ascending(999), 0.99).has_value());
  EXPECT_TRUE(QuantileOf(Ascending(200), 0.95).has_value());
  EXPECT_FALSE(QuantileOf(Ascending(199), 0.95).has_value());
  EXPECT_FALSE(QuantileOf(Ascending(19), 0.50).has_value());
  EXPECT_FALSE(QuantileOf({}, 0.50).has_value());
  EXPECT_FALSE(QuantileOf(Ascending(100), 1.0).has_value());
}

TEST(QuantileValue, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(QuantileValue({5.0, 1.0, 3.0, 2.0, 4.0}, 0.25), 2.0);
  EXPECT_EQ(QuantileValue({4.0, 1.0, 3.0, 2.0}, 0.25), 1.75);
  EXPECT_EQ(QuantileValue({4.0, 1.0}, 1.0), 4.0);
}

TEST(GoodQuartile, TakesTheQuartileOnTheGoodSide) {
  // Two windows hit by host interference: slow times, low rates.
  const std::vector<double> times = {1.0, 1.1, 0.9, 1.0, 9.0, 8.0, 1.05, 0.95};
  EXPECT_LT(GoodQuartile(times, Better::kLower), 1.0);
  EXPECT_EQ(GoodQuartile(times, Better::kLower), QuantileValue(times, 0.25));
  const std::vector<double> rates = {100, 102, 98, 101, 20, 30, 99, 100};
  EXPECT_GT(GoodQuartile(rates, Better::kHigher), 100.0);
  EXPECT_EQ(GoodQuartile(rates, Better::kHigher), QuantileValue(rates, 0.75));
}

TEST(LeastStolen, KeepsTheWindowsAtOrBelowTheMedianSteal) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0, 5.0};
  // A calm run: every window at the lowest steal is kept.
  EXPECT_EQ(LeastStolen(values, std::vector<double>{0, 0, 0.01, 0, 0}),
            (std::vector<double>{1.0, 2.0, 4.0, 5.0}));
  // A run the host kept disturbing: the less-stolen half, ties included.
  EXPECT_EQ(LeastStolen(values, std::vector<double>{0.3, 0.1, 0.2, 0.1, 0.5}),
            (std::vector<double>{2.0, 3.0, 4.0}));
  EXPECT_EQ(LeastStolen(values, std::vector<double>{0.4, 0.3, 0.2, 0.1}),
            values);
  EXPECT_TRUE(LeastStolen({}, {}).empty());
}

TEST(SettlingFrame, FlagSettlesWithTheFrameCarryingExamplePlusLag) {
  // One stream, 64-example frames, settle lag 8: example 55 settles when
  // example 63 (frame 0) arrives, example 56 needs example 64 (frame 1).
  EXPECT_EQ(SettlingFrame(0, 55, 8, 64, 1), 0u);
  EXPECT_EQ(SettlingFrame(0, 56, 8, 64, 1), 1u);
  EXPECT_EQ(SettlingFrame(0, 0, 8, 8, 1), 1u);
  EXPECT_EQ(SettlingFrame(0, 7, 0, 8, 1), 0u);
}

TEST(SettlingFrame, RoundRobinGlobalFrame) {
  // Eight streams round-robin: stream 3's frame 1 is global frame 11, and
  // it settles example 100 (lag 8) of stream 3.
  EXPECT_EQ(SettlingFrame(3, 100, 8, 64, 8), 11u);
  EXPECT_EQ(SettlingFrame(7, 55, 8, 64, 8), 7u);
  EXPECT_EQ(SettlingFrame(0, 56, 8, 64, 8), 8u);
}

TEST(CanonicalDigest, IndependentOfArrivalOrder) {
  std::vector<FlagRecord> flags = {
      {0, 1, 17, 1.0}, {1, 0, 3, 0.5}, {0, 0, 17, 2.0}, {0, 1, 4, 1.0}};
  const std::uint64_t digest = CanonicalDigest(flags);
  std::reverse(flags.begin(), flags.end());
  EXPECT_EQ(CanonicalDigest(flags), digest);
  std::rotate(flags.begin(), flags.begin() + 1, flags.end());
  EXPECT_EQ(CanonicalDigest(flags), digest);
}

TEST(CanonicalDigest, SensitiveToEveryField) {
  const std::vector<FlagRecord> base = {{0, 1, 17, 1.0}, {1, 0, 3, 0.5}};
  const std::uint64_t digest = CanonicalDigest(base);
  for (int field = 0; field < 4; ++field) {
    std::vector<FlagRecord> changed = base;
    switch (field) {
      case 0: changed[0].stream = 2; break;
      case 1: changed[0].assertion = 0; break;
      case 2: changed[0].example = 18; break;
      case 3: changed[0].severity = 1.0000000000000002; break;
    }
    EXPECT_NE(CanonicalDigest(changed), digest) << "field " << field;
  }
  std::vector<FlagRecord> duplicated = base;
  duplicated.push_back(base[0]);
  EXPECT_NE(CanonicalDigest(duplicated), digest);
}

TEST(WireAccount, LostArithmetic) {
  // STATS order: offered, admitted, quota_rejected, decode_errors, scored,
  // shed, dropped, errored. The run reports `failed` = Lost(), so
  // lost_frac = failed / attempted = 45 / 1000.
  const std::vector<std::uint64_t> stats = {1000, 960, 10, 5, 955, 5, 20, 5};
  const std::optional<WireAccount> account = WireAccount::FromStats(stats);
  ASSERT_TRUE(account.has_value());
  EXPECT_EQ(account->Lost(), 45u);
  EXPECT_TRUE(account->Reconciles());

  WireAccount off = *account;
  off.scored -= 1;
  EXPECT_FALSE(off.Reconciles());
  EXPECT_TRUE(WireAccount{}.Reconciles());
  EXPECT_FALSE(WireAccount::FromStats(std::vector<std::uint64_t>(7))
                   .has_value());
}

TEST(LayerTimes, SelfTimeSubtractsCoveredChildTime) {
  const std::vector<Span> spans = {
      {"frame", 1, 0, 7, 0, 100, 0},
      {"send", 2, 1, 7, 10, 40, 0},
      {"send", 3, 1, 7, 30, 60, 0},    // overlaps the first child
      {"flag", 4, 1, 7, 90, 150, 1},   // clipped at the parent's end
  };
  const std::map<std::string, LayerTime> layers = LayerTimes(spans);
  EXPECT_EQ(layers.at("frame").count, 1u);
  EXPECT_DOUBLE_EQ(layers.at("frame").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(layers.at("frame").self_ns, 100.0 - 50.0 - 10.0);
  EXPECT_EQ(layers.at("send").count, 2u);
  EXPECT_DOUBLE_EQ(layers.at("send").MeanSelfNs(), 30.0);
  EXPECT_DOUBLE_EQ(layers.at("flag").self_ns, 60.0);
}

}  // namespace
}  // namespace wirebench
