// Sanitizer-edge regressions. Each test pins a path the ASan/UBSan CI
// matrix must keep exercising — the suspects from the first sanitizer
// bring-up (AnyExample's heap-spill storage, the wire codec's f64 /
// unaligned byte reads, LatencyHistogram's extreme-value bucketing).
// They assert behavior too, but their main job is to put the edge path
// in front of the sanitizers on every run.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.hpp"
#include "runtime/latency_histogram.hpp"
#include "serve/any_example.hpp"

namespace omg {
namespace {

// ------------------------------------------------------------------------
// A payload larger than AnyExample::kInlineCapacity, forcing the heap
// spill path on every wrap / clone / relocate.
struct BigExample {
  std::array<double, 64> samples{};  // 512 bytes, well past the SBO
  std::string label;
};

}  // namespace
}  // namespace omg

template <>
struct omg::serve::DomainTraits<omg::BigExample> {
  static constexpr std::string_view kDomain = "test-big";
  static std::string DebugString(const omg::BigExample& example) {
    return "big:" + example.label;
  }
};

namespace omg {
namespace {

using runtime::LatencyHistogram;
using serve::AnyExample;

BigExample MakeBig(double seed, std::string label) {
  BigExample example;
  for (std::size_t i = 0; i < example.samples.size(); ++i) {
    example.samples[i] = seed + static_cast<double>(i);
  }
  example.label = std::move(label);
  return example;
}

TEST(SanitizerRegressions, AnyExampleHeapSpillSurvivesCloneAndMoveCycles) {
  static_assert(sizeof(BigExample) > AnyExample::kInlineCapacity,
                "BigExample must exercise the heap-spill path");
  AnyExample a = AnyExample::Make(MakeBig(1.0, "a"));
  ASSERT_TRUE(a.Is<BigExample>());
  EXPECT_EQ(a.domain(), "test-big");

  // Clone through the vtable, then mutate the copy: storage is disjoint.
  AnyExample b(a);
  b.TryGetMutable<BigExample>()->label = std::string("b");
  EXPECT_EQ(a.Get<BigExample>().label, "a");
  EXPECT_EQ(b.Get<BigExample>().label, "b");

  // Move transfers the spill block; the source empties, no double free.
  AnyExample c(std::move(a));
  EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move): asserts the moved-from state
  EXPECT_EQ(c.Get<BigExample>().label, "a");

  // Copy-assign over a live spill payload (old block must be released),
  // then self-assign through a reference (no aliasing corruption).
  c = b;
  EXPECT_EQ(c.Get<BigExample>().label, "b");
  AnyExample& alias = c;
  c = alias;
  EXPECT_EQ(c.Get<BigExample>().label, "b");

  // Replace a spill payload in place, and leave holders non-empty at
  // scope exit so the destructor path releases spill blocks too.
  c.Emplace<BigExample>(MakeBig(2.0, "replaced"));
  EXPECT_DOUBLE_EQ(c.Get<BigExample>().samples[0], 2.0);
  EXPECT_EQ(c.Get<BigExample>().label, "replaced");
}

TEST(SanitizerRegressions, WireReadsAreSafeFromMisalignedBuffers) {
  net::WireWriter writer;
  writer.U8(0x5a);  // 1-byte prefix keeps every later field misaligned
  writer.F64(3.141592653589793);
  writer.U64(0x0123456789abcdefULL);
  writer.U32(0xdeadbeef);
  writer.String("misaligned");
  const std::span<const std::uint8_t> encoded = writer.bytes();

  // Re-home the frame at storage offset 1: if any field read were a raw
  // pointer-cast load instead of byte assembly, UBSan's alignment check
  // would fire here.
  std::vector<std::uint8_t> shifted(encoded.size() + 1);
  shifted[0] = 0;
  std::memcpy(shifted.data() + 1, encoded.data(), encoded.size());

  net::WireReader reader(
      std::span<const std::uint8_t>(shifted.data() + 1, encoded.size()));
  std::uint8_t prefix = 0;
  double f64 = 0.0;
  std::uint64_t u64 = 0;
  std::uint32_t u32 = 0;
  std::string text;
  ASSERT_TRUE(reader.U8(prefix));
  ASSERT_TRUE(reader.F64(f64));
  ASSERT_TRUE(reader.U64(u64));
  ASSERT_TRUE(reader.U32(u32));
  ASSERT_TRUE(reader.String(text));
  EXPECT_EQ(prefix, 0x5a);
  EXPECT_DOUBLE_EQ(f64, 3.141592653589793);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(text, "misaligned");
}

TEST(SanitizerRegressions, WireF64RoundTripsNonFiniteAndDenormalBits) {
  const double cases[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::max()};
  for (const double value : cases) {
    net::WireWriter writer;
    writer.F64(value);
    net::WireReader reader(writer.bytes());
    double decoded = 0.0;
    ASSERT_TRUE(reader.F64(decoded));
    // Bit-exact round trip, including NaN payloads and the sign of -0.
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::memcpy(&sent, &value, sizeof(sent));
    std::memcpy(&received, &decoded, sizeof(received));
    EXPECT_EQ(sent, received);
  }
}

TEST(SanitizerRegressions, LatencyHistogramAbsorbsExtremeSamples) {
  LatencyHistogram histogram;
  // Non-finite and negative samples are sanitized to 0, not bucketed by
  // a float->size_t cast (which would be UB for these values).
  histogram.Record(std::numeric_limits<double>::quiet_NaN());
  histogram.Record(std::numeric_limits<double>::infinity());
  histogram.Record(-std::numeric_limits<double>::infinity());
  histogram.Record(-1.0);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(), 0.0);

  // Huge-but-finite samples must clamp into the last slot, and tiny ones
  // into the first, without overflowing the octave index.
  histogram.Record(std::numeric_limits<double>::max());
  histogram.Record(std::numeric_limits<double>::denorm_min());
  histogram.Record(0.0);
  EXPECT_EQ(histogram.count(), 7u);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(),
                   std::numeric_limits<double>::max());
  // Quantiles stay inside [min, max] even with the extreme spread.
  const double p50 = histogram.Quantile(0.5);
  const double p999 = histogram.Quantile(0.999);
  EXPECT_GE(p50, histogram.min_seconds());
  EXPECT_LE(p999, histogram.max_seconds());
  EXPECT_LE(p50, p999);

  // Merging extreme histograms keeps min/max and counts coherent.
  LatencyHistogram other;
  other.Record(1e-9);
  other.Record(5.0);
  histogram.Merge(other);
  EXPECT_EQ(histogram.count(), 9u);
  EXPECT_DOUBLE_EQ(histogram.max_seconds(),
                   std::numeric_limits<double>::max());
}

}  // namespace
}  // namespace omg
