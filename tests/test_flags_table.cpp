#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"

namespace omg::common {
namespace {

Flags ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "binary");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags flags = ParseArgs({"--seed=42"});
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
}

TEST(Flags, SpaceForm) {
  const Flags flags = ParseArgs({"--seed", "42"});
  EXPECT_EQ(flags.GetInt("seed", 0), 42);
}

TEST(Flags, BareBoolean) {
  const Flags flags = ParseArgs({"--verbose"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(Flags, BooleanValues) {
  EXPECT_FALSE(ParseArgs({"--x=false"}).GetBool("x", true));
  EXPECT_TRUE(ParseArgs({"--x=1"}).GetBool("x", false));
  EXPECT_THROW(ParseArgs({"--x=maybe"}).GetBool("x", false), CheckError);
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags flags = ParseArgs({});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("s", "x"), "x");
  EXPECT_FALSE(flags.Has("n"));
}

TEST(Flags, DoubleParsing) {
  EXPECT_DOUBLE_EQ(ParseArgs({"--lr=0.05"}).GetDouble("lr", 0.0), 0.05);
  EXPECT_THROW(ParseArgs({"--lr=abc"}).GetDouble("lr", 0.0), CheckError);
  EXPECT_THROW(ParseArgs({"--lr=0.05x"}).GetDouble("lr", 0.0), CheckError);
}

TEST(Flags, IntRejectsGarbage) {
  EXPECT_THROW(ParseArgs({"--n=abc"}).GetInt("n", 0), CheckError);
  EXPECT_THROW(ParseArgs({"--n=12abc"}).GetInt("n", 0), CheckError);
}

TEST(Flags, IntListParsing) {
  EXPECT_EQ(ParseArgs({"--workers=1,2,4"}).GetIntList("workers", {}),
            (std::vector<std::int64_t>{1, 2, 4}));
  // A single integer is a one-element list (sweep of one configuration).
  EXPECT_EQ(ParseArgs({"--workers=8"}).GetIntList("workers", {}),
            (std::vector<std::int64_t>{8}));
  EXPECT_EQ(ParseArgs({}).GetIntList("workers", {4}),
            (std::vector<std::int64_t>{4}));
  EXPECT_THROW(ParseArgs({"--workers=1,x"}).GetIntList("workers", {}),
               CheckError);
  EXPECT_THROW(ParseArgs({"--workers=1,,2"}).GetIntList("workers", {}),
               CheckError);
  EXPECT_THROW(ParseArgs({"--workers=1,2,"}).GetIntList("workers", {}),
               CheckError);
}

TEST(Flags, PositionalArguments) {
  const Flags flags = ParseArgs({"pos1", "--a=1", "pos2"});
  EXPECT_EQ(flags.Positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(Flags, CheckAllowedRejectsUnknown) {
  const Flags flags = ParseArgs({"--seed=1", "--typo=2"});
  EXPECT_THROW(flags.CheckAllowed({"seed"}), CheckError);
  EXPECT_NO_THROW(flags.CheckAllowed({"seed", "typo"}));
}

TEST(Flags, MixedFlagsBeforeValueFlag) {
  const Flags flags = ParseArgs({"--a", "--b=2"});
  EXPECT_TRUE(flags.GetBool("a", false));  // --a followed by a flag is bare
  EXPECT_EQ(flags.GetInt("b", 0), 2);
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "22"});
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("longer-name"), std::string::npos);
  EXPECT_NE(rendered.find("name"), std::string::npos);
  // All lines share the same column starts: the header "value" column must
  // begin at the same offset as "22".
  const auto header_pos = rendered.find("value");
  const auto cell_pos = rendered.find("22");
  const auto header_col = header_pos - rendered.rfind('\n', header_pos) - 1;
  const auto cell_col = cell_pos - rendered.rfind('\n', cell_pos) - 1;
  EXPECT_EQ(header_col, cell_col);
}

TEST(TextTable, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_EQ(table.RowCount(), 1u);
  EXPECT_NO_THROW(table.ToString());
}

TEST(Format, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
}

TEST(Format, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.464, 1), "46.4%");
  EXPECT_EQ(FormatPercent(1.0, 0), "100%");
}

}  // namespace
}  // namespace omg::common
