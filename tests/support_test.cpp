#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "support/arena.hpp"
#include "support/check.hpp"
#include "support/dot.hpp"
#include "support/ids.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/str.hpp"

namespace hca {
namespace {

// --- ids -------------------------------------------------------------------

TEST(IdsTest, DefaultIsInvalid) {
  DdgNodeId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, DdgNodeId::invalid());
}

TEST(IdsTest, ValueRoundTrip) {
  ClusterId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7);
  EXPECT_EQ(id.index(), 7u);
}

TEST(IdsTest, Ordering) {
  EXPECT_LT(WireId(1), WireId(2));
  EXPECT_GT(WireId(5), WireId(2));
  EXPECT_LE(WireId(2), WireId(2));
  EXPECT_GE(WireId(2), WireId(2));
  EXPECT_NE(WireId(1), WireId(2));
}

TEST(IdsTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<DdgNodeId, ClusterId>);
  static_assert(!std::is_same_v<WireId, CnId>);
}

TEST(IdsTest, Hashable) {
  std::unordered_set<ValueId> set;
  set.insert(ValueId(1));
  set.insert(ValueId(2));
  set.insert(ValueId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(IdsTest, ToString) {
  EXPECT_EQ(to_string(CnId(12)), "12");
  EXPECT_EQ(to_string(CnId::invalid()), "<invalid>");
}

// --- check -----------------------------------------------------------------

TEST(CheckTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(HCA_REQUIRE(false, "message " << 42), InvalidArgumentError);
}

TEST(CheckTest, CheckThrowsInternalError) {
  EXPECT_THROW(HCA_CHECK(false, "broken"), InternalError);
}

TEST(CheckTest, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(HCA_REQUIRE(true, "ok"));
  EXPECT_NO_THROW(HCA_CHECK(1 + 1 == 2, "ok"));
}

TEST(CheckTest, MessageContainsContext) {
  try {
    HCA_REQUIRE(false, "value was " << 7);
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value was 7"), std::string::npos);
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos);
  }
}

/// A checked accessor of the kind the cold failure path keeps inlinable:
/// both macros, their messages built from locals and a member.
struct CheckedRow {
  static constexpr int kRequireLine = __LINE__ + 4;  // HCA_REQUIRE's line
  static constexpr int kCheckLine = kRequireLine + 1;
  int size = 3;
  int at(int i) const {
    HCA_REQUIRE(i >= 0 && i < size, "index " << i << " of " << size);
    HCA_CHECK(i != 1, "slot " << i << " is reserved");
    return i;
  }
};

TEST(CheckTest, MessagesArePinned) {
  const CheckedRow row;
  const std::string file = __FILE__;
  try {
    (void)row.at(5);
    FAIL() << "expected throw";
  } catch (const InvalidArgumentError& e) {
    EXPECT_EQ(std::string(e.what()),
              "precondition failed: i >= 0 && i < size at " + file + ":" +
                  std::to_string(CheckedRow::kRequireLine) + " — index 5 of 3");
  }
  try {
    (void)row.at(1);
    FAIL() << "expected throw";
  } catch (const InternalError& e) {
    EXPECT_EQ(std::string(e.what()),
              "invariant failed: i != 1 at " + file + ":" +
                  std::to_string(CheckedRow::kCheckLine) + " — slot 1 is reserved");
  }
  EXPECT_EQ(row.at(2), 2);
}

TEST(CheckTest, ErrorsShareBase) {
  EXPECT_THROW(HCA_REQUIRE(false, ""), Error);
  EXPECT_THROW(HCA_CHECK(false, ""), Error);
}

// --- rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= (v == -3);
    sawHi |= (v == 3);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng rng(5);
  const auto first = rng.next();
  rng.next();
  rng.reseed(5);
  EXPECT_EQ(rng.next(), first);
}

// --- stats -----------------------------------------------------------------

TEST(StatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(StatsTest, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
}

TEST(StatsTest, SumMatches) {
  RunningStats s;
  double expected = 0;
  for (int i = 1; i <= 10; ++i) {
    s.add(i);
    expected += i;
  }
  EXPECT_DOUBLE_EQ(s.sum(), expected);
}

TEST(StatsTest, MergeEmptyIntoEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0);
  EXPECT_TRUE(std::isnan(a.min()));
  EXPECT_TRUE(std::isnan(a.max()));
}

TEST(StatsTest, MergeEmptyOperandIsNoOp) {
  // The empty side's NaN min()/max() must not propagate into the
  // populated accumulator.
  RunningStats a, empty;
  a.add(3.0);
  a.add(7.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 7.0);
  EXPECT_FALSE(std::isnan(a.mean()));
}

TEST(StatsTest, MergeIntoEmptyAdoptsOperand) {
  RunningStats a, b;
  b.add(-2.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.mean(), 1.0);
}

TEST(StatsTest, MergeMatchesSequentialAdd) {
  // Splitting a sample stream across two accumulators and merging must
  // reproduce the single-accumulator moments (Chan combine).
  const std::vector<double> samples{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats whole, left, right;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    whole.add(samples[i]);
    (i < 3 ? left : right).add(samples[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
}

// --- log -------------------------------------------------------------------

TEST(LogTest, LevelFromString) {
  EXPECT_EQ(logLevelFromString("debug"), LogLevel::kDebug);
  EXPECT_EQ(logLevelFromString("WARN"), LogLevel::kWarn);
  EXPECT_EQ(logLevelFromString("warning"), LogLevel::kWarn);
  EXPECT_EQ(logLevelFromString("off"), LogLevel::kOff);
  EXPECT_EQ(logLevelFromString("0"), LogLevel::kTrace);
  EXPECT_EQ(logLevelFromString("4"), LogLevel::kOff);
  EXPECT_EQ(logLevelFromString("bogus"), std::nullopt);
  EXPECT_EQ(logLevelFromString(""), std::nullopt);
}

TEST(LogTest, FormatLineCarriesTimestampLevelAndThread) {
  const std::string line = Logger::formatLine(LogLevel::kInfo, "hello");
  // `[YYYY-MM-DDTHH:MM:SS.mmmZ hca:INFO t<id>] hello`
  ASSERT_GE(line.size(), 30u);
  EXPECT_EQ(line.front(), '[');
  EXPECT_EQ(line[5], '-');
  EXPECT_EQ(line[8], '-');
  EXPECT_EQ(line[11], 'T');
  EXPECT_EQ(line[14], ':');
  EXPECT_EQ(line[17], ':');
  EXPECT_EQ(line[20], '.');
  EXPECT_EQ(line[24], 'Z');
  EXPECT_NE(line.find(" hca:INFO t"), std::string::npos);
  EXPECT_EQ(line.substr(line.size() - 7), "] hello");
}

TEST(LogTest, FormatLineLevels) {
  EXPECT_NE(Logger::formatLine(LogLevel::kTrace, "x").find("hca:TRACE"),
            std::string::npos);
  EXPECT_NE(Logger::formatLine(LogLevel::kWarn, "x").find("hca:WARN"),
            std::string::npos);
}

// --- str -------------------------------------------------------------------

TEST(StrTest, StrCat) {
  EXPECT_EQ(strCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(strCat(), "");
}

TEST(StrTest, StrJoin) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(strJoin(v, ", "), "1, 2, 3");
  EXPECT_EQ(strJoin(std::vector<int>{}, ","), "");
}

TEST(StrTest, StrSplit) {
  const auto parts = strSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

// --- dot -------------------------------------------------------------------

TEST(DotTest, EmitsWellFormedGraph) {
  std::ostringstream os;
  {
    DotWriter dot(os, "g");
    dot.node("a", "label \"x\"");
    dot.edge("a", "b", "copy");
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("digraph \"g\""), std::string::npos);
  EXPECT_NE(out.find("\\\"x\\\""), std::string::npos);  // quote escaping
  EXPECT_NE(out.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
  EXPECT_NE(out.find("}"), std::string::npos);
}

// --- arena -----------------------------------------------------------------

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  MonotonicArena arena(256);
  auto* a = arena.allocateArray<std::uint64_t>(4);
  auto* b = arena.allocateArray<std::uint32_t>(3);
  void* c = arena.allocate(1, 1);
  void* d = arena.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(std::uint64_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % alignof(std::uint32_t), 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % 8, 0u);
  // Disjoint: writing one block must not disturb another.
  for (int i = 0; i < 4; ++i) a[i] = 0x1111111111111111ULL * (i + 1);
  for (int i = 0; i < 3; ++i) b[i] = 0x22222222U;
  *static_cast<char*>(c) = 'x';
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a[i], 0x1111111111111111ULL * (i + 1));
  }
  for (int i = 0; i < 3; ++i) EXPECT_EQ(b[i], 0x22222222U);
}

TEST(ArenaTest, ResetKeepsChunksAndTracksPeak) {
  MonotonicArena arena(1024);
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  const auto usedBefore = arena.bytesUsed();
  const auto reservedBefore = arena.bytesReserved();
  EXPECT_GE(usedBefore, 64u * 64u);
  EXPECT_GE(arena.peakBytesUsed(), usedBefore);

  arena.reset();
  EXPECT_EQ(arena.bytesUsed(), 0u);
  EXPECT_EQ(arena.peakBytesUsed(), usedBefore);  // peak survives reset
  EXPECT_EQ(arena.bytesReserved(), reservedBefore);  // chunks kept

  // Steady state: re-filling to the same high-water mark reuses the kept
  // chunks and reserves nothing new.
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  EXPECT_EQ(arena.bytesReserved(), reservedBefore);
  EXPECT_EQ(arena.peakBytesUsed(), usedBefore);
}

TEST(ArenaTest, OversizeRequestsGetDedicatedChunks) {
  MonotonicArena arena(128);
  auto* big = arena.allocateArray<std::byte>(4096);
  ASSERT_NE(big, nullptr);
  big[0] = std::byte{1};
  big[4095] = std::byte{2};
  EXPECT_GE(arena.bytesReserved(), 4096u);
  // Small allocations still work after an oversize one.
  void* small = arena.allocate(16, 8);
  EXPECT_NE(small, nullptr);
}

// --- json ------------------------------------------------------------------

TEST(JsonTest, RejectsDuplicateObjectKeys) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(parseJson(R"({"a": 1, "b": 2, "a": 3})", &doc, &error));
  EXPECT_NE(error.find("duplicate object key \"a\""), std::string::npos);

  // Nested objects are checked too, but keys in distinct objects may repeat.
  EXPECT_FALSE(parseJson(R"({"o": {"x": 1, "x": 2}})", &doc, &error));
  EXPECT_NE(error.find("duplicate object key \"x\""), std::string::npos);
  EXPECT_TRUE(parseJson(R"({"o": {"x": 1}, "p": {"x": 2}})", &doc, &error))
      << error;
}

}  // namespace
}  // namespace hca
