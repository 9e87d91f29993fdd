#include <gtest/gtest.h>

#include "ddg/builder.hpp"
#include "ddg/interp.hpp"
#include "ddg/kernels.hpp"
#include "ddg/serialize.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace hca::ddg {
namespace {

bool sameDdg(const Ddg& a, const Ddg& b) {
  if (a.numNodes() != b.numNodes()) return false;
  for (std::int32_t v = 0; v < a.numNodes(); ++v) {
    const auto& na = a.node(DdgNodeId(v));
    const auto& nb = b.node(DdgNodeId(v));
    if (na.op != nb.op || na.imm0 != nb.imm0 || na.imm1 != nb.imm1 ||
        na.name != nb.name || na.operands.size() != nb.operands.size()) {
      return false;
    }
    for (std::size_t i = 0; i < na.operands.size(); ++i) {
      if (na.operands[i].src != nb.operands[i].src ||
          na.operands[i].distance != nb.operands[i].distance ||
          na.operands[i].init != nb.operands[i].init) {
        return false;
      }
    }
  }
  return true;
}

TEST(SerializeTest, RoundTripsHandWrittenDdg) {
  DdgBuilder b;
  auto iv = b.carry(7, "iv");
  const auto next = b.add(iv, b.cst(1), "iv.next");
  b.close(iv, next, 1);
  const auto x = b.load(next, 64, "x");
  b.store(next, b.clip(x, -128, 127), 128);
  const Ddg original = b.finish();

  const auto text = toText(original);
  const Ddg parsed = fromText(text);
  EXPECT_TRUE(sameDdg(original, parsed)) << text;
}

TEST(SerializeTest, RoundTripsAllTableOneKernels) {
  for (const auto& kernel : table1Kernels()) {
    const auto text = toText(kernel.ddg);
    const Ddg parsed = fromText(text);
    EXPECT_TRUE(sameDdg(kernel.ddg, parsed)) << kernel.name;
    // Behaviour is preserved, not just structure.
    const int iterations = std::min(kernel.safeIterations, 4);
    const auto config = kernelInterpConfig(kernel, iterations);
    EXPECT_EQ(interpret(kernel.ddg, config).memory,
              interpret(parsed, config).memory)
        << kernel.name;
  }
}

class SerializeRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeRandomTest, RoundTripsRandomDdgs) {
  Rng rng(GetParam());
  RandomDdgParams params;
  params.numInstructions = 40 + static_cast<int>(GetParam() % 50);
  const Ddg original = randomDdg(rng, params);
  EXPECT_TRUE(sameDdg(original, fromText(toText(original))));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeRandomTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  const char* text =
      "# a comment\n"
      "\n"
      "node const imm0=5   # trailing comment\n"
      "node const imm0=9\n"
      "node store ops=0,1\n";
  const Ddg ddg = fromText(text);
  EXPECT_EQ(ddg.numNodes(), 3);
  EXPECT_EQ(ddg.node(DdgNodeId(0)).imm0, 5);
  EXPECT_EQ(ddg.node(DdgNodeId(2)).operands.size(), 2u);
}

TEST(SerializeTest, OperandShorthands) {
  const char* text =
      "node const imm0=1\n"
      "node add ops=1:1:42,0\n"  // self-carried with init; plain const ref
      "node store ops=0,1\n";
  const Ddg ddg = fromText(text);
  const auto& add = ddg.node(DdgNodeId(1));
  EXPECT_EQ(add.operands[0].distance, 1);
  EXPECT_EQ(add.operands[0].init, 42);
  EXPECT_EQ(add.operands[1].distance, 0);
}

TEST(SerializeTest, ErrorsCarryLineNumbers) {
  try {
    (void)fromText("node const\nnode bogusop\n");
    FAIL() << "expected parse error";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(SerializeTest, RejectsMalformedInput) {
  EXPECT_THROW(fromText("banana const\n"), InvalidArgumentError);
  EXPECT_THROW(fromText("node add ops=0:0:0\n"), InvalidArgumentError);
  EXPECT_THROW(fromText("node const imm0=1 bogus=2\n"),
               InvalidArgumentError);
  EXPECT_THROW(fromText("node\n"), InvalidArgumentError);
  // Arity violations surface through validate().
  EXPECT_THROW(fromText("node const imm0=1\nnode add ops=0\n"),
               InvalidArgumentError);
}

TEST(SerializeTest, RejectsOutOfRangeIntegers) {
  // Before range checking, 4294967296 silently wrapped to node 0 and the
  // stream parsed "successfully" into the wrong graph.
  const char* wrapSrc = "node const imm0=1\nnode store ops=4294967296,0\n";
  try {
    (void)fromText(wrapSrc);
    FAIL() << "expected out-of-range error";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  // 2^31 (just past INT32_MAX) used to wrap negative.
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=2147483648,0\n"),
               InvalidArgumentError);
  // Distance field wraps too.
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=0:4294967297,0\n"),
               InvalidArgumentError);
  // Values too large even for int64 are a parse error, not UB.
  EXPECT_THROW(fromText("node const imm0=99999999999999999999\n"),
               InvalidArgumentError);
  EXPECT_THROW(
      fromText("node const imm0=1\nnode store ops=99999999999999999999,0\n"),
      InvalidArgumentError);
}

TEST(SerializeTest, RejectsNegativeOperandFields) {
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=-1,0\n"),
               InvalidArgumentError);
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=0:-2,0\n"),
               InvalidArgumentError);
}

TEST(SerializeTest, RejectsTruncatedAndCorruptStreams) {
  // Line cut off mid-token.
  EXPECT_THROW(fromText("node const imm0=1\nnode ad"), InvalidArgumentError);
  // Operand triple with missing pieces or trailing colon-garbage.
  EXPECT_THROW(fromText("node add ops=,1\n"), InvalidArgumentError);
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=0:,1\n"),
               InvalidArgumentError);
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=0:0:0:0,1\n"),
               InvalidArgumentError);
  // Dangling reference past the end of a truncated stream.
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=99,0\n"),
               InvalidArgumentError);
  // Field with no '=' separator.
  EXPECT_THROW(fromText("node const imm0\n"), InvalidArgumentError);
  // Non-numeric garbage inside an operand.
  EXPECT_THROW(fromText("node const imm0=1\nnode store ops=0x1,0\n"),
               InvalidArgumentError);
}

}  // namespace
}  // namespace hca::ddg
