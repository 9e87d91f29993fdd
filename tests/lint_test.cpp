// hca-lint test suite (ctest label `lint`).
//
// Covers the lexer's token-awareness (comments, strings, raw strings,
// includes, suppression markers), module classification, and — via the
// fixtures in tests/lint_fixtures/ — each rule family: one known-bad file
// per rule flagged by exactly that rule, one clean file flagged by none,
// plus the inline-suppression and baseline round trips.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/baseline.hpp"
#include "analysis/report.hpp"
#include "analysis/rules.hpp"
#include "analysis/source_model.hpp"
#include "support/io.hpp"

using namespace hca;
using namespace hca::analysis;

namespace {

[[nodiscard]] std::string fixture(const std::string& name) {
  return readFile(std::string(HCA_LINT_FIXTURE_DIR) + "/" + name);
}

/// Loads one fixture at a chosen repo-relative path (the path decides its
/// module, and with it which rules apply).
[[nodiscard]] SourceModel modelWith(
    const std::vector<std::pair<std::string, std::string>>& pathToFixture) {
  std::map<std::string, std::string> files;
  for (const auto& [relPath, fixtureName] : pathToFixture) {
    files[relPath] = fixture(fixtureName);
  }
  return SourceModel::loadFromMemory(files);
}

[[nodiscard]] std::set<std::string> rulesIn(
    const std::vector<Diagnostic>& diagnostics) {
  std::set<std::string> rules;
  for (const Diagnostic& d : diagnostics) rules.insert(d.rule);
  return rules;
}

// ---------------------------------------------------------------------------
// Lexer

TEST(LintLexer, StripsCommentsAndStrings) {
  const LexedFile lexed = lex(
      "// steady_clock in a line comment\n"
      "/* steady_clock in a block */\n"
      "const char* s = \"steady_clock in a string\";\n"
      "int steady = 1;\n");
  for (const Token& tok : lexed.tokens) {
    EXPECT_NE(tok.text, "steady_clock") << "leaked from comment/string";
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_EQ(lexed.comments[1].line, 2);
}

TEST(LintLexer, RawStringsDoNotLeakTokens) {
  const LexedFile lexed = lex(
      "const char* j = R\"x(steady_clock \" // not a comment)x\";\n"
      "int after = 2;\n");
  for (const Token& tok : lexed.tokens) {
    EXPECT_NE(tok.text, "steady_clock");
  }
  // The raw string must terminate at )x" — `after` still tokenizes, on the
  // right line.
  bool sawAfter = false;
  for (const Token& tok : lexed.tokens) {
    if (tok.text == "after") {
      sawAfter = true;
      EXPECT_EQ(tok.line, 2);
    }
  }
  EXPECT_TRUE(sawAfter);
}

TEST(LintLexer, ExtractsIncludes) {
  const LexedFile lexed = lex(
      "#include <vector>\n"
      "#include \"support/io.hpp\"\n"
      "// #include \"support/not_real.hpp\" (commented out)\n");
  ASSERT_EQ(lexed.includes.size(), 2u);
  EXPECT_TRUE(lexed.includes[0].angled);
  EXPECT_EQ(lexed.includes[0].path, "vector");
  EXPECT_FALSE(lexed.includes[1].angled);
  EXPECT_EQ(lexed.includes[1].path, "support/io.hpp");
  EXPECT_EQ(lexed.includes[1].line, 2);
}

TEST(LintLexer, ExtractsSuppressionMarkers) {
  const LexedFile lexed = lex(
      "int a;  // hca-lint: ordered-ok(proven order-insensitive)\n"
      "int b;  // hca-lint: clock-ok()\n"  // empty reason: not a marker
      "int c;  // hca-lint: mutex-ok no parens\n");
  ASSERT_EQ(lexed.suppressions.size(), 1u);
  EXPECT_EQ(lexed.suppressions[0].key, "ordered-ok");
  EXPECT_EQ(lexed.suppressions[0].reason, "proven order-insensitive");
  EXPECT_EQ(lexed.suppressions[0].line, 1);
}

TEST(LintLexer, TracksLineNumbers) {
  const LexedFile lexed = lex("int a;\n\n/* two\nlines */ int b;\n");
  bool sawB = false;
  for (const Token& tok : lexed.tokens) {
    if (tok.text == "b") {
      sawB = true;
      EXPECT_EQ(tok.line, 4);
    }
  }
  EXPECT_TRUE(sawB);
}

// ---------------------------------------------------------------------------
// Module classification

TEST(LintModel, ClassifiesModules) {
  EXPECT_EQ(classifyModule("src/support/io.hpp").rank, 0);
  EXPECT_EQ(classifyModule("src/graph/graph.hpp").rank, 1);
  EXPECT_EQ(classifyModule("src/ddg/ddg.hpp").rank, 2);
  EXPECT_EQ(classifyModule("src/machine/fault.hpp").rank, 2);
  EXPECT_EQ(classifyModule("src/see/engine.cpp").rank, 3);
  EXPECT_EQ(classifyModule("src/hca/driver.cpp").rank, 4);
  EXPECT_EQ(classifyModule("src/verify/checks.cpp").rank, 5);
  EXPECT_EQ(classifyModule("src/analysis/rules.cpp").rank, 6);
  EXPECT_EQ(classifyModule("tools/hcac.cpp").rank, 7);
  EXPECT_EQ(classifyModule("tests/lint_test.cpp").rank, 7);
  EXPECT_EQ(classifyModule("bench/bench_micro.cpp").rank, 7);
  EXPECT_EQ(classifyModule("README.md").rank, -1);
}

TEST(LintModel, ParsesCompileCommands) {
  const std::vector<CompileCommand> commands = parseCompileCommands(
      R"([{"directory": "/repo/build", "file": "../src/see/engine.cpp",
           "command": "c++ -c ../src/see/engine.cpp"},
          {"directory": "/repo/build", "file": "/repo/src/hca/driver.cpp",
           "command": "c++ -c /repo/src/hca/driver.cpp"}])");
  ASSERT_EQ(commands.size(), 2u);
  EXPECT_EQ(commands[0].file, "/repo/src/see/engine.cpp");
  EXPECT_EQ(commands[1].file, "/repo/src/hca/driver.cpp");
}

TEST(LintModel, LoadsThroughRelativeRoot) {
  namespace fs = std::filesystem;
  const fs::path root(HCA_LINT_FIXTURE_DIR);
  const fs::path relativeRoot = root.lexically_relative(fs::current_path());
  ASSERT_FALSE(relativeRoot.empty());
  ASSERT_TRUE(relativeRoot.is_relative());
  const std::vector<CompileCommand> commands = {
      {root.string(), (root / "clean.cpp").string()},
      {root.string(), (root / "bad_clock.cpp").string()}};
  const auto loadedPaths = [&](const fs::path& rootArg) {
    const SourceModel model = SourceModel::load(rootArg.string(), commands);
    std::vector<std::string> paths;
    for (const SourceFile& f : model.files()) paths.push_back(f.relPath);
    return paths;
  };
  const std::vector<std::string> expected = {"bad_clock.cpp", "clean.cpp"};
  EXPECT_EQ(loadedPaths(root), expected);
  EXPECT_EQ(loadedPaths(relativeRoot), expected);
}

// ---------------------------------------------------------------------------
// Rule fixtures: each bad file trips exactly its own rule.

TEST(LintRules, ClockFixtureTripsOnlyClockRule) {
  const SourceModel model =
      modelWith({{"src/see/bad_clock.cpp", "bad_clock.cpp"}});
  const std::vector<Diagnostic> all = runAllRules(model);
  EXPECT_EQ(rulesIn(all), std::set<std::string>{"determinism-clock"});
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].entity, "steady_clock");
  EXPECT_EQ(all[0].suppressionKey,
            "determinism-clock:src/see/bad_clock.cpp:steady_clock");
}

TEST(LintRules, ClockRuleIgnoresAllowlistedFiles) {
  // The same content mapped into bench/ (allowlisted) is clean.
  const SourceModel model =
      modelWith({{"bench/bad_clock.cpp", "bad_clock.cpp"}});
  EXPECT_TRUE(runAllRules(model).empty());
}

TEST(LintRules, OrderedFixtureTripsOnlyOrderedRule) {
  const SourceModel model =
      modelWith({{"src/see/bad_ordered.cpp", "bad_ordered.cpp"}});
  const std::vector<Diagnostic> all = runAllRules(model);
  EXPECT_EQ(rulesIn(all), std::set<std::string>{"determinism-ordered"});
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].entity, "weights");
}

TEST(LintRules, OrderedRuleOnlyFiresInResultAffectingModules) {
  // Same content mapped into sched/ (not order-sensitive) is clean.
  const SourceModel model =
      modelWith({{"src/sched/bad_ordered.cpp", "bad_ordered.cpp"}});
  EXPECT_TRUE(runAllRules(model).empty());
}

TEST(LintRules, LayeringFixtureTripsOnlyLayeringRule) {
  const SourceModel model =
      modelWith({{"src/support/bad_layering.cpp", "bad_layering.cpp"},
                 {"src/hca/layering_stub.hpp", "layering_stub.hpp"}});
  const std::vector<Diagnostic> all = runAllRules(model);
  EXPECT_EQ(rulesIn(all), std::set<std::string>{"layering"});
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].file, "src/support/bad_layering.cpp");
  EXPECT_EQ(all[0].entity, "src/hca/layering_stub.hpp");
}

TEST(LintRules, LayeringAllowsForwardEdges) {
  // hca including support is the DAG's forward direction: clean.
  const SourceModel model =
      modelWith({{"src/hca/bad_layering.cpp", "bad_layering.cpp"},
                 {"src/hca/layering_stub.hpp", "layering_stub.hpp"}});
  EXPECT_TRUE(runAllRules(model).empty());
}

TEST(LintRules, LayeringKeepsTestSupportOutOfTheLibrary) {
  // The deep-copy reference search lives in tests/support: tests may
  // include it, no library module may.
  std::map<std::string, std::string> files;
  files["tests/support/reference_search.hpp"] =
      "#include \"see/engine.hpp\"\n";
  files["src/see/engine.hpp"] = "";
  files["src/see/engine.cpp"] =
      "#include \"tests/support/reference_search.hpp\"\n";
  files["tests/see_test.cpp"] =
      "#include \"tests/support/reference_search.hpp\"\n";
  const std::vector<Diagnostic> all =
      runLayeringRule(SourceModel::loadFromMemory(files));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].file, "src/see/engine.cpp");
  EXPECT_EQ(all[0].entity, "tests/support/reference_search.hpp");
}

TEST(LintRules, LayeringReportsIncludeCycles) {
  std::map<std::string, std::string> files;
  files["src/see/a.hpp"] = "#include \"see/b.hpp\"\n";
  files["src/see/b.hpp"] = "#include \"see/a.hpp\"\n";
  const SourceModel model = SourceModel::loadFromMemory(files);
  const std::vector<Diagnostic> all = runLayeringRule(model);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_NE(all[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(all[0].message.find("src/see/a.hpp -> src/see/b.hpp"),
            std::string::npos);
}

TEST(LintRules, LockingFixtureTripsOnlyLockingRule) {
  const SourceModel model =
      modelWith({{"src/see/bad_locking.cpp", "bad_locking.cpp"}});
  const std::vector<Diagnostic> all = runAllRules(model);
  EXPECT_EQ(rulesIn(all), std::set<std::string>{"locking"});
  // Both shapes: the raw std::mutex and the unguarded hca::Mutex member.
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].entity, "std::mutex");
  EXPECT_EQ(all[1].entity, "mu_");
}

TEST(LintRules, LockingAllowsGuardedMutex) {
  std::map<std::string, std::string> files;
  files["src/see/guarded.hpp"] =
      "#include \"support/mutex.hpp\"\n"
      "namespace hca::see {\n"
      "struct Guarded {\n"
      "  Mutex mu_;\n"
      "  int depth HCA_GUARDED_BY(mu_) = 0;\n"
      "};\n"
      "}  // namespace hca::see\n";
  const SourceModel model = SourceModel::loadFromMemory(files);
  EXPECT_TRUE(runLockingRule(model).empty());
}

TEST(LintRules, ExitFixtureTripsOnlyExitRule) {
  const SourceModel model =
      modelWith({{"src/see/bad_exit.cpp", "bad_exit.cpp"}});
  const std::vector<Diagnostic> all = runAllRules(model);
  EXPECT_EQ(rulesIn(all), std::set<std::string>{"exit-contract"});
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all[0].entity, "exit");
}

TEST(LintRules, ExitRuleAllowsToolsAndSignals) {
  const SourceModel toolModel =
      modelWith({{"tools/bad_exit.cpp", "bad_exit.cpp"}});
  EXPECT_TRUE(runAllRules(toolModel).empty());
  const SourceModel signalsModel =
      modelWith({{"src/support/signals.cpp", "bad_exit.cpp"}});
  EXPECT_TRUE(runAllRules(signalsModel).empty());
}

TEST(LintRules, CleanFixtureTripsNothing) {
  const SourceModel model = modelWith({{"src/see/clean.cpp", "clean.cpp"}});
  EXPECT_TRUE(runAllRules(model).empty());
}

// ---------------------------------------------------------------------------
// Suppressions and baseline

TEST(LintSuppression, InlineMarkerDropsDiagnostic) {
  const SourceModel model =
      modelWith({{"src/see/suppressed_clock.cpp", "suppressed_clock.cpp"}});
  // The raw rule sees the hit; the suppression-aware entry point drops it.
  EXPECT_FALSE(runDeterminismClockRule(model).empty());
  EXPECT_TRUE(runAllRules(model).empty());
}

TEST(LintSuppression, WrongKeyDoesNotSuppress) {
  std::map<std::string, std::string> files;
  files["src/see/wrong_key.cpp"] =
      "// hca-lint: ordered-ok(wrong key for a clock hit)\n"
      "long long f() { return std::chrono::steady_clock::now()\n"
      "    .time_since_epoch().count(); }\n";
  const SourceModel model = SourceModel::loadFromMemory(files);
  EXPECT_FALSE(runAllRules(model).empty());
}

TEST(LintBaseline, RoundTripsThroughJson) {
  Baseline baseline;
  baseline.suppressions.insert("locking:src/see/x.cpp:mu_");
  baseline.suppressions.insert("layering:src/support/y.cpp:src/hca/z.hpp");
  const Baseline reparsed = parseBaseline(formatBaseline(baseline));
  EXPECT_EQ(reparsed.suppressions, baseline.suppressions);
}

TEST(LintBaseline, SplitsFreshBaselinedAndStale) {
  const SourceModel model =
      modelWith({{"src/see/bad_clock.cpp", "bad_clock.cpp"},
                 {"src/see/bad_exit.cpp", "bad_exit.cpp"}});
  const std::vector<Diagnostic> all = runAllRules(model);
  ASSERT_EQ(all.size(), 2u);

  Baseline baseline;
  baseline.suppressions.insert(
      "determinism-clock:src/see/bad_clock.cpp:steady_clock");
  baseline.suppressions.insert("locking:src/see/gone.cpp:mu_");  // stale

  const BaselineSplit split = splitAgainstBaseline(baseline, all);
  ASSERT_EQ(split.fresh.size(), 1u);
  EXPECT_EQ(split.fresh[0].rule, "exit-contract");
  ASSERT_EQ(split.baselined.size(), 1u);
  EXPECT_EQ(split.baselined[0].rule, "determinism-clock");
  ASSERT_EQ(split.stale.size(), 1u);
  EXPECT_EQ(split.stale[0], "locking:src/see/gone.cpp:mu_");
}

TEST(LintBaseline, UpdateFromDiagnosticsMakesRunClean) {
  const SourceModel model =
      modelWith({{"src/see/bad_clock.cpp", "bad_clock.cpp"},
                 {"src/see/bad_exit.cpp", "bad_exit.cpp"}});
  const std::vector<Diagnostic> all = runAllRules(model);
  const Baseline updated = baselineFromDiagnostics(all);
  const BaselineSplit split = splitAgainstBaseline(updated, all);
  EXPECT_TRUE(split.fresh.empty());
  EXPECT_EQ(split.baselined.size(), all.size());
  EXPECT_TRUE(split.stale.empty());
}

TEST(LintReport, JsonNamesEveryDiagnostic) {
  const SourceModel model =
      modelWith({{"src/see/bad_clock.cpp", "bad_clock.cpp"}});
  const BaselineSplit split =
      splitAgainstBaseline(Baseline{}, runAllRules(model));
  const std::string json = formatReportJson(split);
  EXPECT_NE(json.find("\"determinism-clock\""), std::string::npos);
  EXPECT_NE(json.find("\"src/see/bad_clock.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"fresh\""), std::string::npos);
}

}  // namespace
