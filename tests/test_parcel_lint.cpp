// Tests for tools/parcel-lint: every rule has an accepting and a
// violating fixture under tests/lint_fixtures/, the suppression grammar
// is honoured, unknown rule ids are rejected, and the CLI exit codes
// (0 clean / 1 findings / 2 config or suppression error) hold.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

namespace parcel::lint {
namespace {

const std::string kFixtures = PARCEL_LINT_FIXTURE_DIR;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Lint one fixture with the default (everything-on, unscoped) config.
FileReport lint_fixture(const std::string& name,
                        const std::string* companion = nullptr) {
  Config cfg;
  return lint_source(name, slurp(kFixtures + "/" + name), cfg, companion);
}

std::multiset<std::string> rules_of(const FileReport& rep) {
  std::multiset<std::string> out;
  for (const Finding& f : rep.findings) out.insert(f.rule);
  return out;
}

int cli(const std::vector<std::string>& args, std::string* out_text = nullptr) {
  std::ostringstream out, err;
  int rc = run_cli(args, out, err);
  if (out_text != nullptr) *out_text = out.str() + err.str();
  return rc;
}

// --- per-rule fixtures -----------------------------------------------------

TEST(ParcelLint, NondetRandomBadAndOk) {
  FileReport bad = lint_fixture("nondet_random_bad.cpp");
  EXPECT_EQ(rules_of(bad).count("nondet-random"), 3u);  // device, srand, rand
  FileReport ok = lint_fixture("nondet_random_ok.cpp");
  EXPECT_TRUE(ok.findings.empty()) << ok.findings[0].message;
}

TEST(ParcelLint, NondetTimeBadAndOk) {
  FileReport bad = lint_fixture("nondet_time_bad.cpp");
  // steady_clock, system_clock, high_resolution_clock, time(), clock()
  EXPECT_EQ(rules_of(bad).count("nondet-time"), 5u);
  FileReport ok = lint_fixture("nondet_time_ok.cpp");
  EXPECT_TRUE(ok.findings.empty()) << ok.findings[0].message;
}

TEST(ParcelLint, NondetGetenvBadAndExemptedOk) {
  FileReport bad = lint_fixture("nondet_getenv_bad.cpp");
  EXPECT_EQ(rules_of(bad).count("nondet-getenv"), 1u);

  // The same construct under an exempted path prefix is clean.
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_config("exempt nondet-getenv = util_ok\n", cfg, error))
      << error;
  FileReport ok = lint_source("util_ok/getenv_ok.cpp",
                              slurp(kFixtures + "/util_ok/getenv_ok.cpp"),
                              cfg, nullptr);
  EXPECT_TRUE(ok.findings.empty());
}

TEST(ParcelLint, UnorderedIterBadAndOk) {
  FileReport bad = lint_fixture("unordered_iter_bad.cpp");
  // range-for over set, range-for via alias, explicit begin()
  EXPECT_EQ(rules_of(bad).count("unordered-iter"), 3u);
  FileReport ok = lint_fixture("unordered_iter_ok.cpp");
  EXPECT_TRUE(ok.findings.empty()) << ok.findings[0].message;
}

TEST(ParcelLint, UnorderedIterSeesCompanionHeader) {
  const std::string header = slurp(kFixtures + "/unordered_hdr.hpp");
  // Without the header the member's type is unknown -> no finding;
  // with it, the range-for in the .cpp is flagged.
  FileReport blind = lint_fixture("unordered_hdr.cpp");
  EXPECT_TRUE(blind.findings.empty());
  FileReport joined = lint_fixture("unordered_hdr.cpp", &header);
  ASSERT_EQ(joined.findings.size(), 1u);
  EXPECT_EQ(joined.findings[0].rule, "unordered-iter");
  EXPECT_EQ(joined.findings[0].line, 7);
}

TEST(ParcelLint, HeaderPragmaOnceBadAndOk) {
  FileReport bad = lint_fixture("pragma_once_bad.hpp");
  EXPECT_EQ(rules_of(bad).count("header-pragma-once"), 1u);
  FileReport ok = lint_fixture("pragma_once_ok.hpp");
  EXPECT_TRUE(ok.findings.empty());
  // The rule is header-only: a guardless .cpp is not flagged.
  FileReport cpp = lint_fixture("float_drift_ok.cpp");
  EXPECT_EQ(rules_of(cpp).count("header-pragma-once"), 0u);
}

TEST(ParcelLint, HeaderUsingNamespaceBadAndOk) {
  FileReport bad = lint_fixture("using_namespace_bad.hpp");
  ASSERT_EQ(rules_of(bad).count("header-using-namespace"), 1u);
  EXPECT_EQ(bad.findings[0].line, 5);
  FileReport ok = lint_fixture("using_namespace_ok.hpp");
  EXPECT_TRUE(ok.findings.empty());
}

TEST(ParcelLint, FloatDriftBadAndOk) {
  FileReport bad = lint_fixture("float_drift_bad.cpp");
  ASSERT_EQ(rules_of(bad).count("float-double-drift"), 1u);
  EXPECT_EQ(bad.findings[0].line, 3);
  FileReport ok = lint_fixture("float_drift_ok.cpp");
  EXPECT_TRUE(ok.findings.empty()) << ok.findings[0].message;
}

// --- suppression grammar ---------------------------------------------------

TEST(ParcelLint, SuppressionWithReasonSilencesBothPlacements) {
  FileReport rep = lint_fixture("suppress_ok.cpp");
  EXPECT_TRUE(rep.findings.empty()) << rep.findings[0].message;
  EXPECT_TRUE(rep.errors.empty());
}

TEST(ParcelLint, SuppressionWithoutReasonDoesNotSuppress) {
  FileReport rep = lint_fixture("suppress_no_reason.cpp");
  EXPECT_EQ(rules_of(rep).count("nondet-time"), 1u);      // still reported
  EXPECT_EQ(rules_of(rep).count("lint-suppression"), 1u);  // and called out
}

TEST(ParcelLint, SuppressionNamingUnknownRuleIsHardError) {
  FileReport rep = lint_fixture("suppress_unknown_rule.cpp");
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("nondet-tyme"), std::string::npos);
}

TEST(ParcelLint, BenchClockAliasIdiomSuppressedOnlyWithReason) {
  // A bench that aliased a wall clock on purpose would use the
  // suppression-with-reason idiom; it must silence the alias line, and the
  // bare alias must still be flagged.
  FileReport ok = lint_fixture("bench_clock_ok.cpp");
  EXPECT_TRUE(ok.findings.empty()) << ok.findings[0].message;
  FileReport bad = lint_fixture("bench_clock_bad.cpp");
  EXPECT_EQ(rules_of(bad).count("nondet-time"), 1u);
}

TEST(ParcelLint, BenchFilesAreInRepoLintScope) {
  // lint.rules must keep the gated benches under the determinism rules:
  // a scoped config that mirrors the shipped scopes applies to them.
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_config(
      "scope float-double-drift = src/lte bench/fleet.cpp\n", cfg, error))
      << error;
  EXPECT_TRUE(cfg.applies("float-double-drift", "bench/fleet.cpp"));
  EXPECT_FALSE(cfg.applies("float-double-drift", "bench/bench_pipeline.cpp"));

  // And the shipped lint.rules itself names the gated bench files
  // in-scope.
  std::ifstream rules(std::string(PARCEL_REPO_ROOT) + "/lint.rules");
  ASSERT_TRUE(rules.good());
  std::ostringstream ss;
  ss << rules.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("bench/fleet.cpp"), std::string::npos);
  EXPECT_NE(text.find("bench/adaptive.cpp"), std::string::npos);

  // It exempts no path from nondet-getenv: a getenv anywhere in src/
  // fails the tree.
  Config shipped;
  ASSERT_TRUE(parse_config(text, shipped, error)) << error;
  for (const char* path : {"src/util/strings.cpp", "src/core/arena.hpp",
                           "src/web/parse_cache.cpp"}) {
    EXPECT_TRUE(shipped.applies("nondet-getenv", path)) << path;
  }

  // No bench file reads a clock, even with a reason: the simulated
  // results are the benches' output, and timing the simulator is the
  // benchmark's job (benchmark/).
  int bench_files = 0;
  for (const std::filesystem::directory_entry& entry :
       std::filesystem::recursive_directory_iterator(
           std::string(PARCEL_REPO_ROOT) + "/bench")) {
    if (!entry.is_regular_file()) continue;
    ++bench_files;
    EXPECT_EQ(slurp(entry.path().string()).find("allow(nondet-time)"),
              std::string::npos)
        << entry.path();
  }
  EXPECT_GT(bench_files, 0);
}

TEST(ParcelLint, SuppressionForDifferentRuleDoesNotSuppress) {
  Config cfg;
  const std::string src =
      "// parcel-lint: allow(nondet-random) wrong rule for the line below\n"
      "long x = time(nullptr);\n";
  FileReport rep = lint_source("f.cpp", src, cfg, nullptr);
  EXPECT_EQ(rules_of(rep).count("nondet-time"), 1u);
}

// --- configuration ---------------------------------------------------------

TEST(ParcelLint, ConfigUnknownRuleRejected) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(parse_config("rule nondet-tyme = on\n", cfg, error));
  EXPECT_NE(error.find("unknown rule"), std::string::npos);
  EXPECT_FALSE(parse_config("scope bogus-rule = src\n", cfg, error));
}

TEST(ParcelLint, ConfigMalformedLinesRejected) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(parse_config("rule nondet-time on\n", cfg, error));  // no '='
  EXPECT_FALSE(parse_config("rule nondet-time = maybe\n", cfg, error));
  EXPECT_FALSE(parse_config("scope nondet-time =\n", cfg, error));
  EXPECT_FALSE(parse_config("frobnicate nondet-time = src\n", cfg, error));
  EXPECT_TRUE(parse_config("# comment only\n\nrule nondet-time = off\n", cfg,
                           error))
      << error;
  EXPECT_FALSE(cfg.applies("nondet-time", "src/a.cpp"));
}

TEST(ParcelLint, ConfigScopeAndExemptPrefixes) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_config(
      "scope float-double-drift = src/lte src/core\n"
      "exempt float-double-drift = src/core/testbed\n",
      cfg, error))
      << error;
  EXPECT_TRUE(cfg.applies("float-double-drift", "src/lte/energy.cpp"));
  EXPECT_TRUE(cfg.applies("float-double-drift", "src/core/analysis.cpp"));
  EXPECT_FALSE(cfg.applies("float-double-drift", "src/web/css.cpp"));
  EXPECT_FALSE(cfg.applies("float-double-drift", "src/core/testbed.cpp"));
}

// --- CLI exit codes --------------------------------------------------------

TEST(ParcelLintCli, CleanFileExitsZero) {
  EXPECT_EQ(cli({"--root", kFixtures, "unordered_iter_ok.cpp"}), 0);
}

TEST(ParcelLintCli, ViolatingFixtureExitsOne) {
  std::string text;
  EXPECT_EQ(cli({"--root", kFixtures, "nondet_random_bad.cpp"}, &text), 1);
  EXPECT_NE(text.find("nondet-random"), std::string::npos);
}

TEST(ParcelLintCli, UnknownSuppressionRuleExitsTwo) {
  EXPECT_EQ(cli({"--root", kFixtures, "suppress_unknown_rule.cpp"}), 2);
}

TEST(ParcelLintCli, BadUsageExitsTwo) {
  EXPECT_EQ(cli({}), 2);                                   // no inputs
  EXPECT_EQ(cli({"--config"}), 2);                         // missing value
  EXPECT_EQ(cli({"--frobnicate", "src"}), 2);              // unknown flag
  EXPECT_EQ(cli({"--root", kFixtures, "no_such_file.cpp"}), 2);
}

TEST(ParcelLintCli, BadConfigExitsTwo) {
  const std::string path =
      ::testing::TempDir() + "/test_parcel_lint_bad.rules";
  {
    std::ofstream out(path);
    out << "rule nondet-tyme = on\n";
  }
  EXPECT_EQ(cli({"--config", path, "--root", kFixtures,
                 "unordered_iter_ok.cpp"}),
            2);
  std::remove(path.c_str());
}

TEST(ParcelLintCli, DirectoryScanAggregatesFindings) {
  // The whole fixture corpus (minus the hard-error file) must exit 1 and
  // report every rule at least once.
  std::string text;
  int rc = cli({"--root", kFixtures, "nondet_random_bad.cpp",
                "nondet_time_bad.cpp", "nondet_getenv_bad.cpp",
                "unordered_iter_bad.cpp", "pragma_once_bad.hpp",
                "using_namespace_bad.hpp", "float_drift_bad.cpp",
                "suppress_no_reason.cpp"},
               &text);
  EXPECT_EQ(rc, 1);
  for (const char* rule :
       {"nondet-random", "nondet-time", "nondet-getenv", "unordered-iter",
        "header-pragma-once", "header-using-namespace", "float-double-drift",
        "lint-suppression"}) {
    EXPECT_NE(text.find(rule), std::string::npos) << rule;
  }
}

TEST(ParcelLintCli, CompanionHeaderJoinedWhenScanningDirectory) {
  std::string text;
  // Scanning the directory picks up unordered_hdr.cpp + .hpp as one TU.
  int rc = cli({"--root", kFixtures, "unordered_hdr.cpp"}, &text);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(text.find("unordered_hdr.cpp:7"), std::string::npos) << text;
}

// --- whole-program: nondet-transitive --------------------------------------

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// Lex the given (path, source) pairs, build one program index, and run
// every whole-program pass over it.
FileReport program_report(
    const std::vector<std::pair<std::string, std::string>>& srcs,
    const Config& cfg) {
  std::vector<LexOutput> lx;
  lx.reserve(srcs.size());
  for (const auto& [path, text] : srcs) lx.push_back(lex(text));
  std::vector<ProgramFile> files;
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    files.push_back({srcs[i].first, &lx[i], true, nullptr});
  }
  const ProgramIndex idx = build_program_index(files);
  std::set<std::string> known;
  for (const auto& [path, text] : srcs) known.insert(path);
  FileReport rep;
  check_nondet_transitive(idx, cfg, rep);
  check_mutex_annotations(idx, cfg, rep);
  check_layers(idx, cfg, known, rep);
  return rep;
}

TEST(ParcelLintProgram, TwoHopChainFlagsEveryCallSiteWithChain) {
  Config cfg;
  FileReport rep = program_report(
      {{"chain.cpp", slurp(kFixtures + "/transitive_chain.cpp")}}, cfg);
  ASSERT_EQ(rules_of(rep).count("nondet-transitive"), 2u);
  // uptime's call into wall_ms, then report's call into uptime — each
  // diagnostic carries the chain down to the time() source.
  EXPECT_NE(rep.findings[0].message.find("wall_ms -> 'time' [nondet-time]"),
            std::string::npos)
      << rep.findings[0].message;
  EXPECT_NE(rep.findings[1].message.find(
                "uptime -> wall_ms -> 'time' [nondet-time]"),
            std::string::npos)
      << rep.findings[1].message;
}

TEST(ParcelLintProgram, AllowWithReasonSeversTheEdge) {
  Config cfg;
  FileReport rep = program_report(
      {{"sev.cpp", slurp(kFixtures + "/transitive_allow.cpp")}}, cfg);
  // The edge into wall_ms is severed, so neither uptime nor report is
  // tainted; the direct nondet-time finding belongs to the per-file pass.
  EXPECT_EQ(rules_of(rep).count("nondet-transitive"), 0u);
}

TEST(ParcelLintProgram, AllowWithoutReasonDoesNotSever) {
  Config cfg;
  FileReport rep = program_report(
      {{"nr.cpp", slurp(kFixtures + "/transitive_allow_no_reason.cpp")}}, cfg);
  EXPECT_EQ(rules_of(rep).count("nondet-transitive"), 1u);
}

TEST(ParcelLintProgram, SuppressedSourceDoesNotTaint) {
  Config cfg;
  FileReport rep = program_report(
      {{"sup.cpp", slurp(kFixtures + "/transitive_suppressed_source.cpp")}},
      cfg);
  EXPECT_TRUE(rep.findings.empty()) << rep.findings[0].message;
}

TEST(ParcelLintProgram, TaintCrossesTranslationUnits) {
  Config cfg;
  FileReport rep = program_report(
      {{"a.cpp", slurp(kFixtures + "/transitive_pair_a.cpp")},
       {"b.cpp", slurp(kFixtures + "/transitive_pair_b.cpp")}},
      cfg);
  ASSERT_EQ(rules_of(rep).count("nondet-transitive"), 1u);
  EXPECT_EQ(rep.findings[0].path, "b.cpp");
  EXPECT_NE(rep.findings[0].message.find("seed_entropy"), std::string::npos);
}

TEST(ParcelLintProgram, TransitiveRespectsConfigScope) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_config("scope nondet-transitive = src\n", cfg, error))
      << error;
  FileReport rep = program_report(
      {{"a.cpp", slurp(kFixtures + "/transitive_pair_a.cpp")},
       {"b.cpp", slurp(kFixtures + "/transitive_pair_b.cpp")}},
      cfg);
  EXPECT_TRUE(rep.findings.empty());
}

// --- whole-program: mutex-unannotated --------------------------------------

TEST(ParcelLintProgram, MutexMemberWithoutGuardedByIsFlagged) {
  Config cfg;
  FileReport rep = program_report(
      {{"m.hpp", slurp(kFixtures + "/mutex_unannotated_bad.hpp")}}, cfg);
  ASSERT_EQ(rules_of(rep).count("mutex-unannotated"), 1u);
  EXPECT_NE(rep.findings[0].message.find("mu_"), std::string::npos);
}

TEST(ParcelLintProgram, AnnotatedMutexIsClean) {
  Config cfg;
  FileReport rep = program_report(
      {{"m.hpp", slurp(kFixtures + "/mutex_annotated_ok.hpp")}}, cfg);
  EXPECT_TRUE(rep.findings.empty()) << rep.findings[0].message;
}

// --- layering DAG ----------------------------------------------------------

TEST(ParcelLint, LayerConfigGrammar) {
  Config cfg;
  std::string error;
  ASSERT_TRUE(parse_config(
      "layer base = src/util src/core/arena.hpp\n"
      "layer core = src/core\n"
      "layer app  = src/app\n"
      "allow-dep core -> base\n"
      "allow-dep app -> core\n",
      cfg, error))
      << error;
  // Longest prefix wins: arena.hpp is carved out of core into base.
  EXPECT_EQ(cfg.layer_of("src/core/arena.hpp"), "base");
  EXPECT_EQ(cfg.layer_of("src/core/run.cpp"), "core");
  EXPECT_EQ(cfg.layer_of("src/util/rng.hpp"), "base");
  EXPECT_EQ(cfg.layer_of("tools/x.cpp"), "");
  // Reachability: app -> core -> base sanctions app -> base too.
  EXPECT_TRUE(cfg.dep_allowed("core", "base"));
  EXPECT_TRUE(cfg.dep_allowed("app", "base"));
  EXPECT_FALSE(cfg.dep_allowed("base", "core"));
  EXPECT_TRUE(cfg.dep_allowed("base", "base"));
}

TEST(ParcelLint, LayerConfigRejectsBadDeclarations) {
  Config cfg;
  std::string error;
  EXPECT_FALSE(parse_config("layer base = a\nlayer base = b\n", cfg, error));
  EXPECT_NE(error.find("duplicate layer"), std::string::npos);

  cfg = {};
  EXPECT_FALSE(parse_config("layer base = a\nallow-dep base -> ghost\n", cfg,
                            error));
  EXPECT_NE(error.find("undeclared layer"), std::string::npos);

  cfg = {};
  EXPECT_FALSE(parse_config(
      "layer a = a\nlayer b = b\nallow-dep a -> b\nallow-dep b -> a\n", cfg,
      error));
  EXPECT_NE(error.find("cycle"), std::string::npos);

  cfg = {};
  EXPECT_FALSE(parse_config("layer = a\n", cfg, error));
  EXPECT_FALSE(parse_config("layer x =\n", cfg, error));
  EXPECT_FALSE(parse_config("allow-dep a b\n", cfg, error));
}

TEST(ParcelLintCli, LayerFixtureFlagsUpwardIncludeAndCycle) {
  std::string text;
  const std::string root = kFixtures + "/layers";
  int rc = cli({"--config", root + "/layers.rules", "--root", root, "."},
               &text);
  EXPECT_EQ(rc, 1);
  // The sanctioned upper -> base include is silent; the upward include
  // and the intra-layer cycle are the only two findings.
  EXPECT_EQ(count_of(text, "[layer-violation]"), 2u) << text;
  EXPECT_NE(text.find("base/bad.hpp:3"), std::string::npos) << text;
  EXPECT_NE(
      text.find("include cycle: cyc/a.hpp -> cyc/b.hpp -> cyc/a.hpp"),
      std::string::npos)
      << text;
}

// --- companion-header dedupe (the v1 double-lint regression) ---------------

TEST(ParcelLintCli, SiblingHeaderLintedExactlyOncePerScan) {
  std::string text;
  int rc = cli({"--root", kFixtures + "/dupunit", "."}, &text);
  EXPECT_EQ(rc, 1);
  // One violation in the header, scanned alongside its .cpp: exactly one
  // report line, while both files still count as scanned.
  EXPECT_EQ(count_of(text, "header-using-namespace"), 1u) << text;
  EXPECT_NE(text.find("1 finding(s) in 2 file(s)"), std::string::npos) << text;
}

TEST(ParcelLintCli, TransitiveFixturesThroughCliExitCodes) {
  std::string text;
  EXPECT_EQ(cli({"--root", kFixtures, "transitive_ok.cpp"}, &text), 0) << text;
  // Count the report-line form ": [rule]" — the transitive diagnostic's
  // message text itself names the source rule in brackets.
  EXPECT_EQ(cli({"--root", kFixtures, "transitive_chain.cpp"}, &text), 1);
  EXPECT_EQ(count_of(text, ": [nondet-transitive]"), 2u) << text;
  EXPECT_EQ(count_of(text, ": [nondet-time]"), 1u) << text;
  // Severed edge: only the direct finding remains.
  EXPECT_EQ(cli({"--root", kFixtures, "transitive_allow.cpp"}, &text), 1);
  EXPECT_EQ(count_of(text, ": [nondet-transitive]"), 0u) << text;
  EXPECT_EQ(count_of(text, ": [nondet-time]"), 1u) << text;
  // Reasonless allow: edge live, suppression itself called out.
  EXPECT_EQ(cli({"--root", kFixtures, "transitive_allow_no_reason.cpp"},
                &text),
            1);
  EXPECT_EQ(count_of(text, ": [nondet-transitive]"), 1u) << text;
  EXPECT_EQ(count_of(text, ": [lint-suppression]"), 1u) << text;
}

// The shipped tree itself must be clean — same invocation as the
// parcel_lint_tree ctest and the ci.sh gate, driven through run_cli.
TEST(ParcelLintCli, RepoTreeIsClean) {
  std::string text;
  int rc = cli({"--config", std::string(PARCEL_REPO_ROOT) + "/lint.rules",
                "--root", PARCEL_REPO_ROOT, "src", "bench"},
               &text);
  EXPECT_EQ(rc, 0) << text;
}

}  // namespace
}  // namespace parcel::lint
