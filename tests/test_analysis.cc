/**
 * @file
 * Semantic-rule tests: per-engine mutation corpora (each bad snippet
 * must yield exactly ONE finding of its rule at the right file and
 * line), the clean counterparts, waiver semantics for the five
 * semantic rules, and the whole-tree self-checks.
 *
 * Every corpus snippet lives in a C++ string literal so the linter —
 * which also scans tests/ — sees them as string tokens and stays quiet
 * about this file itself.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "lint/engines.hh"
#include "lint/lint.hh"

namespace
{

namespace fs = std::filesystem;
using namespace hllc;

// --------------------------------------------------------------------
// Helpers.
// --------------------------------------------------------------------

class TempTree
{
  public:
    TempTree()
        : root_(fs::temp_directory_path() /
                ("hllc_test_analysis_" + formatI64(::getpid())))
    {
        fs::remove_all(root_);
    }
    ~TempTree() { fs::remove_all(root_); }

    void
    add(const std::string &rel, const std::string &content)
    {
        const fs::path path = root_ / rel;
        fs::create_directories(path.parent_path());
        serial::writeFileAtomic(path.string(), content.data(),
                                content.size());
    }

    std::string rootStr() const { return root_.string(); }

  private:
    fs::path root_;
};

/** The findings of rule @p rule from linting the tree's src/. */
lint::RunResult
runRule(const TempTree &tree, const std::string &rule)
{
    lint::RunResult result = lint::analyzeTree(tree.rootStr(), { "src" });
    std::erase_if(result.findings, [&](const lint::Finding &finding) {
        return finding.rule != rule;
    });
    return result;
}

/** The catalog fixture: allFailpoints() with "cache.io" (+ extras). */
void
addCatalog(TempTree &tree, const std::string &extra_line = "")
{
    tree.add("src/common/failpoint.cc",
             "const char *allFailpoints() {\n"
             "    static const char *names[] = {\n"
             "        \"cache.io\",\n" +
             extra_line +
             "    };\n"
             "    return names[0];\n"
             "}\n");
}

/** A failpoint-guarded wrapper whose callee holds the real ::open. */
void
addGuardedOpen(TempTree &tree)
{
    tree.add("src/cache/ok.cc",
             "int lowOpen() { return ::open(\"f\", 0); }\n"
             "void g() { HLLC_FAILPOINT(\"cache.io\"); lowOpen(); }\n");
}

// --------------------------------------------------------------------
// failpoint-coverage
// --------------------------------------------------------------------

TEST(AnalysisFailpoint, UncoveredSyscallIsExactlyOneFinding)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    tree.add("src/cache/orphan.cc",
             "int orphan() { return ::open(\"g\", 0); }\n");

    const lint::RunResult result = runRule(tree, "failpoint-coverage");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/orphan.cc");
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_EQ(result.findings[0].rule, "failpoint-coverage");
}

TEST(AnalysisFailpoint, ReachableThroughCallGraphIsClean)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    EXPECT_TRUE(runRule(tree, "failpoint-coverage").findings.empty());
}

TEST(AnalysisFailpoint, SiteNameOutsideCatalogIsExactlyOneFinding)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    tree.add("src/cache/drift.cc",
             "void h() { HLLC_FAILPOINT(\"cache.unknown\"); }\n");

    const lint::RunResult result = runRule(tree, "failpoint-coverage");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/drift.cc");
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_NE(result.findings[0].message.find("cache.unknown"),
              std::string::npos);
}

TEST(AnalysisFailpoint, CatalogEntryWithoutSiteIsExactlyOneFinding)
{
    TempTree tree;
    addCatalog(tree, "        \"cache.gone\",\n");
    addGuardedOpen(tree);

    const lint::RunResult result = runRule(tree, "failpoint-coverage");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/common/failpoint.cc");
    EXPECT_EQ(result.findings[0].line, 4);
    EXPECT_NE(result.findings[0].message.find("cache.gone"),
              std::string::npos);
}

// --------------------------------------------------------------------
// lock-discipline
// --------------------------------------------------------------------

TEST(AnalysisLock, UnlockedGuardedFieldIsExactlyOneFinding)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "    void good() { MutexLock lock(mutex_); hits_ = 1; }\n"
             "    void bad() { hits_ = 2; }\n"
             "};\n");

    const lint::RunResult result = runRule(tree, "lock-discipline");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/reg.hh");
    EXPECT_EQ(result.findings[0].line, 5);
    EXPECT_EQ(result.findings[0].rule, "lock-discipline");
}

TEST(AnalysisLock, RequiresAnnotationShiftsTheObligation)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "    void touch() HLLC_REQUIRES(mutex_) { hits_ = 1; }\n"
             "};\n");
    EXPECT_TRUE(runRule(tree, "lock-discipline").findings.empty());
}

TEST(AnalysisLock, CrossFileUseViaIncludeIsChecked)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "};\n");
    tree.add("src/cache/user.cc",
             "#include \"cache/reg.hh\"\n"
             "void t(Reg &r) { r.hits_ = 3; }\n");

    const lint::RunResult result = runRule(tree, "lock-discipline");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/cache/user.cc");
    EXPECT_EQ(result.findings[0].line, 2);
}

TEST(AnalysisLock, UnrelatedSameNameWithoutIncludeIsNotFlagged)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "};\n");
    // No include: this `hits_` is some other variable entirely.
    tree.add("src/fault/other.cc",
             "int hits_ = 0;\n"
             "void u() { hits_ = 4; }\n");
    EXPECT_TRUE(runRule(tree, "lock-discipline").findings.empty());
}

// --------------------------------------------------------------------
// rng-discipline
// --------------------------------------------------------------------

TEST(AnalysisRng, BannedEngineIsExactlyOneFinding)
{
    // Under every rule, each banned source is reported once, by
    // determinism; rng-discipline only owns the Xoshiro seeding check.
    TempTree tree;
    tree.add("src/sim/r.cc",
             "void f() {\n"
             "    std::mt19937 gen;\n"
             "    int x = rand();\n"
             "    rng::Xoshiro256StarStar r(12345);\n"
             "}\n");

    const lint::RunResult result =
        lint::analyzeTree(tree.rootStr(), { "src" });
    ASSERT_EQ(result.findings.size(), 3u);
    EXPECT_EQ(result.findings[0].file, "src/sim/r.cc");
    EXPECT_EQ(result.findings[0].line, 2);
    EXPECT_EQ(result.findings[0].rule, "determinism");
    EXPECT_NE(result.findings[0].message.find("mt19937"),
              std::string::npos);
    EXPECT_EQ(result.findings[1].line, 3);
    EXPECT_EQ(result.findings[1].rule, "determinism");
    EXPECT_NE(result.findings[1].message.find("rand()"),
              std::string::npos);
    EXPECT_EQ(result.findings[2].line, 4);
    EXPECT_EQ(result.findings[2].rule, "rng-discipline");
}

TEST(AnalysisRng, AdHocXoshiroSeedInSimIsExactlyOneFinding)
{
    TempTree tree;
    tree.add("src/sim/s.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }\n");

    const lint::RunResult result = runRule(tree, "rng-discipline");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/sim/s.cc");
    EXPECT_EQ(result.findings[0].line, 1);
}

TEST(AnalysisRng, SeedDerivedXoshiroIsClean)
{
    TempTree tree;
    tree.add("src/sim/s.cc",
             "void f(unsigned long long seed) {\n"
             "    rng::Xoshiro256StarStar r(rng::childSeed(seed, 0));\n"
             "}\n");
    EXPECT_TRUE(runRule(tree, "rng-discipline").findings.empty());
}

TEST(AnalysisRng, XoshiroOutsideStreamScopedLayersIsClean)
{
    TempTree tree;
    // The seeding contract only binds sim/serve/ingest.
    tree.add("src/cache/c.cc",
             "void f() { rng::Xoshiro256StarStar r(99); }\n");
    EXPECT_TRUE(runRule(tree, "rng-discipline").findings.empty());
}

// --------------------------------------------------------------------
// schema-drift
// --------------------------------------------------------------------

/** metrics.cc emitting \"schema\" (+ optionally \"extra\"). */
void
addStatsExporter(TempTree &tree, bool with_extra)
{
    std::string body =
        "std::string statsJson() {\n"
        "    std::string out = \"{\";\n"
        "    out += \"  \\\"schema\\\": \\\"hllc-stats-v1\\\",\";\n";
    if (with_extra)
        body += "    out += \"  \\\"extra\\\": 1,\";\n";
    body += "    return out + \"}\";\n}\n";
    tree.add("src/common/metrics.cc", body);
}

TEST(AnalysisSchema, UndocumentedKeyIsExactlyOneFinding)
{
    TempTree tree;
    addStatsExporter(tree, true);
    tree.add("EXPERIMENTS.md", "schema-keys: hllc-stats-v1\nschema\n");

    const lint::RunResult result = runRule(tree, "schema-drift");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/common/metrics.cc");
    EXPECT_EQ(result.findings[0].line, 4);
    EXPECT_NE(result.findings[0].message.find("extra"),
              std::string::npos);
}

TEST(AnalysisSchema, DocumentedButGoneKeyIsExactlyOneFinding)
{
    TempTree tree;
    addStatsExporter(tree, false);
    tree.add("EXPERIMENTS.md",
             "schema-keys: hllc-stats-v1\nschema cells\n");

    const lint::RunResult result = runRule(tree, "schema-drift");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].file, "src/common/metrics.cc");
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_NE(result.findings[0].message.find("cells"),
              std::string::npos);
}

TEST(AnalysisSchema, MissingTableIsExactlyOneFinding)
{
    TempTree tree;
    addStatsExporter(tree, false);
    tree.add("EXPERIMENTS.md", "no tables here\n");

    const lint::RunResult result = runRule(tree, "schema-drift");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_EQ(result.findings[0].line, 1);
    EXPECT_NE(result.findings[0].message.find("schema-keys"),
              std::string::npos);
}

TEST(AnalysisSchema, MatchingTableIsClean)
{
    TempTree tree;
    addStatsExporter(tree, false);
    tree.add("EXPERIMENTS.md", "schema-keys: hllc-stats-v1\nschema\n");
    EXPECT_TRUE(runRule(tree, "schema-drift").findings.empty());
}

TEST(AnalysisSchema, ParseSchemaTablesShape)
{
    const auto tables = lint::parseSchemaTables(
        "intro prose\n"
        "schema-keys: hllc-stats-v1\n"
        "schema cells\n"
        "label\n"
        "\n"
        "schema-keys: hllc-lint-v1\n"
        "findings\n"
        "```\n"
        "ignored\n");
    ASSERT_EQ(tables.size(), 2u);
    const auto &stats = tables.at("hllc-stats-v1");
    EXPECT_EQ(stats.size(), 3u);
    EXPECT_TRUE(stats.count("label"));
    const auto &lint_keys = tables.at("hllc-lint-v1");
    EXPECT_EQ(lint_keys.size(), 1u);
    EXPECT_FALSE(lint_keys.count("ignored"));
}

// --------------------------------------------------------------------
// include-graph
// --------------------------------------------------------------------

TEST(AnalysisInclude, HeaderCycleIsReported)
{
    TempTree tree;
    tree.add("src/cache/a.hh",
             "#include \"cache/b.hh\"\nstruct A { B *b; };\n");
    tree.add("src/cache/b.hh",
             "#include \"cache/a.hh\"\nstruct B { A *a; };\n");

    const lint::RunResult result = runRule(tree, "include-graph");
    ASSERT_EQ(result.findings.size(), 1u);
    EXPECT_NE(result.findings[0].message.find("include cycle"),
              std::string::npos);
}

// --------------------------------------------------------------------
// Suppression semantics on the semantic rules.
// --------------------------------------------------------------------

TEST(AnalysisSuppression, InlineWaiverCoversSemanticFindings)
{
    TempTree tree;
    tree.add("src/sim/s.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }"
             " // hllc-lint: allow(rng-discipline) corpus\n");
    EXPECT_TRUE(runRule(tree, "rng-discipline").findings.empty());
}

TEST(AnalysisSuppression, StandaloneWaiverCoversNextLine)
{
    TempTree tree;
    addCatalog(tree);
    addGuardedOpen(tree);
    tree.add("src/cache/orphan.cc",
             "// hllc-lint: allow(failpoint-coverage) corpus\n"
             "int orphan() { return ::open(\"g\", 0); }\n");
    EXPECT_TRUE(runRule(tree, "failpoint-coverage").findings.empty());
}

TEST(AnalysisSuppression, WaiverForOtherRuleDoesNotCover)
{
    TempTree tree;
    tree.add("src/sim/s.cc",
             "void f() { rng::Xoshiro256StarStar r(12345); }"
             " // hllc-lint: allow(determinism) wrong rule\n");
    EXPECT_EQ(runRule(tree, "rng-discipline").findings.size(), 1u);
}

TEST(AnalysisSuppression, WaiversCoverLockAndIncludeRules)
{
    TempTree tree;
    tree.add("src/cache/reg.hh",
             "struct Reg {\n"
             "    Mutex mutex_;\n"
             "    int hits_ HLLC_GUARDED_BY(mutex_);\n"
             "    // hllc-lint: allow(lock-discipline) corpus\n"
             "    void bad() { hits_ = 2; }\n"
             "};\n");
    // A cycle is reported at line 1 of a header on it.
    tree.add("src/cache/a.hh",
             "#include \"cache/b.hh\" // hllc-lint: allow(include-graph)"
             " corpus\n");
    tree.add("src/cache/b.hh",
             "#include \"cache/a.hh\" // hllc-lint: allow(include-graph)"
             " corpus\n");
    EXPECT_TRUE(runRule(tree, "lock-discipline").findings.empty());
    EXPECT_TRUE(runRule(tree, "include-graph").findings.empty());
}

// --------------------------------------------------------------------
// Whole-tree self-check: the real repository must stay clean.
// --------------------------------------------------------------------

TEST(AnalysisSelfCheck, RepositoryTreeIsCleanUnderEveryRule)
{
#ifdef HLLC_TESTS_CORPUS_DIR
    const fs::path repo_root =
        fs::path(HLLC_TESTS_CORPUS_DIR).parent_path().parent_path();
    if (!fs::is_regular_file(repo_root / "src/lint/rules.cc"))
        GTEST_SKIP() << "repo sources not present";
    const lint::RunResult result = lint::analyzeTree(repo_root.string());
    for (const lint::Finding &finding : result.findings) {
        ADD_FAILURE() << finding.file << ":" << finding.line << " ["
                      << finding.rule << "] " << finding.message;
    }
    EXPECT_GT(result.filesScanned, 100u);
#else
    GTEST_SKIP() << "corpus dir not defined";
#endif
}

// --------------------------------------------------------------------
// Failpoint catalog pinning (the closed-catalog regression test).
// --------------------------------------------------------------------

TEST(AnalysisCatalogPin, EveryCatalogNameHasASiteAndViceVersa)
{
#ifdef HLLC_TESTS_CORPUS_DIR
    const fs::path repo_root =
        fs::path(HLLC_TESTS_CORPUS_DIR).parent_path().parent_path();
    if (!fs::is_regular_file(repo_root / "src/common/failpoint.cc"))
        GTEST_SKIP() << "repo sources not present";

    // Index the real src/ + tools/ trees and compare the catalog
    // against the union of HLLC_FAILPOINT/shouldFail literal sites —
    // set-based, so reordering the catalog stays legal.
    lint::TreeIndex tree;
    const std::vector<std::string> walk = { "src", "tools" };
    for (const std::string &rel :
         lint::collectLintFiles(repo_root.string(), walk)) {
        const std::vector<std::uint8_t> bytes =
            serial::readFileBytes((repo_root / rel).string());
        tree.files.push_back(lint::indexFile(
            rel, std::string(bytes.begin(), bytes.end())));
    }

    std::set<std::string> catalog;
    const lint::FileIndex *cat =
        tree.byPath("src/common/failpoint.cc");
    ASSERT_NE(cat, nullptr);
    for (const lint::CatalogEntry &entry : cat->catalog)
        catalog.insert(entry.name);
    ASSERT_GE(catalog.size(), 15u);

    std::set<std::string> sites;
    for (const lint::FileIndex &file : tree.files) {
        for (const lint::FailpointSite &site : file.failpoints)
            sites.insert(site.name);
    }
    EXPECT_EQ(catalog, sites);
#else
    GTEST_SKIP() << "corpus dir not defined";
#endif
}

} // anonymous namespace
