/**
 * @file
 * Tests for nmaplint (tools/nmaplint/): every rule fires on its
 * fixture with the right id and exit code, waivers suppress findings
 * only when they carry a reason, the helper modes behave, and — the
 * gate this whole PR exists for — the real source tree lints clean.
 *
 * The binary is exercised end-to-end via its CLI (popen), exactly as
 * CI and `make nmaplint` run it. Paths are injected by CMake:
 * NMAPLINT_BIN, LINT_FIXTURES_DIR, NMAPSIM_SOURCE_DIR.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string out; //!< stdout only (findings); stderr is the summary
};

RunResult
run(const std::string &args)
{
    const std::string cmd =
        std::string(NMAPLINT_BIN) + " " + args + " 2>/dev/null";
    RunResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return r;
    std::array<char, 4096> buf;
    std::size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.out.append(buf.data(), n);
    const int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

RunResult
lintFixture(const std::string &relPath)
{
    const std::string dir = LINT_FIXTURES_DIR;
    return run("--root " + dir + " " + dir + "/" + relPath);
}

/** Every non-empty output line, for per-finding assertions. */
std::vector<std::string>
lines(const std::string &out)
{
    std::vector<std::string> result;
    std::string::size_type start = 0;
    while (start < out.size()) {
        std::string::size_type nl = out.find('\n', start);
        if (nl == std::string::npos)
            nl = out.size();
        if (nl > start)
            result.push_back(out.substr(start, nl - start));
        start = nl + 1;
    }
    return result;
}

struct FixtureCase
{
    const char *file;
    const char *rule;
};

constexpr FixtureCase kFixtures[] = {
    {"src/assert_bare.cc", "assert-in-model"},
    {"src/nondet.cc", "nondet-source"},
    {"src/unordered_iter.cc", "unordered-iter"},
    {"src/raw_output.cc", "raw-output"},
    {"src/no_namespace.hh", "header-hygiene"},
    {"src/topology_header_bad.hh", "header-hygiene"},
    {"src/register_bad.cc", "register-hygiene"},
    {"src/register_dispatch_bad.cc", "register-hygiene"},
    {"src/register_dataplane_bad.cc", "register-hygiene"},
    {"src/register_admission_bad.cc", "register-hygiene"},
    {"src/register_direct_bad.cc", "register-hygiene"},
    {"src/bad_waiver.cc", "bad-waiver"},
    {"src/waived_multiline_scope.cc", "nondet-source"},
};

TEST(LintTest, EachFixtureTriggersExactlyItsRule)
{
    for (const FixtureCase &fc : kFixtures) {
        SCOPED_TRACE(fc.file);
        const RunResult r = lintFixture(fc.file);
        EXPECT_EQ(r.exitCode, 1);
        const std::vector<std::string> found = lines(r.out);
        ASSERT_FALSE(found.empty());
        const std::string tag = std::string(": ") + fc.rule + ": ";
        for (const std::string &line : found) {
            EXPECT_NE(line.find(fc.file), std::string::npos) << line;
            EXPECT_NE(line.find(tag), std::string::npos)
                << "finding from an unexpected rule: " << line;
        }
    }
}

TEST(LintTest, FindingsCarryFileAndLineNumber)
{
    const RunResult r = lintFixture("src/raw_output.cc");
    ASSERT_EQ(r.exitCode, 1);
    // `file:line: rule: message`, GitHub-annotation friendly.
    EXPECT_NE(r.out.find("src/raw_output.cc:9: raw-output: "),
              std::string::npos)
        << r.out;
}

TEST(LintTest, WaivedViolationIsClean)
{
    const RunResult r = lintFixture("src/waived.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(LintTest, CleanFileIsClean)
{
    const RunResult r = lintFixture("src/clean.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(LintTest, WaiverOnStatementFirstLineCoversContinuationLines)
{
    // The violating token sits on the continuation line of a wrapped
    // statement; the waiver trails the statement's first line.
    const RunResult r = lintFixture("src/waived_multiline.cc");
    EXPECT_EQ(r.exitCode, 0);
    EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(LintTest, StatementWaiverDoesNotLeakIntoNextStatement)
{
    // Same shape, but a second (unwaived) statement repeats the
    // violation: exactly that one must survive.
    const RunResult r = lintFixture("src/waived_multiline_scope.cc");
    EXPECT_EQ(r.exitCode, 1);
    const std::vector<std::string> found = lines(r.out);
    ASSERT_EQ(found.size(), 1u) << r.out;
    EXPECT_NE(
        found[0].find("src/waived_multiline_scope.cc:14: nondet-source"),
        std::string::npos)
        << found[0];
}

TEST(LintTest, WholeFixtureTreeReportsEveryRule)
{
    const std::string dir = LINT_FIXTURES_DIR;
    const RunResult r = run("--root " + dir + " " + dir);
    EXPECT_EQ(r.exitCode, 1);
    for (const FixtureCase &fc : kFixtures)
        EXPECT_NE(r.out.find(std::string(": ") + fc.rule + ": "),
                  std::string::npos)
            << "rule " << fc.rule << " never fired:\n"
            << r.out;
}

/** The acceptance gate: the real tree has zero unwaived findings. */
TEST(LintTest, RealSourceTreeIsClean)
{
    const RunResult r =
        run(std::string("--root ") + NMAPSIM_SOURCE_DIR);
    EXPECT_EQ(r.exitCode, 0) << r.out;
    EXPECT_TRUE(r.out.empty()) << r.out;
}

// --- project phase ---------------------------------------------------

/** The fixture mini-repo under lint_fixtures/project: each file
 *  violates exactly one project rule. A no-path run scans the root's
 *  default dirs and enables the project phase. */
RunResult
lintProjectTree(const std::string &extraArgs = "")
{
    const std::string dir = std::string(LINT_FIXTURES_DIR) + "/project";
    return run("--root " + dir + " " + extraArgs);
}

TEST(LintTest, ProjectPhaseFiresEveryProjectRule)
{
    const RunResult r = lintProjectTree();
    EXPECT_EQ(r.exitCode, 1);
    const std::vector<std::string> found = lines(r.out);
    EXPECT_EQ(found.size(), 7u) << r.out;
    for (const char *want :
         {"src/sim/uses_harness.cc:3: layering: module 'sim' may not "
          "include 'harness/above.hh'",
          "src/sim/cycle_a.hh:5: layering: include cycle among: "
          "src/sim/cycle_a.hh, src/sim/cycle_b.hh",
          "src/net/global_state.cc:5: shared-mutable-state: mutable "
          "namespace-scope state 'int g_packetsSeen = 0'",
          "src/net/global_state.cc:10: shared-mutable-state: non-const "
          "function-local static 'static int counter = 0'",
          "src/harness/config_io.cc:12: config-doc-sync: config key "
          "'undocumented_key' is parsed here but missing",
          "README.md:13: config-doc-sync: README.md documents config "
          "key 'ghost.knob' but no code under src/ reads it",
          "src/sim/stale.cc:5: stale-waiver: waiver 'nondet-ok' (rule "
          "'nondet-source') no longer suppresses anything"})
        EXPECT_NE(r.out.find(want), std::string::npos)
            << "missing finding: " << want << "\n"
            << r.out;
}

TEST(LintTest, ExplicitPathsSkipProjectPhaseUnlessRequested)
{
    const std::string dir = std::string(LINT_FIXTURES_DIR) + "/project";
    const std::string target = dir + "/src/net/global_state.cc";
    // Per-file rules alone find nothing here...
    const RunResult perFile = run("--root " + dir + " " + target);
    EXPECT_EQ(perFile.exitCode, 0) << perFile.out;
    // ...until --project opts the run into the second phase.
    const RunResult project =
        run("--root " + dir + " --project " + target);
    EXPECT_EQ(project.exitCode, 1);
    EXPECT_NE(project.out.find("shared-mutable-state"),
              std::string::npos)
        << project.out;
}

TEST(LintTest, ParallelJobsOutputIsByteIdenticalToSerial)
{
    const RunResult serial = lintProjectTree("--jobs 1");
    const RunResult parallel = lintProjectTree("--jobs 8");
    EXPECT_EQ(serial.exitCode, parallel.exitCode);
    EXPECT_EQ(serial.out, parallel.out);
}

std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(NMAPSIM_SOURCE_DIR) + "/tests/golden/lint/" +
           name;
}

TEST(LintTest, JsonOutputMatchesGoldenSnapshot)
{
    const RunResult r = lintProjectTree("--format json");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_EQ(r.out, readFileOrEmpty(goldenPath("project.json")));
}

TEST(LintTest, SarifOutputMatchesGoldenSnapshot)
{
    const RunResult r = lintProjectTree("--format sarif");
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_EQ(r.out, readFileOrEmpty(goldenPath("project.sarif")));
}

/** Structural validation against the SARIF 2.1.0 schema subset we
 *  emit: required top-level properties, the run/tool/driver shape,
 *  and for every result a ruleId that resolves to a declared rule, a
 *  message, and a physical location with uri + 1-based startLine. */
TEST(LintTest, SarifOutputIsSchemaValid)
{
    const RunResult r = lintProjectTree("--format sarif");
    const std::string &s = r.out;

    EXPECT_NE(
        s.find(
            "\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""),
        std::string::npos);
    EXPECT_NE(s.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(s.find("\"runs\": ["), std::string::npos);
    EXPECT_NE(s.find("\"tool\": {"), std::string::npos);
    EXPECT_NE(s.find("\"driver\": {"), std::string::npos);
    EXPECT_NE(s.find("\"name\": \"nmaplint\""), std::string::npos);
    EXPECT_NE(s.find("\"rules\": ["), std::string::npos);
    EXPECT_NE(s.find("\"results\": ["), std::string::npos);

    // Every declared rule id; every result references a declared one.
    std::vector<std::string> declared;
    std::string::size_type pos = 0;
    while ((pos = s.find("{\"id\": \"", pos)) != std::string::npos) {
        pos += 8;
        declared.push_back(s.substr(pos, s.find('"', pos) - pos));
    }
    EXPECT_FALSE(declared.empty());

    std::size_t results = 0;
    pos = 0;
    while ((pos = s.find("\"ruleId\": \"", pos)) != std::string::npos) {
        pos += 11;
        const std::string id = s.substr(pos, s.find('"', pos) - pos);
        EXPECT_NE(std::find(declared.begin(), declared.end(), id),
                  declared.end())
            << "result references undeclared rule: " << id;
        // The required result properties, in emission order.
        const std::string::size_type level = s.find("\"level\": ", pos);
        const std::string::size_type message =
            s.find("\"message\": {\"text\": ", pos);
        const std::string::size_type uri = s.find("\"uri\": ", pos);
        const std::string::size_type start =
            s.find("\"startLine\": ", pos);
        ASSERT_NE(level, std::string::npos);
        ASSERT_NE(message, std::string::npos);
        ASSERT_NE(uri, std::string::npos);
        ASSERT_NE(start, std::string::npos);
        EXPECT_GE(std::atoi(s.c_str() + start + 13), 1)
            << "startLine must be 1-based";
        ++results;
    }
    EXPECT_EQ(results, 7u) << s;
}

// --- --changed -------------------------------------------------------

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

int
shell(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(LintTest, ChangedLintsOnlyGitModifiedFiles)
{
    const std::string dir = testing::TempDir() + "nmaplint_changed";
    ASSERT_EQ(shell("rm -rf '" + dir + "' && mkdir -p '" + dir +
                    "/src' && git -C '" + dir + "' init -q"),
              0);
    const std::string violation =
        "#include <cstdlib>\n"
        "namespace nmapsim {\n"
        "int f() { return std::rand(); }\n"
        "} // namespace nmapsim\n";
    // A committed violation is invisible to --changed...
    writeFile(dir + "/src/committed.cc", violation);
    ASSERT_EQ(shell("git -C '" + dir + "' add -A && git -C '" + dir +
                    "' -c user.name=t -c user.email=t@t commit -qm x"),
              0);
    const RunResult clean = run("--changed --root " + dir);
    EXPECT_EQ(clean.exitCode, 0);
    EXPECT_TRUE(clean.out.empty()) << clean.out;
    // ...while an untracked one is linted, and only it.
    writeFile(dir + "/src/fresh.cc", violation);
    const RunResult r = run("--changed --root " + dir);
    EXPECT_EQ(r.exitCode, 1);
    EXPECT_NE(r.out.find("src/fresh.cc:3: nondet-source"),
              std::string::npos)
        << r.out;
    EXPECT_EQ(r.out.find("committed.cc"), std::string::npos) << r.out;
}

// --- CLI surface -----------------------------------------------------

TEST(LintTest, UnknownFormatIsUsageError)
{
    EXPECT_EQ(run("--format yaml").exitCode, 2);
}

TEST(LintTest, ListRulesNamesEveryRule)
{
    const RunResult r = run("--list-rules");
    EXPECT_EQ(r.exitCode, 0);
    for (const char *rule :
         {"assert-in-model", "nondet-source", "unordered-iter",
          "raw-output", "header-hygiene", "register-hygiene",
          "layering", "shared-mutable-state", "config-doc-sync",
          "stale-waiver"})
        EXPECT_NE(r.out.find(rule), std::string::npos) << rule;
}

TEST(LintTest, WaiveHelperPrintsExactComment)
{
    const RunResult byRule =
        run("--waive unordered-iter iteration feeds no results");
    EXPECT_EQ(byRule.exitCode, 0);
    EXPECT_EQ(byRule.out,
              "// lint: ordered-ok(iteration feeds no results)\n");

    const RunResult byToken = run("--waive nondet-ok progress timer");
    EXPECT_EQ(byToken.exitCode, 0);
    EXPECT_EQ(byToken.out, "// lint: nondet-ok(progress timer)\n");
}

TEST(LintTest, WaiveHelperDemandsReasonAndKnownRule)
{
    EXPECT_EQ(run("--waive unordered-iter").exitCode, 2);
    EXPECT_EQ(run("--waive no-such-rule why not").exitCode, 2);
}

} // namespace
