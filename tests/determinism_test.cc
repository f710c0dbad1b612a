/**
 * @file
 * Dynamic backstop for the determinism contract nmaplint enforces
 * statically, in two layers:
 *
 *  1. Rerun identity: run each pinned config (golden_configs.hh) twice
 *     in-process and assert the serialised ResultWriter output — the
 *     artefact benches pin and figures are built from — is
 *     byte-for-byte identical, in both JSON and CSV. This catches what
 *     a source linter cannot: hash-order leaks through containers the
 *     rules miss, uninitialised reads that happen to differ between
 *     runs, static state carried across runs, or a policy sampling an
 *     unseeded RNG. It runs under ASan/UBSan and TSan in CI.
 *
 *  2. Golden pins: the same output must match the checked-in
 *     .golden files under tests/golden byte for byte. This extends the
 *     contract across *engine rewrites* — the calendar event queue and
 *     pooled containers replaced the heap/deque engine under these
 *     pins. A legitimate format or config change regenerates them with
 *     golden_gen (see golden_configs.hh); an engine change never does.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "golden_configs.hh"

namespace nmapsim {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing golden file: " << path
                    << " (regenerate with golden_gen — see "
                       "golden_configs.hh)";
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(NMAPSIM_GOLDEN_DIR) + "/" + name + ".golden";
}

TEST(DeterminismTest, SingleHostOutputByteIdenticalAcrossRuns)
{
    const ExperimentConfig cfg = golden::smallSingleHost();
    const std::string first = golden::renderSingleHost(cfg);
    const std::string second = golden::renderSingleHost(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(DeterminismTest, ClusterOutputByteIdenticalAcrossRuns)
{
    const ClusterConfig cfg = golden::smallCluster();
    const std::string first = golden::renderCluster(cfg);
    const std::string second = golden::renderCluster(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** Same seed + same FaultPlan ⇒ byte-identical output: injected loss
 *  and client retries draw only from their own forked streams. */
TEST(DeterminismTest, FaultySingleHostOutputByteIdenticalAcrossRuns)
{
    const ExperimentConfig cfg = golden::faultedSingleHost();
    const std::string first = golden::renderSingleHost(cfg);
    const std::string second = golden::renderSingleHost(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** The hardest path: whole-host crash + recovery, failure-detector
 *  ejection/readmission and retries, twice, byte-identical. */
TEST(DeterminismTest, FaultyClusterOutputByteIdenticalAcrossRuns)
{
    const ClusterConfig cfg = golden::faultedCluster();
    const std::string first = golden::renderCluster(cfg);
    const std::string second = golden::renderCluster(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** Bypass dataplane + ring-degrade fault: the PMD poll loops, armed
 *  sleeps and mid-run ring shrink replay byte-identically — sleep
 *  durations come from the deterministic Metronome controller, never
 *  from an unseeded source. */
TEST(DeterminismTest, FaultedBypassOutputByteIdenticalAcrossRuns)
{
    const ExperimentConfig cfg = golden::faultedBypassHost();
    const std::string first = golden::renderSingleHost(cfg);
    const std::string second = golden::renderSingleHost(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** 3-tier LB -> app -> cache chain: east-west forwarding, per-tier
 *  dispatch and hop attribution replay byte-identically. */
TEST(DeterminismTest, TieredClusterOutputByteIdenticalAcrossRuns)
{
    const ClusterConfig cfg = golden::tieredCluster();
    const std::string first = golden::renderCluster(cfg);
    const std::string second = golden::renderCluster(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** 4-stage NFV service-function chain, twice, byte-identical. */
TEST(DeterminismTest, NfvChainOutputByteIdenticalAcrossRuns)
{
    const ClusterConfig cfg = golden::nfvChain();
    const std::string first = golden::renderCluster(cfg);
    const std::string second = golden::renderCluster(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

/** Full resilience stack (admission + budgets + breakers + deadline
 *  propagation) riding a mid-chain crash: every shed and breaker
 *  transition must land on the same tick in a rerun. */
TEST(DeterminismTest, ResilientCascadeOutputByteIdenticalAcrossRuns)
{
    const ClusterConfig cfg = golden::resilientCascade();
    const std::string first = golden::renderCluster(cfg);
    const std::string second = golden::renderCluster(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(DeterminismTest, BoundedPortOutputByteIdenticalAcrossRuns)
{
    const ClusterConfig cfg = golden::boundedPortCluster();
    const std::string first = golden::renderCluster(cfg);
    const std::string second = golden::renderCluster(cfg);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(GoldenOutputTest, SingleHostMatchesGolden)
{
    const std::string expected = readFile(goldenPath("single_host"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderSingleHost(golden::smallSingleHost()),
              expected);
}

TEST(GoldenOutputTest, ClusterMatchesGolden)
{
    const std::string expected = readFile(goldenPath("cluster"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderCluster(golden::smallCluster()), expected);
}

TEST(GoldenOutputTest, FaultedSingleHostMatchesGolden)
{
    const std::string expected =
        readFile(goldenPath("faulted_single_host"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderSingleHost(golden::faultedSingleHost()),
              expected);
}

TEST(GoldenOutputTest, FaultedClusterMatchesGolden)
{
    const std::string expected = readFile(goldenPath("faulted_cluster"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderCluster(golden::faultedCluster()), expected);
}

TEST(GoldenOutputTest, FaultedBypassMatchesGolden)
{
    const std::string expected =
        readFile(goldenPath("faulted_bypass"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderSingleHost(golden::faultedBypassHost()),
              expected);
}

TEST(GoldenOutputTest, TieredClusterMatchesGolden)
{
    const std::string expected = readFile(goldenPath("tiered_cluster"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderCluster(golden::tieredCluster()), expected);
}

TEST(GoldenOutputTest, NfvChainMatchesGolden)
{
    const std::string expected = readFile(goldenPath("nfv_chain"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderCluster(golden::nfvChain()), expected);
}

TEST(GoldenOutputTest, ResilientCascadeMatchesGolden)
{
    const std::string expected =
        readFile(goldenPath("resilient_cascade"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderCluster(golden::resilientCascade()),
              expected);
}

TEST(GoldenOutputTest, BoundedPortMatchesGolden)
{
    const std::string expected = readFile(goldenPath("bounded_port"));
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(golden::renderCluster(golden::boundedPortCluster()),
              expected);
}

} // namespace
} // namespace nmapsim
