/**
 * @file
 * End-to-end tests for the nmapsim_run CLI: the policy listing, the
 * --print-config / --config round trip, construction-time rejection of
 * unknown names in every policy family, and case-insensitive names.
 *
 * The binary is driven through popen, exactly as a user runs it. Its
 * path is injected by CMake as NMAPSIM_RUN_BIN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string out; //!< stdout, plus stderr when asked for
};

RunResult
run(const std::string &args, bool withStderr = false)
{
    const std::string cmd = std::string(NMAPSIM_RUN_BIN) + " " + args +
                            (withStderr ? " 2>&1" : " 2>/dev/null");
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

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

TEST(NmapsimRunTest, ListPoliciesShowsEveryFamilySorted)
{
    const RunResult r = run("--list-policies");
    ASSERT_EQ(r.exitCode, 0);

    // Sections in order, each with its names sorted.
    const std::vector<std::string> headings = {
        "frequency policies:",
        "sleep policies:",
        "dispatch policies (cluster mode):",
        "dataplane policies (--dataplane=bypass):",
        "admission policies (resilience.admission):",
    };
    std::vector<std::vector<std::string>> sections;
    for (const std::string &line : lines(r.out)) {
        if (line.rfind("  ", 0) == 0) {
            ASSERT_FALSE(sections.empty()) << line;
            sections.back().push_back(line.substr(2, line.find(' ', 2) - 2));
            continue;
        }
        ASSERT_LT(sections.size(), headings.size()) << line;
        EXPECT_EQ(line, headings[sections.size()]);
        sections.emplace_back();
    }
    ASSERT_EQ(sections.size(), headings.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
        SCOPED_TRACE(headings[i]);
        EXPECT_FALSE(sections[i].empty());
        EXPECT_TRUE(std::is_sorted(sections[i].begin(), sections[i].end()));
    }
    EXPECT_NE(r.out.find("  NMAP "), std::string::npos);
    EXPECT_NE(r.out.find("  metronome "), std::string::npos);
    EXPECT_NE(r.out.find("  queue-deadline "), std::string::npos);
}

/** --print-config, fed back through --config, prints the same text. */
void
expectPrintConfigRoundTrips(const std::string &flags,
                            const std::string &file)
{
    const RunResult first = run(flags + " --print-config");
    ASSERT_EQ(first.exitCode, 0);
    ASSERT_FALSE(first.out.empty());

    const std::string path = ::testing::TempDir() + file;
    std::ofstream(path) << first.out;
    const RunResult second = run("--config=" + path + " --print-config");
    ASSERT_EQ(second.exitCode, 0);
    EXPECT_EQ(second.out, first.out);
    std::remove(path.c_str());
}

TEST(NmapsimRunTest, SingleHostConfigRoundTrips)
{
    expectPrintConfigRoundTrips(
        "--policy=ondemand --idle=c6only --set nmap.ni_th=13",
        "nmapsim_run_test_single.cfg");
}

TEST(NmapsimRunTest, ClusterConfigRoundTrips)
{
    const std::string flags = "--hosts=2 --dispatch=flow-hash "
                              "--set host1.freq_policy=performance";
    EXPECT_NE(run(flags + " --print-config").out.find(
                  "host1.freq_policy=performance"),
              std::string::npos);
    expectPrintConfigRoundTrips(flags, "nmapsim_run_test_cluster.cfg");
}

TEST(NmapsimRunTest, UnknownNameInEveryFamilyFailsWithKnownList)
{
    for (const char *flags :
         {"--policy=no-such", "--idle=no-such", "--dispatch=no-such",
          "--dataplane=bypass --set dataplane.policy=no-such",
          "--set resilience.admission=no-such"}) {
        SCOPED_TRACE(flags);
        const RunResult r = run(flags, /*withStderr=*/true);
        EXPECT_NE(r.exitCode, 0);
        EXPECT_NE(r.out.find("known: "), std::string::npos) << r.out;
        // Construction validates before the run banner prints.
        EXPECT_EQ(r.out.find("seed="), std::string::npos) << r.out;
    }
}

TEST(NmapsimRunTest, EveryBadKeyOrValueFailsBeforeTheBanner)
{
    // One rule for every params namespace, whether or not the active
    // policy reads it, and one codec for every duration.
    const std::string window = " --cores=2 --warmup=1ms --duration=5ms";
    const std::pair<const char *, const char *> cases[] = {
        {"--policy=NMAP --set nmap.ni_th=10 --set nmap.cu_th=0.5 "
         "--set nmap.typo=3",
         "nmap.typo"},
        {"--policy=Parties --set parties.bogus=1", "parties.bogus"},
        {"--policy=NCAP --set ncap.bogus=1", "ncap.bogus"},
        {"--policy=NMAP-adaptive --set adaptive.bogus=1",
         "adaptive.bogus"},
        {"--policy=userspace --set userspace.bogus=1", "userspace.bogus"},
        {"--hosts=2 --dispatch=consistent-hash --set dispatch.bogus=1",
         "dispatch.bogus"},
        {"--dataplane=bypass --set dataplane.policy=metronome "
         "--set metronome.bogus=1",
         "metronome.bogus"},
        {"--set foo.bar=1", "foo.bar"},
        {"--set nmapp.ni_th=3", "nmapp.ni_th"},
        {"--hosts=2 --set host1.nmap.typo=3", "nmap.typo"},
        {"--hosts=2 --set host1.nmapp.ni_th=3", "nmapp.ni_th"},
        {"--policy=ondemand --set nmap.ni_th=abc", "nmap.ni_th"},
        {"--policy=NMAP --set nmap.ni_th=abc", "nmap.ni_th"},
        {"--set gov.sample_period=0", "gov.sample_period"},
        {"--warmup=-5ms", "warmup"},
        {"--hosts=2 --set cluster.drain=-10ms", "cluster.drain"},
        {"--set nic.dma_latency=-1us", "nic.dma_latency"},
        {"--hosts=2 --set cluster.fabric_latency=-1us",
         "cluster.fabric_latency"},
        {"--set burst.period=0", "burst.period"},
        {"--set burst.on_time=0", "burst.on_time"},
        {"--set connection_skew=-1", "connection_skew"},
        {"--set duty_override=2", "duty_override"},
        {"--set train_mean_override=0.5", "train_mean_override"},
        {"--hosts=2 --set burst.period=0", "burst.period"},
        {"--set collect_traces=true --set trace_bucket=0", "trace_bucket"},
        {"--set collect_traces=true --set watch_core=9", "watch_core"},
        {"--policy=NMAP-adaptive --set adaptive.ni_quantile=2",
         "adaptive.ni_quantile"},
        {"--policy=NMAP-adaptive --set adaptive.min_samples=-1",
         "adaptive.min_samples"},
        {"--policy=NMAP --set nmap.ni_th=-5", "nmap.ni_th"},
        {"--policy=NMAP --set nmap.ni_th=10 --set nmap.cu_th=-1",
         "nmap.cu_th"},
        {"--policy=Parties --set parties.down_slack=-1",
         "parties.down_slack"},
        {"--policy=NCAP --set ncap.rps_threshold=-5", "ncap.rps_threshold"},
        {"--policy=NMAP-adaptive --set adaptive.ratio_alpha=2",
         "adaptive.ratio_alpha"},
        {"--policy=NMAP-adaptive --set adaptive.ni_margin=-1",
         "adaptive.ni_margin"},
        {"--policy=NMAP-adaptive --set adaptive.cu_margin=-1",
         "adaptive.cu_margin"},
        {"--policy=ondemand --set gov.up_threshold=5", "gov.up_threshold"},
        {"--set rps_override=-5", "rps_override"},
        {"--hosts=2 --set host0.weight=nan", "host0.weight"},
        {"--hosts=2 --set host0.weight=inf", "host0.weight"},
        {"--set fault.wire_loss=nan", "fault.wire_loss"},
        {"--hosts=2 --set cluster.port_bandwidth=nan",
         "cluster.port_bandwidth"},
        {"--hosts=2 --set cluster.port_bandwidth=0",
         "cluster.port_bandwidth"},
        {"--hosts=2 --set cluster.fabric_bandwidth=-1",
         "cluster.fabric_bandwidth"},
        {"--set os.napi_weight=0", "os.napi_weight"},
        {"--set os.tx_clean_budget=0", "os.tx_clean_budget"},
        {"--set nic.rx_ring_size=0", "nic.rx_ring_size"},
        {"--set os.rx_packet_cycles=-5", "os.rx_packet_cycles"},
        {"--set os.irq_cycles=inf", "os.irq_cycles"},
        {"--idle=disable --set os.jiffy=0", "os.jiffy"},
        {"--load=low --set os.max_softirq_iters=0", "os.max_softirq_iters"},
        {"--load=low --set os.max_softirq_iters=-7",
         "os.max_softirq_iters"},
        {"--load=low --set os.max_softirq_time=0", "os.max_softirq_time"},
        {"--load=low --policy=NCAP --set os.jiffy=0", "os.jiffy"},
        {"--set connection_skew=inf", "connection_skew"},
        {"--set connections=0", "connections"},
        {"--set connections=1024", "connections"},
        {"--hosts=2 --set connections=1024", "connections"},
    };
    for (const auto &[flags, key] : cases) {
        SCOPED_TRACE(flags);
        const RunResult r = run(window + " " + flags, /*withStderr=*/true);
        EXPECT_NE(r.exitCode, 0);
        EXPECT_EQ(r.out.find("seed="), std::string::npos) << r.out;
        EXPECT_NE(r.out.find(key), std::string::npos) << r.out;
    }
}

TEST(NmapsimRunTest, MixedCaseDataplaneAndAdmissionNamesRun)
{
    const std::string window = " --warmup=5ms --duration=20ms";
    const RunResult bypass = run(
        "--dataplane=bypass --set dataplane.policy=Metronome" + window);
    EXPECT_EQ(bypass.exitCode, 0);
    EXPECT_NE(bypass.out.find("bypass poll sleeps"), std::string::npos);

    const RunResult admission =
        run("--set resilience.admission=Queue-Deadline" + window);
    EXPECT_EQ(admission.exitCode, 0);
    EXPECT_NE(admission.out.find("shed (admission)"), std::string::npos);
}

} // namespace
