/**
 * @file
 * Tests for the multi-host cluster harness (harness/cluster.hh):
 * construction-time validation, determinism, request conservation,
 * per-host heterogeneity, dispatch weighting/packing semantics, and
 * the cluster config round-trip (harness/cluster_io.hh).
 *
 * Runs use short windows and low load: the point is end-to-end
 * wiring and accounting, not steady-state policy behaviour (the bench
 * ext_cluster covers that at scale).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "harness/cluster.hh"
#include "harness/cluster_io.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

/** A small, fast cluster: 2 hosts, low load, fixed-threshold-free
 *  policies, a drain window long enough for exact conservation. */
ClusterConfig
smallCluster()
{
    ClusterConfig cfg;
    cfg.base.app = AppProfile::memcached();
    cfg.base.load = LoadLevel::kLow;
    cfg.base.freqPolicy = "performance";
    cfg.base.warmup = milliseconds(2);
    cfg.base.duration = milliseconds(10);
    cfg.base.seed = 7;
    cfg.numHosts = 2;
    cfg.dispatch = "round-robin";
    cfg.drain = milliseconds(5);
    return cfg;
}

TEST(ClusterTest, DeterministicForFixedConfigAndSeed)
{
    ClusterConfig cfg = smallCluster();
    ClusterResult a = ClusterExperiment(cfg).run();
    ClusterResult b = ClusterExperiment(cfg).run();

    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.maxLatency, b.maxLatency);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.requestsSent, b.requestsSent);
    EXPECT_EQ(a.responsesReceived, b.responsesReceived);
    ASSERT_EQ(a.hosts.size(), b.hosts.size());
    for (std::size_t i = 0; i < a.hosts.size(); ++i) {
        EXPECT_EQ(a.hosts[i].served, b.hosts[i].served);
        EXPECT_EQ(a.hosts[i].energyJoules, b.hosts[i].energyJoules);
    }

    // A different seed produces a different packet history.
    cfg.base.seed = 8;
    ClusterResult c = ClusterExperiment(cfg).run();
    EXPECT_NE(a.requestsSent, c.requestsSent);
}

TEST(ClusterTest, ConservesRequestsThroughTheSwitch)
{
    ClusterConfig cfg = smallCluster();
    ClusterResult r = ClusterExperiment(cfg).run();

    EXPECT_GT(r.requestsSent, 0u);
    // Unbounded queues + drain window: nothing may be lost anywhere.
    EXPECT_EQ(r.responsesReceived, r.requestsSent);
    EXPECT_EQ(r.requestsForwarded, r.requestsSent);
    EXPECT_EQ(r.responsesReturned, r.requestsSent);
    EXPECT_EQ(r.switchPortDrops, 0u);
    EXPECT_EQ(r.hostNicDrops, 0u);
    EXPECT_EQ(r.strayResponses, 0u);

    // Per-host attribution adds back up to the total.
    std::uint64_t served = 0;
    for (const ClusterHostResult &host : r.hosts)
        served += host.served;
    EXPECT_EQ(served, r.requestsSent);
}

TEST(ClusterTest, MultipleClientGroupsSplitTheLoad)
{
    ClusterConfig cfg = smallCluster();
    cfg.clientGroups = 3;
    ClusterResult r = ClusterExperiment(cfg).run();
    EXPECT_GT(r.requestsSent, 0u);
    EXPECT_EQ(r.responsesReceived, r.requestsSent);
    EXPECT_EQ(r.strayResponses, 0u);
}

TEST(ClusterTest, HeterogeneousPerHostPolicies)
{
    ClusterConfig cfg = smallCluster();
    cfg.hosts.resize(2);
    cfg.hosts[0].freqPolicy = "performance";
    cfg.hosts[1].freqPolicy = "powersave";
    cfg.hosts[1].idlePolicy = "disable";

    ClusterExperiment exp(cfg);
    EXPECT_EQ(exp.hostConfig(0).freqPolicy, "performance");
    EXPECT_EQ(exp.hostConfig(1).freqPolicy, "powersave");
    EXPECT_EQ(exp.hostConfig(1).idlePolicy, "disable");

    ClusterResult r = exp.run();
    ASSERT_EQ(r.hosts.size(), 2u);
    EXPECT_EQ(r.hosts[0].freqPolicy, "performance");
    EXPECT_EQ(r.hosts[1].freqPolicy, "powersave");
    EXPECT_EQ(r.hosts[1].idlePolicy, "disable");
    EXPECT_GT(r.hosts[0].served, 0u);
    EXPECT_GT(r.hosts[1].served, 0u);
    // Round-robin splits evenly, so the P0-pinned host can only burn
    // at least as much energy as the powersave host.
    EXPECT_GE(r.hosts[0].energyJoules, r.hosts[1].energyJoules);
}

TEST(ClusterTest, PerHostParamOverlayReachesTheHostConfig)
{
    ClusterConfig cfg = smallCluster();
    cfg.base.params.set("nmap.ni_th", 1.0);
    cfg.hosts.resize(2);
    cfg.hosts[1].params.set("nmap.ni_th", 9.0);

    ClusterExperiment exp(cfg);
    EXPECT_EQ(exp.hostConfig(0).params.getDouble("nmap.ni_th", 0.0),
              1.0);
    EXPECT_EQ(exp.hostConfig(1).params.getDouble("nmap.ni_th", 0.0),
              9.0);
}

TEST(ClusterTest, DispatchWeightsSkewServedCounts)
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "round-robin";
    cfg.hosts.resize(2);
    cfg.hosts[0].weight = 3.0;
    cfg.hosts[1].weight = 1.0;
    ClusterResult r = ClusterExperiment(cfg).run();
    ASSERT_EQ(r.hosts.size(), 2u);
    EXPECT_GT(r.hosts[0].served, 2 * r.hosts[1].served);
    EXPECT_GT(r.hosts[1].served, 0u);
}

TEST(ClusterTest, PowerPackLeavesTheSpareHostUntouched)
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "power-pack";
    // A knee the low load can never reach: everything packs onto
    // host 0 and host 1 sees zero traffic.
    cfg.base.params.set("dispatch.pack_limit", 1e9);
    ClusterResult r = ClusterExperiment(cfg).run();
    ASSERT_EQ(r.hosts.size(), 2u);
    EXPECT_EQ(r.responsesReceived, r.requestsSent);
    EXPECT_GT(r.hosts[0].served, 0u);
    EXPECT_EQ(r.hosts[1].served, 0u);
    EXPECT_EQ(r.hosts[1].nicRx, 0u);
    EXPECT_LT(r.hosts[1].energyJoules, r.hosts[0].energyJoules);
}

TEST(ClusterTest, NegativeWindowsFailAtConstruction)
{
    ClusterConfig drain = smallCluster();
    drain.drain = -milliseconds(10);
    EXPECT_THROW(ClusterExperiment{drain}, FatalError);
    ClusterConfig warmup = smallCluster();
    warmup.base.warmup = -milliseconds(5);
    EXPECT_THROW(ClusterExperiment{warmup}, FatalError);
}

TEST(ClusterTest, RejectsInvalidConfigs)
{
    {
        ClusterConfig cfg = smallCluster();
        cfg.numHosts = 0;
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.hosts.resize(3); // != numHosts
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.hosts.resize(2);
        cfg.hosts[1].weight = 0.0;
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.clientGroups = 0;
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.numConnections =
            static_cast<int>(kFlowSpaceStride);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.dispatch = "no-such-dispatch";
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.loadSchedule.push_back(
            {milliseconds(1), cfg.base.app.level(LoadLevel::kLow)});
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.colocated.resize(1);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    // The cluster run collects no traces, so asking for one must not
    // run as if unset.
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.collectTraces = true;
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.collectLatencyTrace = true;
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }

    // Every host is validated as a server at construction: errors in
    // the base config or in one host's overrides never reach run().
    auto bypassPollingEveryCore = [](PolicyParams &params, int cores) {
        params.set("dataplane.mode", "bypass");
        params.set("dataplane.poll_cores", cores);
    };
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.freqPolicy = "no-such-policy";
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.idlePolicy = "no-such-policy";
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.hosts.resize(2);
        cfg.hosts[1].freqPolicy = "no-such-policy";
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.hosts.resize(2);
        cfg.hosts[1].idlePolicy = "no-such-policy";
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.numCores = 0;
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        bypassPollingEveryCore(cfg.base.params, cfg.base.numCores);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.hosts.resize(2);
        bypassPollingEveryCore(cfg.hosts[1].params, cfg.base.numCores);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.hosts.resize(2);
        cfg.hosts[1].params.set("dataplane.mode", "bypass");
        cfg.hosts[1].params.set("dataplane.policy", "no-such-policy");
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }

    // Policy-factory parameter errors fail at construction too: the
    // dataplane and dispatch factories run once there.
    {
        ClusterConfig cfg = smallCluster();
        cfg.base.params.set("dataplane.mode", "bypass");
        cfg.base.params.set("dataplane.policy", "metronome");
        cfg.base.params.set("metronome.min_sleep", "0");
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.dispatch = "consistent-hash";
        cfg.base.params.set("dispatch.vnodes", 0);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.dispatch = "power-pack";
        cfg.base.params.set("dispatch.pack_limit", 0.0);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = smallCluster();
        cfg.fabric.healthInterval = milliseconds(1);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
        cfg.fabric.healthTimeout = milliseconds(2);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }

    // So do the run-scoped rules: a retry budget needs client retry,
    // and the admission policy's name and parameters are checked here.
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"resilience.retry_budget", "0.1"},
             {"resilience.admission", "token-bucket"},
             {"resilience.admission", "no-such-admission"}}) {
        ClusterConfig cfg = smallCluster();
        cfg.base.params.set(key, value);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError) << value;
    }
}

TEST(ClusterTest, RejectsPerHostOverlaysItCannotHonour)
{
    auto fatalMessage = [](const auto &fn) {
        try {
            fn();
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    // Structured, cluster-wide, dispatch and run-scoped keys configure
    // the whole run, so one host cannot take them as an overlay; nor
    // can an undotted key name a params overlay. Both the struct and
    // the text path refuse them, with the same message.
    for (const std::string key :
         {"os.jiffy", "nic.ring", "gov.up_delay", "burst.period",
          "cluster.drain", "dispatch.vnodes", "topology.tiers",
          "fault.wire_loss", "client.retries", "resilience.deadline",
          "cores"}) {
        ClusterConfig cfg = smallCluster();
        cfg.hosts.resize(2);
        cfg.hosts[1].params.set(key, "1");
        const std::string built =
            fatalMessage([&cfg] { ClusterExperiment exp(cfg); });
        const std::string parsed = fatalMessage([&cfg, &key] {
            setClusterConfigValue(cfg, "host1." + key, "1");
        });
        EXPECT_NE(built, "") << key;
        EXPECT_EQ(built, parsed) << key;
    }
    // An auto-profiled NMAP host fails at construction too, not in the
    // profiling pass inside run().
    ClusterConfig cfg = smallCluster();
    cfg.hosts.resize(2);
    cfg.hosts[1].freqPolicy = "NMAP";
    cfg.hosts[1].params.set("topology.tiers", 2);
    EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
}

TEST(ClusterTest, ConfigSurvivesThePrintParseRoundTrip)
{
    ClusterConfig cfg = smallCluster();
    cfg.numHosts = 3;
    cfg.dispatch = "consistent-hash";
    cfg.clientGroups = 2;
    cfg.drain = milliseconds(3);
    cfg.fabric.fabricBandwidthBps = 25e9;
    cfg.fabric.fabricLatency = microseconds(3);
    cfg.fabric.portBandwidthBps = 2.5e9;
    cfg.fabric.portPropagation = microseconds(7);
    cfg.fabric.portQueueLimit = 128;
    cfg.fabric.healthInterval = microseconds(200);
    cfg.fabric.healthTimeout = milliseconds(1);
    cfg.fabric.ejectDuration = milliseconds(2);
    cfg.hosts.resize(3);
    cfg.hosts[0].freqPolicy = "ondemand";
    cfg.hosts[1].weight = 2.5;
    cfg.hosts[2].idlePolicy = "teo";
    cfg.hosts[2].params.set("nmap.ni_th", 4.0);
    cfg.base.params.set("dispatch.vnodes", 32);

    ClusterConfig parsed = parseClusterConfig(printClusterConfig(cfg));
    EXPECT_EQ(parsed, cfg);
}

TEST(ClusterTest, PortQueueIsAnUnsignedInteger)
{
    // A negative limit must not wrap around to an unbounded queue.
    ClusterConfig cfg = smallCluster();
    EXPECT_THROW(setClusterConfigValue(cfg, "cluster.port_queue", "-1"),
                 FatalError);
    setClusterConfigValue(cfg, "cluster.port_queue", "64");
    EXPECT_EQ(cfg.fabric.portQueueLimit, 64u);
}

TEST(ClusterTest, ClusterRecordCarriesPerHostColumns)
{
    ClusterConfig cfg = smallCluster();
    ClusterResult r = ClusterExperiment(cfg).run();
    ResultWriter writer;
    appendClusterResultRecord(writer, cfg, r);
    std::ostringstream os;
    writer.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"dispatch\""), std::string::npos);
    EXPECT_NE(json.find("host0_served"), std::string::npos);
    EXPECT_NE(json.find("host1_energy_j"), std::string::npos);
    EXPECT_NE(json.find("switch_port_drops"), std::string::npos);
}

TEST(ClusterTest, AutoProfiledClusterMatchesPinnedThresholds)
{
    // Auto-profiled NMAP hosts (two identical ones, which share one
    // profiling pass, then c6only and chip-wide variants) must run
    // byte for byte like the same cluster with every NMAP host's
    // thresholds pinned to its own profile.
    ClusterConfig cfg = smallCluster();
    cfg.base.freqPolicy = "NMAP";
    cfg.numHosts = 5;
    cfg.hosts.resize(5);
    cfg.hosts[2].idlePolicy = "c6only";
    cfg.hosts[3].freqPolicy = "NMAP-chipwide";
    cfg.hosts[4].freqPolicy = "ondemand";

    ClusterConfig pinned = cfg;
    const ClusterExperiment exp(cfg);
    for (int i = 0; i < 4; ++i) {
        auto [ni, cu] = Experiment::profileThresholds(exp.hostConfig(i));
        pinned.hosts[static_cast<std::size_t>(i)]
            .params.set("nmap.ni_th", ni)
            .set("nmap.cu_th", cu);
    }

    const ClusterResult shared = ClusterExperiment(cfg).run();
    const ClusterResult reference = ClusterExperiment(pinned).run();
    auto json = [](const ClusterConfig &c, const ClusterResult &r) {
        ResultWriter writer;
        appendClusterResultRecord(writer, c, r);
        std::ostringstream os;
        writer.writeJson(os);
        return os.str();
    };
    EXPECT_EQ(json(cfg, shared), json(pinned, reference));
    ASSERT_EQ(shared.hosts.size(), 5u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_GT(shared.hosts[i].niThresholdUsed, 0.0);
        EXPECT_EQ(shared.hosts[i].niThresholdUsed,
                  reference.hosts[i].niThresholdUsed);
        EXPECT_EQ(shared.hosts[i].cuThresholdUsed,
                  reference.hosts[i].cuThresholdUsed);
    }
}

} // namespace
} // namespace nmapsim
