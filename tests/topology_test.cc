/**
 * @file
 * Service-topology tests across all four layers: TopologyPlan parsing
 * and validation, the switch's east-west path and byte-class
 * accounting (driven directly with fake hosts), the harness's tier
 * construction/override/attribution logic, and the chaos interop —
 * a mid-chain host crash exercising tier-local ejection, reroute and
 * upstream retry amplification.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/switch.hh"
#include "cluster/topology.hh"
#include "harness/cluster.hh"
#include "harness/cluster_io.hh"
#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

// --- TopologyPlan parsing -------------------------------------------

TEST(TopologyPlanTest, DisabledWithoutTopologyKeys)
{
    PolicyParams params;
    params.set("nmap.ni_th", "400");
    const TopologyPlan plan = TopologyPlan::fromParams(params);
    EXPECT_FALSE(plan.enabled());
    EXPECT_EQ(plan.numTiers(), 0);
    EXPECT_EQ(plan.totalHosts(), 0);
}

TEST(TopologyPlanTest, ParsesTiersWithDefaultsAndOverrides)
{
    PolicyParams params;
    params.set("topology.tiers", 3);
    params.set("topology.tier0.name", "lb");
    params.set("topology.tier1.hosts", 2);
    params.set("topology.tier1.dispatch", "least-outstanding");
    params.set("topology.tier1.freq_policy", "performance");
    params.set("topology.tier2.service_scale", "0.5");
    params.setTick("topology.tier2.slo", microseconds(80));
    const TopologyPlan plan = TopologyPlan::fromParams(params);

    ASSERT_TRUE(plan.enabled());
    ASSERT_EQ(plan.numTiers(), 3);
    EXPECT_EQ(plan.tiers[0].name, "lb");
    EXPECT_EQ(plan.tiers[0].hosts, 1); // default
    EXPECT_EQ(plan.tiers[1].name, "tier1"); // default name
    EXPECT_EQ(plan.tiers[1].hosts, 2);
    EXPECT_EQ(plan.tiers[1].dispatch, "least-outstanding");
    EXPECT_EQ(plan.tiers[1].freqPolicy, "performance");
    EXPECT_DOUBLE_EQ(plan.tiers[2].serviceScale, 0.5);
    EXPECT_EQ(plan.tiers[2].slo, microseconds(80));

    EXPECT_EQ(plan.totalHosts(), 4);
    EXPECT_EQ(plan.firstHostOf(0), 0);
    EXPECT_EQ(plan.firstHostOf(1), 1);
    EXPECT_EQ(plan.firstHostOf(2), 3);
    EXPECT_EQ(plan.tierOf(0), 0);
    EXPECT_EQ(plan.tierOf(1), 1);
    EXPECT_EQ(plan.tierOf(2), 1);
    EXPECT_EQ(plan.tierOf(3), 2);
}

TEST(TopologyPlanTest, RejectsMalformedTopologyKeys)
{
    auto parse = [](const std::string &key, const std::string &value) {
        PolicyParams params;
        params.set("topology.tiers", 2);
        params.set(key, value);
        return TopologyPlan::fromParams(params);
    };
    // Unknown field, misspelled tier, out-of-range index: all fatal,
    // matching the fault.* unknown-key contract.
    EXPECT_THROW(parse("topology.tier0.hostz", "3"), FatalError);
    EXPECT_THROW(parse("topology.teir0.hosts", "3"), FatalError);
    EXPECT_THROW(parse("topology.tier2.hosts", "3"), FatalError);
    EXPECT_THROW(parse("topology.tier0.hosts", "0"), FatalError);
    EXPECT_THROW(parse("topology.tier0.service_scale", "0"),
                 FatalError);
    EXPECT_THROW(parse("topology.tier1.name", "tier0"), FatalError);

    // Tier keys without a tier count are a typo, not a request for
    // zero tiers.
    PolicyParams params;
    params.set("topology.tier0.hosts", 2);
    EXPECT_THROW(TopologyPlan::fromParams(params), FatalError);
}

// --- Switch east-west path (fake hosts) -----------------------------

/** Round-robin tiers of @p hosts hosts each, in request order. */
TopologyPlan
roundRobinTiers(const std::vector<int> &hosts)
{
    TopologyPlan plan;
    for (int n : hosts) {
        TierSpec &tier = plan.tiers.emplace_back();
        tier.name = "tier" + std::to_string(plan.tiers.size() - 1);
        tier.hosts = n;
        tier.dispatch = "round-robin";
    }
    return plan;
}

/** Two-tier switch driven with fake hosts: host 0 (tier 0) forwards,
 *  host 1 (tier 1) replies. NOTE: with a health detector the switch reschedules
 *  forever, so these tests never use runAll(); here there is no
 *  detector and runAll() is safe. */
class TopologySwitchTest : public ::testing::Test
{
  protected:
    static constexpr int kHosts = 2;

    void
    makeSwitch()
    {
        sw_ = std::make_unique<ClusterSwitch>(
            eq_, SwitchConfig{}, "round-robin",
            std::vector<double>(kHosts, 1.0), PolicyParams{},
            roundRobinTiers({1, 1}));
        sw_->clientPort().setSink([this](const Packet &pkt) {
            ++clientResponses_;
            lastResponse_ = pkt;
        });
        // Tier 0's fake host completes and forwards (kind stays
        // kRequest); tier 1's replies.
        sw_->downlink(0).setSink([this](const Packet &pkt) {
            ++requestsSeen_[0];
            Packet fwd = pkt;
            fwd.sizeBytes = kRequestBytes;
            sw_->fromHost(0, fwd);
        });
        sw_->downlink(1).setSink([this](const Packet &pkt) {
            ++requestsSeen_[1];
            Packet resp = pkt;
            resp.kind = Packet::Kind::kResponse;
            resp.sizeBytes = kResponseBytes;
            sw_->fromHost(1, resp);
        });
        sw_->setHopTap([this](int host, Tick hop) {
            ++hopsSeen_[host];
            lastHopHost_ = host;
            EXPECT_GE(hop, 0);
        });
    }

    void
    offer(int n, bool control = false)
    {
        for (int i = 0; i < n; ++i) {
            events_.push_back(std::make_unique<EventFunctionWrapper>(
                [this, i, control] {
                    Packet pkt;
                    pkt.requestId =
                        static_cast<std::uint64_t>(i) + 1;
                    pkt.sizeBytes = kRequestBytes;
                    pkt.control = control;
                    sw_->fromClient(pkt);
                },
                "test.offer"));
            eq_.schedule(events_.back().get(),
                         microseconds(10) * static_cast<Tick>(i + 1));
        }
    }

    static constexpr std::uint32_t kRequestBytes = 128;
    static constexpr std::uint32_t kResponseBytes = 512;

    EventQueue eq_;
    std::unique_ptr<ClusterSwitch> sw_;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events_;
    std::uint64_t clientResponses_ = 0;
    std::uint64_t requestsSeen_[kHosts] = {0, 0};
    std::uint64_t hopsSeen_[kHosts] = {0, 0};
    int lastHopHost_ = -1;
    Packet lastResponse_;
};

TEST_F(TopologySwitchTest, ForwardsEastWestThroughTheChain)
{
    makeSwitch();
    offer(5);
    eq_.runAll();

    // Every request traversed front then back, then returned.
    EXPECT_EQ(requestsSeen_[0], 5u);
    EXPECT_EQ(requestsSeen_[1], 5u);
    EXPECT_EQ(clientResponses_, 5u);
    const SwitchCounters c = sw_->counters();
    EXPECT_EQ(c.eastWestForwards, 5u);
    EXPECT_EQ(sw_->forwardsReturned(0), 5u);
    EXPECT_EQ(sw_->forwardsReturned(1), 0u);
    EXPECT_EQ(c.responsesReturned, 5u);
    EXPECT_EQ(sw_->responsesReturned(1), 5u);
    EXPECT_EQ(c.requestsForwarded, 10u);
    EXPECT_EQ(sw_->requestsForwarded(0), 5u);
    EXPECT_EQ(sw_->requestsForwarded(1), 5u);
    EXPECT_EQ(sw_->outstanding(0), 0u);
    EXPECT_EQ(sw_->outstanding(1), 0u);

    // The hop tap saw both hops of every request, one per host; the
    // final hop was host 1's reply.
    EXPECT_EQ(hopsSeen_[0], 5u);
    EXPECT_EQ(hopsSeen_[1], 5u);
    EXPECT_EQ(lastHopHost_, 1);

    // The delivered response carries the chain's addressing trail.
    EXPECT_EQ(static_cast<int>(lastResponse_.tier), 1);
    EXPECT_EQ(static_cast<int>(lastResponse_.hops), 1);

    // Byte-class split: goodput counts responses only, east-west
    // counts the forwards, control saw nothing.
    EXPECT_EQ(c.goodputBytes, 5u * kResponseBytes);
    EXPECT_EQ(c.eastWestBytes, 5u * kRequestBytes);
    EXPECT_EQ(c.controlBytes, 0u);
}

TEST_F(TopologySwitchTest, ControlTrafficNeverCountsAsGoodput)
{
    makeSwitch();
    offer(3, /*control=*/true);
    eq_.runAll();

    EXPECT_EQ(clientResponses_, 3u);
    EXPECT_EQ(sw_->counters().goodputBytes, 0u);
    // Counted at client ingress, at each host return, and at client
    // egress — never in the goodput bucket.
    EXPECT_GT(sw_->counters().controlBytes, 0u);
}

TEST_F(TopologySwitchTest, MidChainReplyAndBadTierPanic)
{
    makeSwitch();
    // A mid-chain host replying breaks the forward-vs-reply contract.
    Packet resp;
    resp.kind = Packet::Kind::kResponse;
    EXPECT_THROW(sw_->fromHost(0, resp), PanicError);
    // A last-tier host forwarding has nowhere to go.
    Packet fwd;
    fwd.kind = Packet::Kind::kRequest;
    EXPECT_THROW(sw_->fromHost(1, fwd), PanicError);
    // Mid-chain entry (topology.tier<i>.clients) is legal as long as
    // the tier is declared; past-the-end tiers still panic.
    Packet mid;
    mid.kind = Packet::Kind::kRequest;
    mid.requestId = 99;
    mid.sizeBytes = kRequestBytes;
    mid.tier = 1;
    EXPECT_NO_THROW(sw_->fromClient(mid));
    Packet pkt;
    pkt.kind = Packet::Kind::kRequest;
    pkt.tier = 2;
    EXPECT_THROW(sw_->fromClient(pkt), PanicError);
}

TEST(TopologySwitchConfigTest, RejectsTiersThatMissOrOverrunHosts)
{
    EventQueue eq;
    EXPECT_THROW(ClusterSwitch(eq, SwitchConfig{}, "round-robin",
                               std::vector<double>(2, 1.0),
                               PolicyParams{}, roundRobinTiers({1})),
                 FatalError);
    EXPECT_THROW(ClusterSwitch(eq, SwitchConfig{}, "round-robin",
                               std::vector<double>(2, 1.0),
                               PolicyParams{}, roundRobinTiers({1, 2})),
                 FatalError);
    // Sums that match the weights still need every tier to hold hosts.
    EXPECT_THROW(ClusterSwitch(eq, SwitchConfig{}, "round-robin",
                               std::vector<double>(2, 1.0),
                               PolicyParams{}, roundRobinTiers({2, 0})),
                 FatalError);
    EXPECT_THROW(ClusterSwitch(eq, SwitchConfig{}, "round-robin",
                               std::vector<double>(2, 1.0),
                               PolicyParams{}, roundRobinTiers({3, -1})),
                 FatalError);
}

// --- Harness construction and attribution ---------------------------

ClusterConfig
threeTierConfig()
{
    ClusterConfig cfg;
    cfg.base.app = AppProfile::memcached();
    cfg.base.load = LoadLevel::kMed;
    cfg.base.freqPolicy = "ondemand";
    cfg.base.seed = 11;
    cfg.base.warmup = milliseconds(5);
    cfg.base.duration = milliseconds(20);
    cfg.dispatch = "round-robin";
    cfg.drain = milliseconds(20);
    cfg.base.params.set("topology.tiers", 3);
    cfg.base.params.set("topology.tier0.name", "lb");
    cfg.base.params.set("topology.tier0.service_scale", "0.25");
    cfg.base.params.set("topology.tier1.name", "app");
    cfg.base.params.set("topology.tier1.hosts", 2);
    cfg.base.params.set("topology.tier2.name", "cache");
    return cfg;
}

TEST(TopologyExperimentTest, DerivesHostsAndAppliesTierOverrides)
{
    ClusterConfig cfg = threeTierConfig();
    cfg.base.params.set("topology.tier1.freq_policy", "performance");
    cfg.base.params.set("topology.tier2.idle_policy", "c6only");
    ClusterExperiment exp(cfg);

    // numHosts is derived from the per-tier host counts (1 + 2 + 1).
    EXPECT_EQ(exp.config().numHosts, 4);
    ASSERT_TRUE(exp.plan().topology.enabled());
    EXPECT_EQ(exp.plan().topology.numTiers(), 3);

    // Tier overrides apply to the tier's hosts only, and the host
    // rigs never see cluster-only topology keys.
    EXPECT_EQ(exp.hostConfig(0).freqPolicy, "ondemand");
    EXPECT_EQ(exp.hostConfig(1).freqPolicy, "performance");
    EXPECT_EQ(exp.hostConfig(2).freqPolicy, "performance");
    EXPECT_EQ(exp.hostConfig(3).idlePolicy, "c6only");
    EXPECT_FALSE(exp.hostConfig(1).params.has("topology.tiers"));

    // Even SLO split by default; explicit budgets win.
    EXPECT_EQ(exp.tierSlo(0), cfg.base.app.slo / 3);
    ClusterConfig budget = threeTierConfig();
    budget.base.params.setTick("topology.tier1.slo",
                               microseconds(123));
    EXPECT_EQ(ClusterExperiment(budget).tierSlo(1), microseconds(123));
}

TEST(TopologyExperimentTest, RejectsBadTierConfigs)
{
    {
        ClusterConfig cfg = threeTierConfig();
        cfg.base.params.set("topology.tier1.dispatch", "nope");
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        ClusterConfig cfg = threeTierConfig();
        cfg.base.params.set("topology.tier0.freq_policy", "nope");
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        // Per-host override vectors must match the derived total.
        ClusterConfig cfg = threeTierConfig();
        cfg.numHosts = 2;
        cfg.hosts.resize(2);
        EXPECT_THROW(ClusterExperiment{cfg}, FatalError);
    }
    {
        // Topologies only exist behind the switch.
        ExperimentConfig cfg;
        cfg.params.set("topology.tiers", 2);
        EXPECT_THROW(Experiment{cfg}, FatalError);
    }
}

TEST(TopologyExperimentTest, AttributesPerTierLatencyAndEnergy)
{
    const ClusterResult r = ClusterExperiment(threeTierConfig()).run();

    ASSERT_EQ(r.tiers.size(), 3u);
    EXPECT_EQ(r.tiers[0].name, "lb");
    EXPECT_EQ(r.tiers[1].name, "app");
    EXPECT_EQ(r.tiers[1].hosts, 2);
    EXPECT_EQ(r.tiers[2].name, "cache");

    double share_sum = 0.0;
    double tier_energy = 0.0;
    for (const ClusterTierResult &tier : r.tiers) {
        EXPECT_GT(tier.completions, 0u);
        EXPECT_GT(tier.hopP99, 0);
        EXPECT_GE(tier.hopP99, tier.hopP50);
        EXPECT_GT(tier.slo, 0);
        share_sum += tier.p99Share;
        tier_energy += tier.energyJoules;
    }
    // Tail shares partition the summed hop p99s...
    EXPECT_NEAR(share_sum, 1.0, 1e-9);
    // ...and tier energy partitions the cluster total (up to the
    // associativity of summing the same per-host terms).
    EXPECT_NEAR(tier_energy, r.energyJoules, 1e-6);

    // Per-host attribution: mid-chain hosts forward instead of
    // serving; only the last tier serves responses.
    ASSERT_EQ(r.hosts.size(), 4u);
    EXPECT_GT(r.hosts[0].forwarded, 0u);
    EXPECT_EQ(r.hosts[0].served, 0u);
    EXPECT_EQ(r.hosts[0].tierName, "lb");
    EXPECT_GT(r.hosts[1].forwarded + r.hosts[2].forwarded, 0u);
    EXPECT_EQ(r.hosts[3].forwarded, 0u);
    EXPECT_GT(r.hosts[3].served, 0u);
    EXPECT_EQ(r.hosts[3].tier, 2);
    for (const ClusterHostResult &host : r.hosts) {
        EXPECT_GT(host.hopsCompleted, 0u);
        EXPECT_GT(host.hopP99, 0);
    }

    // End-to-end tail dominates any single hop; the per-hop sum is a
    // lower-bound decomposition of where the time goes.
    EXPECT_GE(r.p99, r.tiers[0].hopP50);
    EXPECT_GT(r.hopP99Sum, 0);
}

// --- Chaos interop: mid-chain crash ---------------------------------

/**
 * Crash one of the two app-tier hosts mid-run with the failure
 * detector armed: the detector must eject it, reroute must stay
 * inside the app tier, upstream clients must retry the written-off
 * work, and the conservation identity must stay exact through crash,
 * ejection, reroute, recovery and readmission.
 */
TEST(TopologyChaosTest, MidChainCrashEjectsTierLocallyAndRecovers)
{
    ClusterConfig cfg = threeTierConfig();
    // Affinity steering at the app tier: flow-hash keeps hashing to
    // the ejected host, so the switch's reroute path (not just the
    // policy's own health awareness) is exercised.
    cfg.base.params.set("topology.tier1.dispatch", "flow-hash");
    cfg.base.duration = milliseconds(60);
    cfg.fabric.healthInterval = milliseconds(1);
    cfg.fabric.healthTimeout = milliseconds(3);
    cfg.fabric.ejectDuration = milliseconds(8);
    cfg.base.params.set("fault.crash_host", 1); // app tier, host 1
    cfg.base.params.setTick("fault.crash_at", milliseconds(15));
    cfg.base.params.setTick("fault.recover_at", milliseconds(40));
    cfg.base.params.setTick("client.timeout", milliseconds(4));
    cfg.base.params.set("client.retries", 3);
    const ClusterResult r = ClusterExperiment(cfg).run();

    // The detector fired on the crashed host and steered around it.
    EXPECT_GE(r.ejections, 1u);
    EXPECT_GT(r.requestsRerouted, 0u);
    ASSERT_EQ(r.hosts.size(), 4u);
    // Only the crashed host is *required* to be ejected; the
    // synchronized retry storm after the crash can trip the silence
    // detector on a single-host stage too (a false positive the
    // readmission path recovers from), so no zero-assert on the
    // other hosts.
    EXPECT_GE(r.hosts[1].ejections, 1u);

    // Upstream retry amplification: the written-off work was
    // retransmitted, and the tier-local reroute kept the service up.
    EXPECT_GT(r.retransmits, 0u);
    EXPECT_GT(r.availability, 0.6);

    // Exact conservation through the whole episode.
    EXPECT_EQ(r.requestsSent, r.responsesReceived +
                                  r.requestsTimedOut +
                                  r.requestsInFlight);

    // The surviving app host absorbed the rerouted flow.
    EXPECT_GT(r.hosts[2].forwarded, r.hosts[1].forwarded);
}

// --- cluster_io: keys, round trip, record columns -------------------

TEST(TopologyIoTest, RoundTripsTopologyKeys)
{
    ClusterConfig cfg = threeTierConfig();
    cfg.numHosts = 4; // printed `hosts` must match the derived count
    const std::string text = printClusterConfig(cfg);
    const ClusterConfig parsed = parseClusterConfig(text);
    EXPECT_EQ(parsed, cfg);
}

TEST(TopologyIoTest, RejectsUnknownPerHostKeysWithLabel)
{
    ClusterConfig cfg;
    cfg.numHosts = 2;
    // Structured and cluster-scoped namespaces are not honoured per
    // host; stashing them silently in params was the old bug.
    for (const std::string key :
         {"host0.os.jiffy", "host1.nic.ring", "host0.gov.up_delay",
          "host0.topology.tiers", "host1.fault.wire_loss",
          "host0.client.retries", "host0.cluster.drain"}) {
        EXPECT_THROW(setClusterConfigValue(cfg, key, "1"), FatalError)
            << key;
    }
    // Policy tunables still overlay per host.
    EXPECT_TRUE(setClusterConfigValue(cfg, "host0.nmap.ni_th", "400"));
    ASSERT_EQ(cfg.hosts.size(), 2u);
    EXPECT_EQ(cfg.hosts[0].params.raw("nmap.ni_th"), "400");
}

TEST(TopologyIoTest, RecordCarriesPerTierColumnsOnlyWhenTiered)
{
    ClusterConfig cfg = threeTierConfig();
    const ClusterResult r = ClusterExperiment(cfg).run();
    ResultWriter writer;
    appendClusterResultRecord(writer, cfg, r);
    std::ostringstream json;
    writer.writeJson(json);
    const std::string out = json.str();
    EXPECT_NE(out.find("\"tiers\""), std::string::npos);
    EXPECT_NE(out.find("tier1_hop_p99_ns"), std::string::npos);
    EXPECT_NE(out.find("tier2_p99_share"), std::string::npos);
    EXPECT_NE(out.find("east_west_forwards"), std::string::npos);
    EXPECT_NE(out.find("goodput_bytes"), std::string::npos);
    EXPECT_NE(out.find("host0_tier_name"), std::string::npos);

    // Single-tier records must not grow any topology columns (the
    // pinned goldens depend on it).
    ClusterConfig flat;
    flat.base.app = AppProfile::memcached();
    flat.base.load = LoadLevel::kLow;
    flat.base.freqPolicy = "performance";
    flat.base.warmup = milliseconds(5);
    flat.base.duration = milliseconds(10);
    flat.numHosts = 2;
    flat.drain = milliseconds(5);
    const ClusterResult fr = ClusterExperiment(flat).run();
    ResultWriter fwriter;
    appendClusterResultRecord(fwriter, flat, fr);
    std::ostringstream fjson;
    fwriter.writeJson(fjson);
    EXPECT_EQ(fjson.str().find("east_west"), std::string::npos);
    EXPECT_EQ(fjson.str().find("tier0_"), std::string::npos);
}

} // namespace
} // namespace nmapsim
