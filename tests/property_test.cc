/**
 * @file
 * Parameterised property tests: invariants that must hold across the
 * whole configuration space (policies x loads x seeds), exercised with
 * TEST_P sweeps on the full end-to-end rig.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "cluster/dispatch.hh"
#include "harness/cluster.hh"
#include "harness/experiment.hh"
#include "sim/rng.hh"

namespace nmapsim {
namespace {

using PolicyLoadSeed = std::tuple<std::string, LoadLevel, unsigned>;

class RigInvariants
    : public ::testing::TestWithParam<PolicyLoadSeed>
{
  protected:
    ExperimentResult
    runShort()
    {
        auto [policy, load, seed] = GetParam();
        ExperimentConfig cfg;
        cfg.app = AppProfile::memcached();
        cfg.freqPolicy = policy;
        cfg.load = load;
        cfg.seed = seed;
        cfg.warmup = milliseconds(50);
        cfg.duration = milliseconds(200);
        // Fixed NMAP thresholds keep the sweep cheap (no profiling
        // sub-run per case).
        cfg.params.set("nmap.ni_th", 14.0);
        cfg.params.set("nmap.cu_th", 0.5);
        return Experiment(cfg).run();
    }
};

TEST_P(RigInvariants, ConservationAndSanity)
{
    ExperimentResult r = runShort();

    // Packet conservation: no drops, nearly everything answered.
    // Exception: powersave pins Pmin, which genuinely cannot sustain
    // the high load — its backlog grows without bound by design.
    auto [policy, load, seed] = GetParam();
    EXPECT_EQ(r.nicDrops, 0u);
    EXPECT_GE(r.requestsSent, r.responsesReceived);
    if (!(policy == "powersave" &&
          load == LoadLevel::kHigh)) {
        EXPECT_GT(r.responsesReceived, r.requestsSent * 9 / 10);
    }

    // Latency is physical: at least one wire round trip.
    EXPECT_GE(r.p50, microseconds(10));
    EXPECT_GE(r.p99, r.p50);
    EXPECT_GE(r.maxLatency, r.p99);
    EXPECT_GE(r.meanLatency, 0.0);

    // Energy and power are positive and bounded by the package's
    // physical envelope (8 cores x ~11 W + uncore).
    EXPECT_GT(r.energyJoules, 0.0);
    EXPECT_GT(r.avgPowerWatts, 1.0);
    EXPECT_LT(r.avgPowerWatts, 120.0);

    // Busy fraction is a fraction.
    EXPECT_GE(r.busyFraction, 0.0);
    EXPECT_LE(r.busyFraction, 1.0);

    // Mode counters only move when traffic exists.
    EXPECT_GT(r.pktsIntrMode + r.pktsPollMode, 0u);

    // Conservation: responses + drops never exceed requests, and the
    // NAPI mode counters partition exactly the packets the OS pulled
    // off the NIC (Rx harvests + Tx completions).
    EXPECT_GE(r.requestsSent, r.responsesReceived + r.nicDrops);
    EXPECT_EQ(r.pktsIntrMode + r.pktsPollMode,
              r.nicRxHarvested + r.nicTxConsumed);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySweep, RigInvariants,
    ::testing::Combine(
        ::testing::Values("performance",
                          "powersave", "ondemand",
                          "conservative",
                          "intel_powersave", "NMAP",
                          "NMAP-simpl",
                          "NMAP-adaptive",
                          "NMAP-chipwide", "NCAP",
                          "NCAP-menu", "Parties"),
        ::testing::Values(LoadLevel::kLow, LoadLevel::kHigh),
        ::testing::Values(3u)),
    [](const ::testing::TestParamInfo<PolicyLoadSeed> &param_info) {
        std::string name =
            std::get<0>(param_info.param) + "_" +
            loadLevelName(std::get<1>(param_info.param)) + "_s" +
            std::to_string(std::get<2>(param_info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

class IdleInvariants : public ::testing::TestWithParam<std::string>
{
};

TEST_P(IdleInvariants, SleepPolicyKeepsSloMachineryIntact)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = "performance";
    cfg.idlePolicy = GetParam();
    cfg.load = LoadLevel::kMed;
    cfg.warmup = milliseconds(50);
    cfg.duration = milliseconds(200);
    ExperimentResult r = Experiment(cfg).run();

    EXPECT_EQ(r.nicDrops, 0u);
    EXPECT_GT(r.responsesReceived, 0u);
    // Section 5.2: sleep policy choices do not blow up tail latency at
    // millisecond SLOs.
    EXPECT_LT(r.p99, 4 * cfg.app.slo);

    if (GetParam() == "disable") {
        EXPECT_EQ(r.cc6Wakes, 0u);
        EXPECT_EQ(r.cc1Wakes, 0u);
    }
    if (GetParam() == "c6only") {
        EXPECT_EQ(r.cc1Wakes, 0u);
        EXPECT_GT(r.cc6Wakes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SleepSweep, IdleInvariants,
    ::testing::Values("menu", "disable",
                      "c6only", "teo"),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        return param_info.param;
    });

using ModeIdle = std::tuple<std::string, std::string>;

class DataplaneConservation
    : public ::testing::TestWithParam<ModeIdle>
{
};

/**
 * The packet-conservation identity is dataplane-agnostic: whether NAPI
 * or the bypass poll loop pulls descriptors off the NIC, and whatever
 * the idle governor does to the (poll) cores in between, interrupt-mode
 * plus polling-mode packets is exactly the harvested work. Bypass adds
 * the stronger half: the interrupt-mode counter never moves.
 */
TEST_P(DataplaneConservation, HoldsAcrossModesAndIdlePolicies)
{
    auto [mode, idle] = GetParam();

    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = "ondemand";
    cfg.idlePolicy = idle;
    cfg.load = LoadLevel::kMed;
    cfg.warmup = milliseconds(30);
    cfg.duration = milliseconds(150);
    if (mode == "bypass") {
        cfg.params.set("dataplane.mode", "bypass");
        // Metronome with armed wakeups actually sleeps the poll core,
        // so the idle governor under test runs on it too.
        cfg.params.set("dataplane.policy", "metronome");
        cfg.params.set("dataplane.sleep_armed_irq", "true");
    }
    ExperimentResult r = Experiment(cfg).run();

    EXPECT_GT(r.responsesReceived, 0u);
    EXPECT_GE(r.requestsSent, r.responsesReceived + r.nicDrops);
    EXPECT_EQ(r.pktsIntrMode + r.pktsPollMode,
              r.nicRxHarvested + r.nicTxConsumed);
    if (mode == "bypass") {
        EXPECT_EQ(r.pktsIntrMode, 0u);
        EXPECT_EQ(r.ksoftirqdWakes, 0u);
        EXPECT_GT(r.bypassPollLoops, 0u);
    } else {
        EXPECT_EQ(r.bypassPollLoops, 0u);
        EXPECT_EQ(r.bypassSleeps, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModeSweep, DataplaneConservation,
    ::testing::Combine(::testing::Values("napi", "bypass"),
                       ::testing::Values("menu", "disable",
                                         "c6only", "teo")),
    [](const ::testing::TestParamInfo<ModeIdle> &param_info) {
        return std::get<0>(param_info.param) + "_" +
               std::get<1>(param_info.param);
    });

class SeedStability : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SeedStability, NmapMeetsSloAtHighLoadAcrossSeeds)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = "NMAP";
    cfg.load = LoadLevel::kHigh;
    cfg.seed = GetParam();
    cfg.warmup = milliseconds(100);
    cfg.duration = milliseconds(400);
    cfg.params.set("nmap.ni_th", 14.0);
    cfg.params.set("nmap.cu_th", 0.5);
    ExperimentResult r = Experiment(cfg).run();
    // The paper's headline: NMAP keeps P99 near the SLO at high load
    // (small seed-to-seed jitter allowed).
    EXPECT_LT(r.p99, cfg.app.slo * 5 / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStability,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

class PacketConservation : public ::testing::TestWithParam<unsigned>
{
};

/**
 * Conservation must hold for *randomised* configurations, not just the
 * curated policy grid: derive a config from the seed (policy, load,
 * burst height, connection skew, core count) and check the packet
 * accounting identities end to end.
 */
TEST_P(PacketConservation, HoldsForRandomConfigs)
{
    const unsigned seed = GetParam();
    Rng rng(seed);

    const std::string policies[] = {
        "performance", "ondemand", "NMAP",
        "NMAP-simpl",  "NCAP",     "Parties",
    };
    const LoadLevel loads[] = {LoadLevel::kLow, LoadLevel::kMed,
                               LoadLevel::kHigh};

    ExperimentConfig cfg;
    cfg.app = rng.bernoulli(0.5) ? AppProfile::memcached()
                                 : AppProfile::nginx();
    cfg.freqPolicy = policies[rng.uniformInt(0, 5)];
    cfg.load = loads[rng.uniformInt(0, 2)];
    cfg.numCores = static_cast<int>(rng.uniformInt(2, 8));
    cfg.connectionSkew = rng.uniform(0.0, 1.0);
    cfg.rpsOverride = cfg.app.level(cfg.load).rps *
                      rng.uniform(0.5, 1.2);
    cfg.seed = seed;
    cfg.warmup = milliseconds(30);
    cfg.duration = milliseconds(150);
    cfg.params.set("nmap.ni_th", 14.0);
    cfg.params.set("nmap.cu_th", 0.5);
    ExperimentResult r = Experiment(cfg).run();

    // Client-side conservation: the server cannot answer requests that
    // were never sent, and drops are a subset of what was sent.
    EXPECT_GE(r.requestsSent, r.responsesReceived + r.nicDrops);

    // OS-side conservation: interrupt-mode plus polling-mode packets
    // is exactly the work NAPI took from the NIC, nothing more or
    // less, whatever the policy, skew or core count.
    EXPECT_EQ(r.pktsIntrMode + r.pktsPollMode,
              r.nicRxHarvested + r.nicTxConsumed);
    EXPECT_GT(r.pktsIntrMode + r.pktsPollMode, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, PacketConservation,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u,
                                           66u));

class LossConservation : public ::testing::TestWithParam<unsigned>
{
};

/**
 * With injected wire loss and client retries, the fire-and-forget
 * identity becomes exact bookkeeping: every request the client sent is
 * answered, timed out, or still in flight — nothing vanishes, however
 * many transmissions the loss ate.
 */
TEST_P(LossConservation, SentEqualsAnsweredPlusTimedOutPlusInFlight)
{
    const unsigned seed = GetParam();
    Rng rng(seed);

    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = rng.bernoulli(0.5) ? "ondemand" : "performance";
    cfg.load = LoadLevel::kMed;
    cfg.seed = seed;
    cfg.warmup = milliseconds(30);
    cfg.duration = milliseconds(150);
    cfg.params.set("fault.wire_loss",
                   formatConfigField(rng.uniform(0.01, 0.1)));
    cfg.params.setTick("client.timeout", milliseconds(2));
    cfg.params.set("client.retries", 3);
    ExperimentResult r = Experiment(cfg).run();

    // The loss actually bit, and retries actually fought back.
    EXPECT_GT(r.faultPacketsLost, 0u);
    EXPECT_GT(r.retransmits, 0u);

    // Exact conservation at the instant the run ended.
    EXPECT_EQ(r.requestsSent, r.responsesReceived +
                                  r.requestsTimedOut +
                                  r.requestsInFlight);
    EXPECT_LE(r.availability, 1.0);
    EXPECT_GT(r.availability, 0.5);
}

INSTANTIATE_TEST_SUITE_P(LossSeeds, LossConservation,
                         ::testing::Values(7u, 8u, 9u));

class BacklogConservation : public ::testing::TestWithParam<unsigned>
{
};

/**
 * Overload sweep for the pooled engine: driving the rig well past
 * capacity piles requests into the per-core socket rings and packets
 * into the NIC rx rings, forcing ring wraparound and growth on the
 * steady-state path. The conservation identities must survive that
 * churn, and a rerun must reproduce the run exactly — a ring that
 * mis-wraps or leaks an old occupant shows up here as a lost or
 * duplicated packet, not just a perf artefact.
 */
TEST_P(BacklogConservation, RingGrowthPreservesAccounting)
{
    const unsigned seed = GetParam();
    Rng rng(seed);

    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = rng.bernoulli(0.5) ? "powersave" : "ondemand";
    cfg.load = LoadLevel::kHigh;
    // 2-4x the high-load rate: guaranteed sustained backlog.
    cfg.rpsOverride = cfg.app.level(cfg.load).rps *
                      rng.uniform(2.0, 4.0);
    cfg.numCores = static_cast<int>(rng.uniformInt(2, 4));
    cfg.seed = seed;
    cfg.warmup = milliseconds(20);
    cfg.duration = milliseconds(80);
    ExperimentResult r = Experiment(cfg).run();

    // The backlog actually built up (overload did its job)...
    EXPECT_LT(r.responsesReceived, r.requestsSent);
    // ...yet nothing was lost or double-counted on the way through
    // the rings.
    EXPECT_GE(r.requestsSent, r.responsesReceived + r.nicDrops);
    EXPECT_EQ(r.pktsIntrMode + r.pktsPollMode,
              r.nicRxHarvested + r.nicTxConsumed);

    // And the pooled engine is still deterministic under pressure.
    ExperimentResult again = Experiment(cfg).run();
    EXPECT_EQ(r.requestsSent, again.requestsSent);
    EXPECT_EQ(r.responsesReceived, again.responsesReceived);
    EXPECT_EQ(r.pktsIntrMode, again.pktsIntrMode);
    EXPECT_EQ(r.pktsPollMode, again.pktsPollMode);
    EXPECT_EQ(r.energyJoules, again.energyJoules);
}

INSTANTIATE_TEST_SUITE_P(OverloadSeeds, BacklogConservation,
                         ::testing::Values(101u, 102u, 103u));

/** Every registered dispatch policy, so a newly registered policy is
 *  automatically swept. */
std::vector<std::string>
allDispatchNames()
{
    return DispatchRegistry::instance().names();
}

using DispatchHostsSeed = std::tuple<std::string, int, unsigned>;

class ClusterConservation
    : public ::testing::TestWithParam<DispatchHostsSeed>
{
};

/** A medium-load ondemand cluster with a drain window long enough for
 *  exact request conservation. */
ClusterConfig
conservationCluster(const std::string &dispatch, int hosts,
                    unsigned seed)
{
    ClusterConfig cfg;
    cfg.base.app = AppProfile::memcached();
    cfg.base.load = LoadLevel::kMed;
    cfg.base.freqPolicy = "ondemand";
    cfg.base.seed = seed;
    cfg.base.warmup = milliseconds(5);
    cfg.base.duration = milliseconds(20);
    cfg.numHosts = hosts;
    cfg.dispatch = dispatch;
    cfg.clientGroups = hosts > 1 ? 2 : 1;
    cfg.drain = milliseconds(10);
    return cfg;
}

/** The NAPI identity on one host: every descriptor harvested off the
 *  NIC rings was processed in exactly one mode. */
void
expectNapiIdentity(const ClusterHostResult &host)
{
    EXPECT_EQ(host.pktsIntrMode + host.pktsPollMode,
              host.nicRxHarvested + host.nicTxConsumed)
        << "host " << host.id;
}

/**
 * The single-host conservation identities must survive the cluster
 * topology: with unbounded queues and a drain window, every request a
 * client sent comes back through the switch, whatever the dispatch
 * policy, host count or seed — and the switch's own forward/return
 * counters match the client totals exactly.
 */
TEST_P(ClusterConservation, HoldsAcrossDispatchAndHostCount)
{
    auto [dispatch, hosts, seed] = GetParam();
    ClusterResult r =
        ClusterExperiment(conservationCluster(dispatch, hosts, seed))
            .run();

    EXPECT_GT(r.requestsSent, 0u);
    EXPECT_EQ(r.responsesReceived, r.requestsSent);
    EXPECT_EQ(r.requestsForwarded, r.requestsSent);
    EXPECT_EQ(r.responsesReturned, r.requestsSent);
    EXPECT_EQ(r.switchPortDrops, 0u);
    EXPECT_EQ(r.hostNicDrops, 0u);
    EXPECT_EQ(r.strayResponses, 0u);

    std::uint64_t served = 0;
    std::uint64_t modes = 0;
    for (const ClusterHostResult &host : r.hosts) {
        served += host.served;
        modes += host.pktsIntrMode + host.pktsPollMode;
        EXPECT_EQ(host.nicDrops, 0u);
        expectNapiIdentity(host);
    }
    // Tap attribution partitions the responses exactly.
    EXPECT_EQ(served, r.requestsSent);
    // Some host processed packets in some NAPI mode.
    EXPECT_GT(modes, 0u);
}

/** A mixed NAPI/bypass cluster keeps the identity on every host; the
 *  bypass host harvests everything in polling mode. */
TEST(ClusterBypassConservation, MixedHostsKeepTheNapiIdentity)
{
    ClusterConfig cfg = conservationCluster("round-robin", 3, 17u);
    cfg.hosts.resize(3);
    cfg.hosts[1].params.set("dataplane.mode", "bypass");
    ClusterResult r = ClusterExperiment(cfg).run();

    EXPECT_GT(r.requestsSent, 0u);
    EXPECT_EQ(r.responsesReceived, r.requestsSent);
    ASSERT_EQ(r.hosts.size(), 3u);
    for (const ClusterHostResult &host : r.hosts) {
        EXPECT_GT(host.nicRxHarvested, 0u) << "host " << host.id;
        EXPECT_EQ(host.bypass, host.id == 1) << "host " << host.id;
        expectNapiIdentity(host);
    }
    EXPECT_EQ(r.hosts[1].pktsIntrMode, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DispatchSweep, ClusterConservation,
    ::testing::Combine(::testing::ValuesIn(allDispatchNames()),
                       ::testing::Values(1, 3),
                       ::testing::Values(17u)),
    [](const ::testing::TestParamInfo<DispatchHostsSeed> &param_info) {
        std::string name = std::get<0>(param_info.param) + "_h" +
                           std::to_string(std::get<1>(param_info.param)) +
                           "_s" +
                           std::to_string(std::get<2>(param_info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

using DepthDispatchSeed = std::tuple<int, std::string, unsigned>;

class ChainConservation
    : public ::testing::TestWithParam<DepthDispatchSeed>
{
};

/**
 * Chain-wide packet conservation: in an N-tier topology every request
 * traverses every tier exactly once, so with unbounded queues and a
 * drain window the hop counters are exact multiples of the client
 * totals — injected == replied, forwards == injected x (N-1), switch
 * dispatches == injected x N — whatever the chain depth, dispatch
 * policy or seed. The byte-class split must partition exactly too.
 */
TEST_P(ChainConservation, EveryHopAccountsExactly)
{
    auto [depth, dispatch, seed] = GetParam();

    ClusterConfig cfg;
    cfg.base.app = AppProfile::memcached();
    cfg.base.load = LoadLevel::kMed;
    cfg.base.freqPolicy = "ondemand";
    cfg.base.seed = seed;
    cfg.base.warmup = milliseconds(5);
    cfg.base.duration = milliseconds(20);
    cfg.dispatch = dispatch;
    cfg.drain = milliseconds(20);
    cfg.base.params.set("topology.tiers", depth);
    cfg.base.params.set("topology.tier1.hosts", 2); // fan the middle
    ClusterResult r = ClusterExperiment(cfg).run();

    const auto sent = r.requestsSent;
    const auto hops = static_cast<std::uint64_t>(depth);
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(r.responsesReceived, sent);
    EXPECT_EQ(r.eastWestForwards, sent * (hops - 1));
    EXPECT_EQ(r.requestsForwarded, sent * hops);
    EXPECT_EQ(r.responsesReturned, sent);
    EXPECT_EQ(r.switchPortDrops, 0u);
    EXPECT_EQ(r.hostNicDrops, 0u);
    EXPECT_EQ(r.strayResponses, 0u);

    // Byte-class accounting partitions exactly: goodput is response
    // payload only, east-west is the forwards, nothing was control.
    EXPECT_EQ(r.goodputBytes,
              sent * cfg.base.app.responseBytes);
    EXPECT_EQ(r.eastWestBytes,
              r.eastWestForwards * cfg.base.app.requestBytes);
    EXPECT_EQ(r.controlBytes, 0u);

    ASSERT_EQ(r.tiers.size(), static_cast<std::size_t>(depth));
    for (const ClusterTierResult &tier : r.tiers) {
        const bool last = tier.tier == depth - 1;
        // Whole-run forward counters are exact; hop-latency
        // completions cover the measurement window only.
        EXPECT_EQ(tier.forwards, last ? 0u : sent);
        EXPECT_GT(tier.completions, 0u);
        EXPECT_LE(tier.completions, sent);
        EXPECT_GT(tier.hopP99, 0);
        EXPECT_GE(tier.hopP99, tier.hopP50);
        EXPECT_GE(tier.p99Share, 0.0);
        EXPECT_LE(tier.p99Share, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ChainSweep, ChainConservation,
    ::testing::Combine(::testing::Values(2, 3, 4),
                       ::testing::Values("round-robin",
                                         "least-outstanding"),
                       ::testing::Values(23u)),
    [](const ::testing::TestParamInfo<DepthDispatchSeed> &param_info) {
        std::string name =
            "d" + std::to_string(std::get<0>(param_info.param)) + "_" +
            std::get<1>(param_info.param) + "_s" +
            std::to_string(std::get<2>(param_info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * With seeded loss on the access links of a 3-tier chain and client
 * retries, the fire-and-forget identity stays exact bookkeeping
 * across all hops: every injected request is replied, timed out, or
 * still in flight — a forward the loss ate mid-chain surfaces as a
 * client timeout, never as a vanished packet.
 */
TEST(ChainLossConservation, MidChainLossAccountsExactly)
{
    ClusterConfig cfg;
    cfg.base.app = AppProfile::memcached();
    cfg.base.load = LoadLevel::kMed;
    cfg.base.freqPolicy = "ondemand";
    cfg.base.seed = 29;
    cfg.base.warmup = milliseconds(5);
    cfg.base.duration = milliseconds(40);
    cfg.dispatch = "round-robin";
    cfg.drain = milliseconds(20);
    cfg.base.params.set("topology.tiers", 3);
    cfg.base.params.set("topology.tier1.hosts", 2);
    cfg.base.params.set("fault.wire_loss", "0.03");
    cfg.base.params.setTick("client.timeout", milliseconds(4));
    cfg.base.params.set("client.retries", 3);
    ClusterResult r = ClusterExperiment(cfg).run();

    EXPECT_GT(r.faultPacketsLost, 0u);
    EXPECT_GT(r.retransmits, 0u);
    EXPECT_EQ(r.requestsSent, r.responsesReceived +
                                  r.requestsTimedOut +
                                  r.requestsInFlight);
    EXPECT_LE(r.availability, 1.0);
    EXPECT_GT(r.availability, 0.5);
}

using AdmissionSeed = std::tuple<std::string, unsigned>;

class ShedConservation
    : public ::testing::TestWithParam<AdmissionSeed>
{
};

/**
 * With admission control shedding load, the conservation identity
 * grows one term and stays exact: every request the client sent is
 * answered, timed out, shed, or still in flight. A shed notice is
 * terminal — it must never be retransmitted or double-counted as a
 * timeout — so the four buckets partition `sent` exactly, whichever
 * admission policy did the shedding.
 */
TEST_P(ShedConservation, SentEqualsAnsweredPlusTimedOutPlusShedPlusInFlight)
{
    auto [admission, seed] = GetParam();

    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = "ondemand";
    cfg.load = LoadLevel::kHigh;
    cfg.seed = seed;
    cfg.warmup = milliseconds(10);
    cfg.duration = milliseconds(80);
    cfg.params.setTick("client.timeout", milliseconds(2));
    cfg.params.set("client.retries", 2);
    cfg.params.set("resilience.admission", admission);
    if (admission == "queue-deadline") {
        cfg.params.setTick("resilience.admit_target", microseconds(50));
        cfg.params.setTick("resilience.admit_interval",
                           microseconds(500));
    } else {
        cfg.params.set("resilience.admit_rate", "100e3");
        cfg.params.set("resilience.admit_burst", "32");
    }
    cfg.params.set("resilience.retry_budget", "0.1");
    ExperimentResult r = Experiment(cfg).run();

    // The gate actually bit: overload at this rate must shed. The
    // server counts shed *transmissions*, the client shed *requests*
    // (a retried request can be shed more than once; later notices
    // land as duplicates), so server-side >= client-side.
    EXPECT_GT(r.requestsShed, 0u);
    EXPECT_GE(r.shedAdmission + r.shedSojourn, r.requestsShed);

    // Exact four-way partition of everything the client sent.
    EXPECT_EQ(r.requestsSent, r.responsesReceived +
                                  r.requestsTimedOut + r.requestsShed +
                                  r.requestsInFlight);
    // Budget exhaustions are a subset of the timeouts, never a fifth
    // bucket.
    EXPECT_LE(r.retryBudgetExhausted, r.requestsTimedOut);
}

INSTANTIATE_TEST_SUITE_P(
    AdmissionSweep, ShedConservation,
    ::testing::Combine(::testing::Values("queue-deadline",
                                         "token-bucket"),
                       ::testing::Values(31u, 32u)),
    [](const ::testing::TestParamInfo<AdmissionSeed> &param_info) {
        std::string name = std::get<0>(param_info.param) + "_s" +
                           std::to_string(std::get<1>(param_info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * Full resilience stack on a faulted 3-tier chain: admission at every
 * tier, deadline propagation shedding past-deadline forwards, breakers
 * short-circuiting the crashed host, and a client retry budget. The
 * four-way identity must survive all of it at once — and a rerun must
 * reproduce every counter exactly.
 */
TEST(ShedConservation, FaultedChainWithFullStackAccountsExactly)
{
    auto run = [] {
        ClusterConfig cfg;
        cfg.base.app = AppProfile::memcached();
        cfg.base.load = LoadLevel::kHigh;
        cfg.base.freqPolicy = "ondemand";
        cfg.base.seed = 37;
        cfg.base.warmup = milliseconds(5);
        cfg.base.duration = milliseconds(60);
        cfg.dispatch = "round-robin";
        cfg.drain = milliseconds(20);
        cfg.base.params.set("topology.tiers", 3);
        cfg.base.params.set("topology.tier1.hosts", 2);
        cfg.base.params.setTick("client.timeout", milliseconds(2));
        cfg.base.params.set("client.retries", 3);
        cfg.base.params.set("resilience.admission", "queue-deadline");
        cfg.base.params.setTick("resilience.admit_target",
                                microseconds(100));
        cfg.base.params.setTick("resilience.admit_interval",
                                milliseconds(1));
        cfg.base.params.set("resilience.retry_budget", "0.2");
        cfg.base.params.setTick("resilience.breaker_window",
                                milliseconds(5));
        cfg.base.params.setTick("resilience.deadline", milliseconds(4));
        cfg.base.params.set("fault.crash_host", 1);
        cfg.base.params.setTick("fault.crash_at", milliseconds(15));
        cfg.base.params.setTick("fault.recover_at", milliseconds(40));
        return ClusterExperiment(cfg).run();
    };

    ClusterResult r = run();
    EXPECT_GT(r.requestsShed, 0u);
    EXPECT_EQ(r.requestsSent, r.responsesReceived +
                                  r.requestsTimedOut + r.requestsShed +
                                  r.requestsInFlight);
    EXPECT_LE(r.retryBudgetExhausted, r.requestsTimedOut);

    ClusterResult again = run();
    EXPECT_EQ(again.requestsSent, r.requestsSent);
    EXPECT_EQ(again.responsesReceived, r.responsesReceived);
    EXPECT_EQ(again.requestsTimedOut, r.requestsTimedOut);
    EXPECT_EQ(again.requestsShed, r.requestsShed);
    EXPECT_EQ(again.shedAdmission, r.shedAdmission);
    EXPECT_EQ(again.shedSojourn, r.shedSojourn);
    EXPECT_EQ(again.shedDeadline, r.shedDeadline);
    EXPECT_EQ(again.switchDeadlineSheds, r.switchDeadlineSheds);
    EXPECT_EQ(again.breakerShortCircuits, r.breakerShortCircuits);
    EXPECT_EQ(again.breakerTransitions, r.breakerTransitions);
    EXPECT_EQ(again.retryBudgetExhausted, r.retryBudgetExhausted);
}

} // namespace
} // namespace nmapsim
