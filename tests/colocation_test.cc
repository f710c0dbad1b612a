/**
 * @file
 * Integration tests for the colocation harness (two latency-critical
 * tenants sharing one server).
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/colocation.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

ColocationConfig
pairConfig(const std::string &policy)
{
    ColocationConfig cfg;
    TenantConfig a;
    a.app = AppProfile::memcached();
    a.load = LoadLevel::kMed;
    TenantConfig b;
    b.app = AppProfile::memcached();
    b.load = LoadLevel::kLow;
    cfg.tenants = {a, b};
    cfg.freqPolicy = policy;
    cfg.params.set("nmap.ni_th", 13.0);
    cfg.params.set("nmap.cu_th", 0.49);
    cfg.warmup = milliseconds(100);
    cfg.duration = milliseconds(300);
    return cfg;
}

TEST(ColocationTest, BothTenantsServed)
{
    ColocationResult r =
        ColocationExperiment(pairConfig("performance"))
            .run();
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.nicDrops, 0u);
    for (const TenantResult &t : r.tenants) {
        EXPECT_GT(t.requestsSent, 1000u);
        EXPECT_GE(t.requestsSent, t.responsesReceived);
        EXPECT_GT(t.responsesReceived, t.requestsSent * 9 / 10);
    }
}

TEST(ColocationTest, TenantsKeepSeparateAccounting)
{
    ColocationResult r =
        ColocationExperiment(pairConfig("performance"))
            .run();
    // Tenant 0 runs the medium load, tenant 1 the low load: tenant 0
    // must have sent several times more requests.
    EXPECT_GT(r.tenants[0].requestsSent,
              r.tenants[1].requestsSent * 3);
    EXPECT_EQ(r.tenants[0].appName, "memcached");
    EXPECT_EQ(r.tenants[0].slo, milliseconds(1));
}

TEST(ColocationTest, NmapKeepsBothSlosCheaperThanPerformance)
{
    ColocationResult perf =
        ColocationExperiment(pairConfig("performance"))
            .run();
    ColocationResult nmap =
        ColocationExperiment(pairConfig("NMAP")).run();
    for (const TenantResult &t : nmap.tenants)
        EXPECT_LE(t.p99, t.slo) << t.appName;
    EXPECT_LT(nmap.energyJoules, perf.energyJoules);
}

TEST(ColocationTest, AdaptiveNeedsNoThresholds)
{
    ColocationConfig cfg = pairConfig("NMAP-adaptive");
    cfg.params.set("nmap.ni_th", 0.0); // unused by the adaptive variant
    cfg.params.set("nmap.cu_th", 0.0);
    ColocationResult r = ColocationExperiment(cfg).run();
    for (const TenantResult &t : r.tenants)
        EXPECT_LE(t.p99, t.slo * 5 / 4) << t.appName;
}

TEST(ColocationTest, DeterministicForSameSeed)
{
    ColocationConfig cfg = pairConfig("ondemand");
    ColocationResult a = ColocationExperiment(cfg).run();
    ColocationResult b = ColocationExperiment(cfg).run();
    EXPECT_EQ(a.tenants[0].p99, b.tenants[0].p99);
    EXPECT_EQ(a.tenants[1].requestsSent, b.tenants[1].requestsSent);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
}

TEST(ColocationTest, NmapWithoutThresholdsIsFatal)
{
    ColocationConfig cfg = pairConfig("NMAP");
    cfg.params.set("nmap.ni_th", 0.0);
    ColocationExperiment experiment(cfg);
    EXPECT_THROW(experiment.run(), FatalError);
}

TEST(ColocationTest, UnsupportedPolicyIsFatal)
{
    ColocationConfig cfg = pairConfig("Parties");
    ColocationExperiment experiment(cfg);
    EXPECT_THROW(experiment.run(), FatalError);
}

TEST(ColocationTest, InvalidTenantsRejected)
{
    ColocationConfig cfg;
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError); // no tenants
    cfg = pairConfig("performance");
    cfg.tenants[0].numConnections = 0;
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError);

    // Server and run errors fail at construction too: unknown policy
    // names, keys of blocks the colocation rig does not wire (rather
    // than being ignored), and a non-positive measurement window.
    cfg = pairConfig("performance");
    cfg.freqPolicy = "no-such-policy";
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError);
    cfg = pairConfig("performance");
    cfg.idlePolicy = "no-such-policy";
    EXPECT_THROW(ColocationExperiment{cfg}, FatalError);
    for (const char *key :
         {"dataplane.mode", "fault.wire_loss", "resilience.deadline",
          "client.timeout", "topology.tiers"}) {
        cfg = pairConfig("performance");
        cfg.params.set(key, "1");
        EXPECT_THROW(ColocationExperiment{cfg}, FatalError) << key;
    }
    for (Tick duration : {Tick{0}, -milliseconds(1)}) {
        cfg = pairConfig("performance");
        cfg.duration = duration;
        EXPECT_THROW(ColocationExperiment{cfg}, FatalError) << duration;
    }
}

TEST(ColocationTest, SingleTenantMatchesSoloBallpark)
{
    // One tenant through the colocation harness behaves like the
    // regular Experiment (same physics, different assembly).
    ColocationConfig cfg = pairConfig("performance");
    cfg.tenants.resize(1);
    ColocationResult co = ColocationExperiment(cfg).run();

    ExperimentConfig solo;
    solo.app = AppProfile::memcached();
    solo.load = LoadLevel::kMed;
    solo.freqPolicy = "performance";
    solo.warmup = cfg.warmup;
    solo.duration = cfg.duration;
    ExperimentResult se = Experiment(solo).run();

    EXPECT_NEAR(static_cast<double>(co.tenants[0].p99),
                static_cast<double>(se.p99),
                0.5 * static_cast<double>(se.p99));
    EXPECT_NEAR(co.energyJoules, se.energyJoules,
                0.2 * se.energyJoules);
}

} // namespace
} // namespace nmapsim
