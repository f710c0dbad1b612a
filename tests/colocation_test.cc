/**
 * @file
 * Integration tests for colocated tenants: several latency-critical
 * applications sharing one Experiment's server, each with its own
 * client, load generator, SLO and latency accounting.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

/** memcached at medium load (tenant 0) plus memcached at low load. */
ExperimentConfig
pairConfig(const std::string &policy)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.load = LoadLevel::kMed;
    TenantConfig other;
    other.app = AppProfile::memcached();
    other.load = LoadLevel::kLow;
    cfg.colocated = {other};
    cfg.freqPolicy = policy;
    cfg.params.set("nmap.ni_th", 13.0);
    cfg.params.set("nmap.cu_th", 0.49);
    cfg.warmup = milliseconds(100);
    cfg.duration = milliseconds(300);
    return cfg;
}

/** Tenant 0's counters, then each colocated tenant's. */
std::vector<const RunCounters *>
tenantsOf(const ExperimentResult &r)
{
    std::vector<const RunCounters *> tenants{&r};
    for (const RunCounters &t : r.colocated)
        tenants.push_back(&t);
    return tenants;
}

TEST(ColocationTest, BothTenantsServed)
{
    ExperimentResult r = Experiment(pairConfig("performance")).run();
    ASSERT_EQ(r.colocated.size(), 1u);
    EXPECT_EQ(r.nicDrops, 0u);
    for (const RunCounters *t : tenantsOf(r)) {
        EXPECT_GT(t->requestsSent, 1000u);
        EXPECT_GE(t->requestsSent, t->responsesReceived);
        EXPECT_GT(t->responsesReceived, t->requestsSent * 9 / 10);
    }
}

TEST(ColocationTest, TenantsKeepSeparateAccounting)
{
    ExperimentResult r = Experiment(pairConfig("performance")).run();
    // Tenant 0 runs the medium load, tenant 1 the low load: tenant 0
    // must have sent several times more requests.
    EXPECT_GT(r.requestsSent, r.colocated[0].requestsSent * 3);
    EXPECT_EQ(r.slo, milliseconds(1));
    EXPECT_EQ(r.colocated[0].slo, milliseconds(1));
}

TEST(ColocationTest, NmapKeepsBothSlosCheaperThanPerformance)
{
    ExperimentResult perf = Experiment(pairConfig("performance")).run();
    ExperimentResult nmap = Experiment(pairConfig("NMAP")).run();
    for (const RunCounters *t : tenantsOf(nmap))
        EXPECT_LE(t->p99, t->slo);
    EXPECT_LT(nmap.energyJoules, perf.energyJoules);
}

TEST(ColocationTest, AdaptiveNeedsNoThresholds)
{
    ExperimentConfig cfg = pairConfig("NMAP-adaptive");
    cfg.params.set("nmap.ni_th", 0.0); // unused by the adaptive variant
    cfg.params.set("nmap.cu_th", 0.0);
    ExperimentResult r = Experiment(cfg).run();
    for (const RunCounters *t : tenantsOf(r))
        EXPECT_LE(t->p99, t->slo * 5 / 4);
}

TEST(ColocationTest, DeterministicForSameSeed)
{
    ExperimentConfig cfg = pairConfig("ondemand");
    ExperimentResult a = Experiment(cfg).run();
    ExperimentResult b = Experiment(cfg).run();
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.colocated[0].requestsSent, b.colocated[0].requestsSent);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
}

TEST(ColocationTest, NmapWithoutThresholdsIsFatal)
{
    ExperimentConfig cfg = pairConfig("NMAP");
    cfg.params.set("nmap.ni_th", 0.0);
    Experiment experiment(cfg);
    EXPECT_THROW(experiment.run(), FatalError);
}

TEST(ColocationTest, UnsupportedPolicyIsFatal)
{
    ExperimentConfig cfg = pairConfig("Parties");
    Experiment experiment(cfg);
    EXPECT_THROW(experiment.run(), FatalError);
}

TEST(ColocationTest, InvalidTenantsRejected)
{
    // Seven colocated tenants make eight, the most a server takes.
    ExperimentConfig cfg = pairConfig("performance");
    cfg.colocated.resize(7);
    EXPECT_NO_THROW(Experiment{cfg});
    cfg.colocated.resize(8);
    EXPECT_THROW(Experiment{cfg}, FatalError);

    // Every tenant's connections fit one flow space, and every
    // colocated tenant's load overrides follow tenant 0's rules.
    for (int connections : {0, static_cast<int>(kFlowSpaceStride)}) {
        cfg = pairConfig("performance");
        cfg.numConnections = connections;
        EXPECT_THROW(Experiment{cfg}, FatalError) << connections;
        cfg = pairConfig("performance");
        cfg.colocated[0].numConnections = connections;
        EXPECT_THROW(Experiment{cfg}, FatalError) << connections;
    }
    cfg = pairConfig("performance");
    cfg.colocated[0].dutyOverride = 2.0;
    EXPECT_THROW(Experiment{cfg}, FatalError);
    cfg = pairConfig("performance");
    cfg.colocated[0].rpsOverride = -1.0;
    EXPECT_THROW(Experiment{cfg}, FatalError);
    cfg = pairConfig("performance");
    cfg.colocated[0].trainMeanOverride = 0.5;
    EXPECT_THROW(Experiment{cfg}, FatalError);

    // Server and run errors fail at construction too: unknown policy
    // names and a non-positive measurement window.
    cfg = pairConfig("performance");
    cfg.freqPolicy = "no-such-policy";
    EXPECT_THROW(Experiment{cfg}, FatalError);
    cfg = pairConfig("performance");
    cfg.idlePolicy = "no-such-policy";
    EXPECT_THROW(Experiment{cfg}, FatalError);
    for (Tick duration : {Tick{0}, -milliseconds(1)}) {
        cfg = pairConfig("performance");
        cfg.duration = duration;
        EXPECT_THROW(Experiment{cfg}, FatalError) << duration;
    }
}

/**
 * The run-scoped plans and the dataplane wire every tenant. Each
 * tenant's client must account for every request it sent, and the
 * shared server's NAPI identity must hold: under wire loss with client
 * retries, queue-deadline admission and a retry budget, and separately
 * under the bypass dataplane.
 */
TEST(ColocationTest, ColocatedTenantsConserveUnderFaultsRetriesAndBypass)
{
    auto expectConserved = [](const ExperimentResult &r) {
        EXPECT_EQ(r.pktsIntrMode + r.pktsPollMode,
                  r.nicRxHarvested + r.nicTxConsumed);
        for (const RunCounters *t : tenantsOf(r)) {
            EXPECT_GT(t->responsesReceived, 0u);
            EXPECT_EQ(t->requestsSent,
                      t->responsesReceived + t->requestsTimedOut +
                          t->requestsShed + t->requestsInFlight);
        }
    };

    ExperimentConfig faulted = pairConfig("ondemand");
    faulted.load = LoadLevel::kHigh;
    faulted.params.set("fault.wire_loss", "0.01");
    faulted.params.setTick("client.timeout", milliseconds(2));
    faulted.params.set("client.retries", 3);
    faulted.params.set("resilience.admission", "queue-deadline");
    faulted.params.setTick("resilience.admit_target", microseconds(100));
    faulted.params.setTick("resilience.admit_interval", milliseconds(1));
    faulted.params.set("resilience.retry_budget", "0.2");
    ExperimentResult r = Experiment(faulted).run();
    expectConserved(r);
    EXPECT_GT(r.faultPacketsLost, 0u);
    for (const RunCounters *t : tenantsOf(r)) {
        EXPECT_GT(t->retransmits, 0u);
        EXPECT_GT(t->requestsShed, 0u);
        EXPECT_GT(t->shedSojourn, 0u);
    }

    ExperimentConfig bypass = pairConfig("ondemand");
    bypass.params.set("dataplane.mode", "bypass");
    ExperimentResult b = Experiment(bypass).run();
    EXPECT_TRUE(b.bypass);
    EXPECT_EQ(b.pktsIntrMode, 0u);
    expectConserved(b);
}

TEST(ColocationTest, ProfilingSeesTenantZeroAlone)
{
    ExperimentConfig solo = pairConfig("NMAP");
    solo.colocated.clear();
    EXPECT_EQ(Experiment::profileThresholds(pairConfig("NMAP")),
              Experiment::profileThresholds(solo));
}

} // namespace
} // namespace nmapsim
