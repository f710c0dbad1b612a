/**
 * @file
 * Integration tests for the end-to-end experiment harness. These spin
 * up the full rig (cores + NIC + OS + app + client) for short runs and
 * assert the cross-module invariants the paper's evaluation relies on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "harness/experiment.hh"
#include "harness/policy_registry.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

ExperimentConfig
shortConfig(const std::string &policy, LoadLevel load)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.freqPolicy = policy;
    cfg.load = load;
    cfg.warmup = milliseconds(100);
    cfg.duration = milliseconds(300);
    cfg.seed = 7;
    return cfg;
}

TEST(ExperimentTest, RequestsAreConserved)
{
    ExperimentResult r =
        Experiment(shortConfig("performance",
                               LoadLevel::kMed))
            .run();
    EXPECT_GT(r.requestsSent, 10000u);
    EXPECT_EQ(r.nicDrops, 0u);
    // Open loop: a few requests may still be in flight at the end.
    EXPECT_GE(r.requestsSent, r.responsesReceived);
    EXPECT_LT(r.requestsSent - r.responsesReceived, 2000u);
}

TEST(ExperimentTest, DeterministicForSameSeed)
{
    ExperimentConfig cfg =
        shortConfig("ondemand", LoadLevel::kMed);
    ExperimentResult a = Experiment(cfg).run();
    ExperimentResult b = Experiment(cfg).run();
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.requestsSent, b.requestsSent);
    EXPECT_DOUBLE_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.ksoftirqdWakes, b.ksoftirqdWakes);
}

TEST(ExperimentTest, DifferentSeedsDiffer)
{
    ExperimentConfig cfg =
        shortConfig("ondemand", LoadLevel::kMed);
    ExperimentResult a = Experiment(cfg).run();
    cfg.seed = 8;
    ExperimentResult b = Experiment(cfg).run();
    EXPECT_NE(a.requestsSent, b.requestsSent);
}

TEST(ExperimentTest, PerformanceGovernorNeverChangesStates)
{
    ExperimentResult r =
        Experiment(shortConfig("performance",
                               LoadLevel::kHigh))
            .run();
    EXPECT_EQ(r.pstateTransitions, 0u);
}

TEST(ExperimentTest, PowersaveSlowerButCheaperThanPerformance)
{
    ExperimentResult slow =
        Experiment(shortConfig("powersave", LoadLevel::kLow))
            .run();
    ExperimentResult fast =
        Experiment(
            shortConfig("performance", LoadLevel::kLow))
            .run();
    EXPECT_GT(slow.p99, fast.p99);
    EXPECT_LT(slow.energyJoules, fast.energyJoules);
}

TEST(ExperimentTest, HigherLoadRaisesTailLatency)
{
    ExperimentResult low =
        Experiment(
            shortConfig("performance", LoadLevel::kLow))
            .run();
    ExperimentResult high =
        Experiment(
            shortConfig("performance", LoadLevel::kHigh))
            .run();
    EXPECT_GT(high.p99, low.p99);
    EXPECT_GT(high.energyJoules, low.energyJoules);
}

TEST(ExperimentTest, TracesCollectedOnDemand)
{
    ExperimentConfig cfg =
        shortConfig("ondemand", LoadLevel::kHigh);
    cfg.collectTraces = true;
    cfg.collectLatencyTrace = true;
    ExperimentResult r = Experiment(cfg).run();
    ASSERT_NE(r.traces, nullptr);
    EXPECT_GT(r.traces->intrSeries().total(), 0.0);
    EXPECT_GT(r.traces->pollSeries().total(), 0.0);
    EXPECT_FALSE(r.latencyTrace.empty());
    EXPECT_FALSE(r.cdf.empty());
    // The P-state trace moves under ondemand at high load.
    bool moved = false;
    const TimeSeries &ps = r.traces->pstateSeries();
    for (std::size_t i = 1; i < ps.numBuckets(); ++i)
        moved |= ps.bucket(i) != ps.bucket(0);
    EXPECT_TRUE(moved);
}

TEST(ExperimentTest, TracesAbsentByDefault)
{
    ExperimentResult r =
        Experiment(shortConfig("ondemand", LoadLevel::kLow))
            .run();
    EXPECT_EQ(r.traces, nullptr);
    EXPECT_TRUE(r.latencyTrace.empty());
    EXPECT_TRUE(r.cdf.empty());
}

TEST(ExperimentTest, ThresholdProfilingProducesSaneValues)
{
    ExperimentConfig cfg =
        shortConfig("NMAP", LoadLevel::kHigh);
    auto [ni, cu] = Experiment::profileThresholds(cfg);
    EXPECT_GE(ni, 1.0);
    EXPECT_LT(ni, 10000.0);
    EXPECT_GT(cu, 0.0);
    EXPECT_LT(cu, 100.0);
}

TEST(ExperimentTest, ThresholdProfilingFiniteAndDeterministic)
{
    // Section 4.2: the profiling pass runs under the performance
    // governor regardless of the config's requested policy, and must
    // yield finite, positive thresholds with NI_TH > 0.
    ExperimentConfig cfg =
        shortConfig("ondemand", LoadLevel::kLow);
    auto [ni, cu] = Experiment::profileThresholds(cfg);
    EXPECT_TRUE(std::isfinite(ni));
    EXPECT_TRUE(std::isfinite(cu));
    EXPECT_GT(ni, 0.0);
    EXPECT_GT(cu, 0.0);

    // Profiling is itself a deterministic simulation.
    auto [ni2, cu2] = Experiment::profileThresholds(cfg);
    EXPECT_DOUBLE_EQ(ni, ni2);
    EXPECT_DOUBLE_EQ(cu, cu2);

    // Both apps profile successfully, to different values.
    ExperimentConfig ng = cfg;
    ng.app = AppProfile::nginx();
    auto [ng_ni, ng_cu] = Experiment::profileThresholds(ng);
    EXPECT_TRUE(std::isfinite(ng_ni));
    EXPECT_GT(ng_ni, 0.0);
    EXPECT_NE(ng_ni, ni);
}

TEST(ExperimentTest, AutoProfileWiresThresholdsIntoNmapRun)
{
    // nmap.auto_profile (the default) must install exactly the values
    // profileThresholds reports into the subsequent NMAP run.
    ExperimentConfig cfg =
        shortConfig("NMAP", LoadLevel::kMed);
    ASSERT_TRUE(cfg.params.getBool("nmap.auto_profile", true));
    ASSERT_LE(cfg.params.getDouble("nmap.ni_th", 0.0), 0.0);
    auto [ni, cu] = Experiment::profileThresholds(cfg);
    ExperimentResult r = Experiment(cfg).run();
    EXPECT_DOUBLE_EQ(r.niThresholdUsed, ni);
    EXPECT_DOUBLE_EQ(r.cuThresholdUsed, cu);
}

TEST(ExperimentTest, ExtraObserversSeeOnlyTheirOwnRun)
{
    // An auto-profiled NMAP run simulates its profiling burst before
    // the run itself; the caller's observers must see only the run.
    // With no warmup the result's NAPI counters cover the whole run.
    struct Counter : NapiObserver
    {
        std::uint64_t pkts = 0;
        void
        onPollProcessed(int, std::uint32_t intr_pkts,
                        std::uint32_t poll_pkts) override
        {
            pkts += intr_pkts + poll_pkts;
        }
    } counter;
    ExperimentConfig cfg = shortConfig("NMAP", LoadLevel::kLow);
    cfg.warmup = 0;
    cfg.duration = milliseconds(100);
    cfg.extraObservers.push_back(&counter);
    ExperimentResult r = Experiment(cfg).run();
    ASSERT_GT(r.niThresholdUsed, 0.0);
    EXPECT_GT(counter.pkts, 0u);
    EXPECT_EQ(counter.pkts, r.pktsIntrMode + r.pktsPollMode);
}

TEST(ExperimentTest, AutoProfileDisabledLeavesThresholdsUnset)
{
    ExperimentConfig cfg =
        shortConfig("NMAP", LoadLevel::kMed);
    cfg.params.set("nmap.auto_profile", false);
    ExperimentResult r = Experiment(cfg).run();
    EXPECT_LE(r.niThresholdUsed, 0.0);
}

TEST(ExperimentTest, NmapUsesProfiledThresholds)
{
    ExperimentConfig cfg =
        shortConfig("NMAP", LoadLevel::kMed);
    ExperimentResult r = Experiment(cfg).run();
    EXPECT_GT(r.niThresholdUsed, 0.0);
    EXPECT_GT(r.cuThresholdUsed, 0.0);
}

TEST(ExperimentTest, ExplicitNmapThresholdsSkipProfiling)
{
    ExperimentConfig cfg =
        shortConfig("NMAP", LoadLevel::kMed);
    cfg.params.set("nmap.ni_th", 25.0);
    cfg.params.set("nmap.cu_th", 0.5);
    ExperimentResult r = Experiment(cfg).run();
    EXPECT_DOUBLE_EQ(r.niThresholdUsed, 25.0);
    EXPECT_DOUBLE_EQ(r.cuThresholdUsed, 0.5);
}

TEST(ExperimentTest, LoadScheduleChangesRate)
{
    ExperimentConfig cfg =
        shortConfig("performance", LoadLevel::kLow);
    cfg.duration = milliseconds(400);
    // Jump to the high load halfway through.
    cfg.loadSchedule.push_back(
        {cfg.warmup + milliseconds(200),
         cfg.app.level(LoadLevel::kHigh)});
    ExperimentResult with_jump = Experiment(cfg).run();

    ExperimentConfig flat =
        shortConfig("performance", LoadLevel::kLow);
    flat.duration = milliseconds(400);
    ExperimentResult without = Experiment(flat).run();
    EXPECT_GT(with_jump.requestsSent, without.requestsSent * 3);
}

TEST(ExperimentTest, DutyOverrideScalesAverageLoad)
{
    ExperimentConfig cfg =
        shortConfig("performance", LoadLevel::kLow);
    cfg.dutyOverride = 1.0; // steady instead of 10% duty
    ExperimentResult steady = Experiment(cfg).run();
    ExperimentResult bursty =
        Experiment(
            shortConfig("performance", LoadLevel::kLow))
            .run();
    EXPECT_GT(steady.requestsSent, bursty.requestsSent * 5);
}

TEST(ExperimentTest, InvalidConfigRejected)
{
    ExperimentConfig cfg;
    cfg.numCores = 0;
    EXPECT_THROW(Experiment{cfg}, FatalError);
    ExperimentConfig cfg2;
    cfg2.duration = 0;
    EXPECT_THROW(Experiment{cfg2}, FatalError);
    // Unknown policy names fail at construction, not inside run().
    ExperimentConfig cfg3;
    cfg3.freqPolicy = "no-such-policy";
    EXPECT_THROW(Experiment{cfg3}, FatalError);
    ExperimentConfig cfg4;
    cfg4.idlePolicy = "no-such-policy";
    EXPECT_THROW(Experiment{cfg4}, FatalError);
    // So do the dataplane policy's parameter errors, from its schema.
    ExperimentConfig cfg5;
    cfg5.params.set("dataplane.mode", "bypass");
    cfg5.params.set("dataplane.policy", "metronome");
    cfg5.params.set("metronome.min_sleep", "0");
    EXPECT_THROW(Experiment{cfg5}, FatalError);
    // A retry budget needs client retry; host-indexed faults and
    // circuit breakers need the cluster switch.
    ExperimentConfig budget;
    budget.params.set("resilience.retry_budget", 0.1);
    EXPECT_THROW(Experiment{budget}, FatalError);
    ExperimentConfig crash;
    crash.params.set("fault.crash_host", 0);
    crash.params.setTick("fault.crash_at", milliseconds(1));
    EXPECT_THROW(Experiment{crash}, FatalError);
    ExperimentConfig flap;
    flap.params.set("fault.flap_host", 0);
    EXPECT_THROW(Experiment{flap}, FatalError);
    ExperimentConfig breakers;
    breakers.params.setTick("resilience.breaker_window", milliseconds(1));
    EXPECT_THROW(Experiment{breakers}, FatalError);
}

TEST(ExperimentTest, ZeroPeriodsFailAtConstruction)
{
    // A zero period re-arms its timer at the same tick forever, so
    // run() would hang; construction must refuse it. run() is never
    // called here.
    for (const auto &[policy, key] :
         {std::pair{"NMAP", "nmap.timer_interval"},
          std::pair{"NMAP-adaptive", "adaptive.timer_interval"},
          std::pair{"NCAP", "ncap.monitor_period"},
          std::pair{"Parties", "parties.interval"}}) {
        SCOPED_TRACE(key);
        ExperimentConfig cfg;
        cfg.freqPolicy = policy;
        cfg.params.set("nmap.ni_th", 10.0);
        cfg.params.set("nmap.cu_th", 0.5);
        cfg.params.set(key, "0");
        EXPECT_THROW(Experiment{cfg}, FatalError);
    }
    ExperimentConfig gov;
    gov.gov.samplePeriod = 0;
    EXPECT_THROW(Experiment{gov}, FatalError);
}

TEST(ExperimentTest, NegativeWarmupFailsAtConstruction)
{
    ExperimentConfig cfg;
    cfg.warmup = -milliseconds(5);
    EXPECT_THROW(Experiment{cfg}, FatalError);
}

TEST(ExperimentTest, EveryParamsNamespaceIsCheckedWhateverThePolicy)
{
    // ondemand reads no nmap.* key, yet a bad one still fails, before
    // any run; so does a key of a namespace nothing registers.
    ExperimentConfig typo;
    typo.params.set("nmap.typo", 3);
    EXPECT_THROW(Experiment{typo}, FatalError);
    ExperimentConfig value;
    value.params.set("nmap.ni_th", "abc");
    EXPECT_THROW(Experiment{value}, FatalError);
    ExperimentConfig stray;
    stray.params.set("nmapp.ni_th", 3);
    try {
        Experiment{stray};
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unknown config key 'nmapp.ni_th': no component "
                      "reads 'nmapp.*' (known: "),
                  std::string::npos)
            << e.what();
    }
}

TEST(ExperimentTest, EveryFamilyResolvesNamesCaseInsensitively)
{
    ExperimentConfig cfg;
    cfg.freqPolicy = "nmap";
    cfg.idlePolicy = "MENU";
    cfg.params.set("dataplane.mode", "bypass");
    cfg.params.set("dataplane.policy", "Metronome");
    cfg.params.set("resilience.admission", "Queue-Deadline");
    EXPECT_NO_THROW(Experiment{cfg});

    // The resolved family's parameter checks still apply.
    ExperimentConfig bucket;
    bucket.params.set("resilience.admission", "Token-Bucket");
    EXPECT_THROW(Experiment{bucket}, FatalError);
}

TEST(ExperimentTest, BuiltinPolicyNamesRegistered)
{
    ensureBuiltinPolicies();
    for (const char *name :
         {"performance", "powersave", "userspace", "ondemand",
          "conservative", "intel_powersave", "NMAP", "NMAP-simpl",
          "NMAP-adaptive", "NMAP-chipwide", "NCAP", "NCAP-menu",
          "Parties"})
        EXPECT_TRUE(FreqPolicyRegistry::instance().has(name)) << name;
    for (const char *name : {"menu", "disable", "c6only", "teo"})
        EXPECT_TRUE(IdlePolicyRegistry::instance().has(name)) << name;
}

} // namespace
} // namespace nmapsim
