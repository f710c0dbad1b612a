/**
 * @file
 * Smoke matrix over the policy registry: every registered frequency
 * policy crossed with every registered sleep policy gets a short run,
 * and each cell must satisfy packet conservation and answer traffic.
 *
 * The file also registers a governor of its own ("test-dummy") and
 * its tunable's schema (`dummy.pstate`) with no harness edits
 * whatsoever — the registry picks it up, the matrix covers it, the
 * config pipeline accepts its name, and every harness checks its key.
 * That is the extension contract the registries promise to
 * out-of-tree policies.
 *
 * The matrix doubles as a bench artefact: every cell's record goes
 * through the shared ResultWriter into BENCH_policy_matrix.json.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/policy_registry.hh"
#include "harness/result_io.hh"
#include "sim/logging.hh"
#include "stats/result_writer.hh"

namespace nmapsim {
namespace {

/**
 * An out-of-tree governor: pins every core at `dummy.pstate`, one
 * P-state below P0 by default. Lives entirely in this test file; only
 * the registrars below make it and its key reachable, by name, from
 * configs and the harness.
 */
class DummyGovernor : public FreqGovernor
{
  public:
    DummyGovernor(std::vector<Core *> cores, int pstate)
        : cores_(std::move(cores)), pstate_(pstate)
    {
    }

    void
    start() override
    {
        for (Core *core : cores_)
            core->dvfs().requestPState(pstate_);
    }

    std::string name() const override { return "test-dummy"; }

  private:
    std::vector<Core *> cores_;
    int pstate_;
};

/** The dummy's `dummy.*` params schema. */
struct DummyConfig
{
    int pstate = 1;

    template <typename Key>
    void
    visit(Key &&key)
    {
        key("dummy.pstate", pstate);
    }
};

DummyConfig
dummyParams(const PolicyParams &params)
{
    DummyConfig config;
    readParams(params, "dummy", config);
    return config;
}

REGISTER_PARAMS("dummy", &dummyParams,
                "test-only governor's pinned P-state");

FreqPolicyInstance
makeDummy(PolicyContext &ctx)
{
    return {std::make_unique<DummyGovernor>(
                ctx.cores, dummyParams(ctx.params).pstate),
            nullptr};
}

REGISTER_FREQ_POLICY("test-dummy", &makeDummy,
                     "test-only governor pinning P1");

ExperimentConfig
cellConfig(const std::string &policy, const std::string &idle)
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.load = LoadLevel::kMed;
    cfg.freqPolicy = policy;
    cfg.idlePolicy = idle;
    cfg.warmup = milliseconds(20);
    cfg.duration = milliseconds(50);
    cfg.seed = 42;
    // Explicit NMAP thresholds so no cell runs offline profiling.
    cfg.params.set("nmap.ni_th", 13.0);
    cfg.params.set("nmap.cu_th", 0.49);
    return cfg;
}

TEST(PolicyMatrixTest, DummyGovernorIsRegistered)
{
    const FreqPolicyRegistry &reg = FreqPolicyRegistry::instance();
    EXPECT_TRUE(reg.has("test-dummy"));
    EXPECT_EQ(reg.help("test-dummy"), "test-only governor pinning P1");
}

TEST(PolicyMatrixTest, DummyGovernorRunsThroughUnmodifiedHarness)
{
    ExperimentResult r =
        Experiment(cellConfig("test-dummy", "menu")).run();
    EXPECT_GT(r.responsesReceived, 0u);
    // P1 for the whole run: exactly one transition per core at start.
    EXPECT_EQ(r.pstateTransitions, 8u);
}

TEST(PolicyMatrixTest, DummyGovernorKeysAreChecked)
{
    ExperimentConfig cfg = cellConfig("test-dummy", "menu");
    cfg.params.set("dummy.pstate", 2);
    EXPECT_NO_THROW(Experiment{cfg});
    cfg.params.set("dummy.pstat", 2);
    EXPECT_THROW(Experiment{cfg}, FatalError);
}

TEST(PolicyMatrixTest, EveryRegisteredPairRuns)
{
    const std::vector<std::string> policies =
        FreqPolicyRegistry::instance().names();
    const std::vector<std::string> idles =
        IdlePolicyRegistry::instance().names();
    ResultWriter writer;

    for (const std::string &policy : policies) {
        for (const std::string &idle : idles) {
            SCOPED_TRACE(policy + " x " + idle);
            ExperimentConfig cfg = cellConfig(policy, idle);
            ExperimentResult r = Experiment(cfg).run();

            // Liveness: every policy pair answers traffic.
            EXPECT_GT(r.requestsSent, 0u);
            EXPECT_GT(r.responsesReceived, 0u);

            // Client-side packet conservation.
            EXPECT_GE(r.requestsSent,
                      r.responsesReceived + r.nicDrops);

            // OS-side conservation: the NAPI mode counters partition
            // exactly what the OS pulled off the NIC.
            EXPECT_EQ(r.pktsIntrMode + r.pktsPollMode,
                      r.nicRxHarvested + r.nicTxConsumed);

            appendResultRecord(writer, cfg, r);
        }
    }

    EXPECT_EQ(writer.size(), policies.size() * idles.size());
    writer.writeJsonFile("BENCH_policy_matrix.json");
}

} // namespace
} // namespace nmapsim
