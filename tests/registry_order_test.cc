/**
 * @file
 * CLI-visible registry listings must never depend on hash or
 * registration order: `--list-policies` and the "known names" part of
 * unknown-name errors all come from the registries' name listings, and
 * those must be sorted so output is byte-stable across compilers,
 * libstdc++ versions and registration link order. The harness cases
 * check the errors a user actually sees, raised at construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/dispatch.hh"
#include "cpu/cpu_profile.hh"
#include "dataplane/policy.hh"
#include "harness/cluster.hh"
#include "harness/experiment.hh"
#include "harness/policy_registry.hh"
#include "resilience/admission.hh"
#include "resilience/plan.hh"
#include "sim/logging.hh"

namespace nmapsim {
namespace {

void
expectSortedAndUnique(const std::vector<std::string> &names)
{
    EXPECT_FALSE(names.empty());
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end())) << "unsorted";
    EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) ==
                names.end())
        << "duplicate names";
}

TEST(RegistryOrderTest, FreqAndIdleListingsAreSorted)
{
    ensureBuiltinPolicies();
    expectSortedAndUnique(FreqPolicyRegistry::instance().names());
    expectSortedAndUnique(IdlePolicyRegistry::instance().names());
}

TEST(RegistryOrderTest, DispatchListingIsSorted)
{
    ensureBuiltinDispatchPolicies();
    expectSortedAndUnique(DispatchRegistry::instance().names());
}

TEST(RegistryOrderTest, DataplaneListingIsSorted)
{
    ensureBuiltinDataplanePolicies();
    expectSortedAndUnique(DataplanePolicyRegistry::instance().names());
}

TEST(RegistryOrderTest, AdmissionListingIsSorted)
{
    ensureBuiltinAdmissionPolicies();
    expectSortedAndUnique(AdmissionPolicyRegistry::instance().names());
}

/** The "known: a, b, c" tail of unknown-name errors lists names in
 *  sorted order, matching the listing the user is pointed at. */
void
expectKnownNamesSorted(const std::string &message,
                       const std::vector<std::string> &names)
{
    std::string::size_type prev = message.find("known: ");
    ASSERT_NE(prev, std::string::npos) << message;
    std::string::size_type last = prev;
    for (const std::string &name : names) {
        const std::string::size_type pos = message.find(name, last);
        ASSERT_NE(pos, std::string::npos)
            << "'" << name << "' missing or out of order in: "
            << message;
        last = pos;
    }
}

TEST(RegistryOrderTest, UnknownFreqPolicyErrorListsSortedNames)
{
    // End-to-end through the harness: the resolution error a user
    // actually sees must carry the sorted name list.
    ExperimentConfig cfg;
    cfg.freqPolicy = "no-such-policy";
    cfg.warmup = milliseconds(1);
    cfg.duration = milliseconds(1);
    try {
        (void)Experiment(cfg).run();
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        expectKnownNamesSorted(e.what(),
                               FreqPolicyRegistry::instance().names());
    }
}

TEST(RegistryOrderTest, UnknownIdlePolicyErrorListsSortedNames)
{
    ensureBuiltinPolicies();
    PolicyParams params;
    IdleContext ctx{CpuProfile::xeonGold6134(), 1, params};
    try {
        (void)IdlePolicyRegistry::instance().make("no-such-idle", ctx);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        expectKnownNamesSorted(e.what(),
                               IdlePolicyRegistry::instance().names());
    }
}

TEST(RegistryOrderTest, UnknownDataplaneErrorListsSortedNames)
{
    ensureBuiltinDataplanePolicies();
    PolicyParams params;
    DataplaneContext ctx{params};
    try {
        (void)DataplanePolicyRegistry::instance().make(
            "no-such-dataplane", ctx);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        expectKnownNamesSorted(
            e.what(), DataplanePolicyRegistry::instance().names());
    }
}

TEST(RegistryOrderTest, UnknownAdmissionErrorListsSortedNames)
{
    ensureBuiltinAdmissionPolicies();
    ResiliencePlan plan;
    AdmissionContext ctx{plan};
    try {
        (void)AdmissionPolicyRegistry::instance().make(
            "no-such-admission", ctx);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        expectKnownNamesSorted(
            e.what(), AdmissionPolicyRegistry::instance().names());
    }
}

TEST(RegistryOrderTest, UnknownDispatchErrorListsSortedNames)
{
    ensureBuiltinDispatchPolicies();
    try {
        DispatchContext ctx;
        ctx.numHosts = 1;
        ctx.weights = {1.0};
        (void)DispatchRegistry::instance().make("no-such-dispatch",
                                                ctx);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        expectKnownNamesSorted(e.what(),
                               DispatchRegistry::instance().names());
    }
}

TEST(RegistryOrderTest, HarnessDataplaneErrorListsSortedNames)
{
    // The check a user hits first: Experiment's construction-time
    // validation, not a direct registry call.
    ExperimentConfig cfg;
    cfg.params.set("dataplane.mode", "bypass");
    cfg.params.set("dataplane.policy", "no-such-dataplane");
    try {
        Experiment exp(cfg);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        expectKnownNamesSorted(
            e.what(), DataplanePolicyRegistry::instance().names());
    }
}

TEST(RegistryOrderTest, HarnessDispatchErrorsListSortedNames)
{
    ClusterConfig cfg;
    cfg.numHosts = 2;
    cfg.dispatch = "no-such-dispatch";
    try {
        ClusterExperiment exp(cfg);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        expectKnownNamesSorted(e.what(),
                               DispatchRegistry::instance().names());
    }

    // A topology tier's own dispatch name, reported with its tier.
    ClusterConfig tiered;
    tiered.base.params.set("topology.tiers", 2);
    tiered.base.params.set("topology.tier1.name", "cache");
    tiered.base.params.set("topology.tier1.dispatch", "no-such-dispatch");
    try {
        ClusterExperiment exp(tiered);
        FAIL() << "expected fatal()";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("tier 'cache'"),
                  std::string::npos)
            << e.what();
        expectKnownNamesSorted(e.what(),
                               DispatchRegistry::instance().names());
    }
}

} // namespace
} // namespace nmapsim
