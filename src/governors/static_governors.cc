/**
 * @file
 * Policy-registry entries for the static cpufreq governors.
 */

#include "governors/static_governors.hh"

#include "harness/policy_registry.hh"

namespace nmapsim {

void
linkStaticGovernorPolicies()
{
}

namespace {

FreqPolicyInstance
makePerformance(PolicyContext &ctx)
{
    return {std::make_unique<PerformanceGovernor>(ctx.cores), nullptr};
}

FreqPolicyInstance
makePowersave(PolicyContext &ctx)
{
    return {std::make_unique<PowersaveGovernor>(ctx.cores), nullptr};
}

/** The `userspace.*` params schema (harness/policy_params.hh). */
struct UserspaceConfig
{
    int pstate = 0; //!< P-state index every core is pinned at

    template <typename Key>
    void
    visit(Key &&key)
    {
        key("userspace.pstate", pstate);
    }
};

UserspaceConfig
userspaceParams(const PolicyParams &params)
{
    UserspaceConfig config;
    readParams(params, "userspace", config);
    return config;
}

REGISTER_PARAMS("userspace", &userspaceParams, "the pinned P-state");

FreqPolicyInstance
makeUserspace(PolicyContext &ctx)
{
    return {std::make_unique<UserspaceGovernor>(
                ctx.cores, userspaceParams(ctx.params).pstate),
            nullptr};
}

REGISTER_FREQ_POLICY(
    "performance", &makePerformance,
    "pin every core at P0 (latency-optimal, energy-hungry)");
REGISTER_FREQ_POLICY(
    "powersave", &makePowersave,
    "pin every core at the lowest P-state");
REGISTER_FREQ_POLICY(
    "userspace", &makeUserspace,
    "pin every core at userspace.pstate (default 0)");

} // namespace
} // namespace nmapsim
