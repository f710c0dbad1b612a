/**
 * @file
 * Self-registering policy registry: string-keyed factories for
 * frequency (P-state) and sleep (C-state) policies.
 *
 * The harness resolves `ExperimentConfig::freqPolicy` /
 * `::idlePolicy` by name here and never mentions a concrete governor
 * class. Policy modules register themselves:
 *
 *     // in src/<module>/<policy>.cc
 *     namespace {
 *     // myParams: readParams(params, "mine", config) on a `mine.*`
 *     // schema (harness/policy_params.hh), plus its range checks
 *     REGISTER_PARAMS("mine", &myParams, "one-line help");
 *
 *     FreqPolicyInstance
 *     makeMyPolicy(PolicyContext &ctx)
 *     {
 *         auto gov = std::make_unique<MyGovernor>(
 *             ctx.eq, ctx.cores, myParams(ctx.params), ctx.gov);
 *         ctx.addObserver(gov.get()); // declare your own hookups
 *         return {std::move(gov), nullptr};
 *     }
 *     REGISTER_FREQ_POLICY("my-policy", &makeMyPolicy,
 *                          "one-line help");
 *     } // namespace
 *
 * and the name is immediately usable from configs, the sweep runner,
 * every bench and the nmapsim_run CLI — no harness edits. Every
 * harness checks the policy's keys at construction through the
 * registered schema, whether or not the run selects the policy.
 *
 * Each factory receives a PolicyContext carrying everything the
 * harness wired: the event queue, the cores (DVFS actuators hang off
 * them), the NIC, the OS observer bus, the client latency feed, the
 * per-policy parameter blob and an offline-profiling callback. The
 * factory declares its own hookups (observer attachment, sleep-state
 * override, auto-profiling) instead of the harness special-casing
 * them.
 *
 * Both families are aliases of the one Registry template
 * (sim/registry.hh), header-only Meyers singletons, so policy libraries
 * can register without linking against the harness; the harness side
 * calls ensureBuiltinPolicies() (policy_registry.cc) to force the
 * registering translation units out of their static archives.
 */

#ifndef NMAPSIM_HARNESS_POLICY_REGISTRY_HH_
#define NMAPSIM_HARNESS_POLICY_REGISTRY_HH_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "governors/freq_governor.hh"
#include "governors/switchable_idle.hh"
#include "harness/policy_params.hh"
#include "os/cpuidle.hh"
#include "os/server_os.hh"
#include "sim/registry.hh"
#include "workload/app_profile.hh"

namespace nmapsim {

class Client;
class CpuProfile;
class EventQueue;
class Nic;
class Rng;
struct ServerCounters;

/**
 * Everything a frequency-policy factory may wire against. Pointers are
 * null when the hosting harness cannot provide the facility (e.g. a
 * server shared by colocated tenants has no single client latency feed
 * and no single application to profile); factories that need a missing
 * facility fatal() with a policy-specific message.
 */
struct PolicyContext
{
    EventQueue &eq;
    const std::vector<Core *> &cores;
    Nic &nic;
    ServerOs &os;
    const AppProfile &app;
    Rng &rng;
    GovernorConfig gov;
    const PolicyParams &params;

    /** Client latency feed (Parties); null for colocated tenants. */
    Client *client = nullptr;

    /** Offline Section-4.2 threshold profiling (NI_TH, CU_TH); null
     *  when there is no single application to profile. */
    std::function<std::pair<double, double>()> profileThresholds;

    /** Attach a NAPI observer to the OS bus (borrowed; the governor
     *  owns it and outlives the run). */
    void
    addObserver(NapiObserver *obs)
    {
        os.addObserver(obs);
    }

    /**
     * Request control of the run's sleep states: the harness installs
     * the returned wrapper (around the configured sleep policy) as the
     * OS idle governor, and the frequency policy may force-awake it.
     */
    SwitchableIdleGovernor &
    requestSwitchableIdle()
    {
        switchableRequested_ = true;
        return *switchable_;
    }

    bool switchableRequested() const { return switchableRequested_; }

    /** Harness-side: the wrapper handed out on request. */
    SwitchableIdleGovernor *switchable_ = nullptr;
    bool switchableRequested_ = false;
};

/** What a frequency-policy factory returns. */
struct FreqPolicyInstance
{
    std::unique_ptr<FreqGovernor> governor;

    /** Optional post-run hook: report policy-specific outputs (e.g.
     *  the thresholds NMAP ran with) into the server's counters. */
    std::function<void(ServerCounters &)> finalize;
};

/** Everything a sleep-policy factory may depend on. */
struct IdleContext
{
    const CpuProfile &profile;
    int numCores;
    const PolicyParams &params;
};

/** String-keyed frequency-policy factories (sim/registry.hh). */
using FreqPolicyRegistry =
    Registry<FreqPolicyInstance(PolicyContext &), "frequency">;

/** String-keyed sleep-policy factories (sim/registry.hh). */
using IdlePolicyRegistry =
    Registry<std::unique_ptr<CpuIdleGovernor>(const IdleContext &),
             "sleep">;

/**
 * @name Registration shorthand
 * The canonical way to register a policy from its own TU:
 *
 *     REGISTER_FREQ_POLICY("my-policy", &makeMyPolicy,
 *                          "one-line help");
 *
 * Both the name and the help string must be nonempty string literals:
 * the name is the config/CLI key, the help line surfaces in
 * `nmapsim_run --list-policies`. nmaplint (rule register-hygiene)
 * enforces both.
 */
/**@{*/
#define REGISTER_FREQ_POLICY(name, factory, help)                      \
    static const ::nmapsim::FreqPolicyRegistry::Registrar              \
        NMAPSIM_REGISTRAR_CONCAT(nmapsimFreqPolicyRegistrar_,          \
                                 __COUNTER__)(name, factory, help)

#define REGISTER_IDLE_POLICY(name, factory, help)                      \
    static const ::nmapsim::IdlePolicyRegistry::Registrar              \
        NMAPSIM_REGISTRAR_CONCAT(nmapsimIdlePolicyRegistrar_,          \
                                 __COUNTER__)(name, factory, help)
/**@}*/

/**
 * Force the built-in policy modules' registration TUs out of their
 * static archives (an unreferenced object file with only registrar
 * statics would otherwise be dropped by the linker). Idempotent;
 * called by the harness constructors and the CLI.
 */
void ensureBuiltinPolicies();

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_POLICY_REGISTRY_HH_
