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
 *     FreqPolicyInstance
 *     makeMyPolicy(PolicyContext &ctx)
 *     {
 *         auto gov = std::make_unique<MyGovernor>(
 *             ctx.eq, ctx.cores,
 *             ctx.params.getDouble("mine.knob", 1.0), ctx.gov);
 *         ctx.addObserver(gov.get()); // declare your own hookups
 *         return {std::move(gov), nullptr};
 *     }
 *     REGISTER_FREQ_POLICY("my-policy", &makeMyPolicy,
 *                          "one-line help");
 *     } // namespace
 *
 * and the name is immediately usable from configs, the sweep runner,
 * every bench and the nmapsim_run CLI — no harness edits.
 *
 * Each factory receives a PolicyContext carrying everything the
 * harness wired: the event queue, the cores (DVFS actuators hang off
 * them), the NIC, the OS observer bus, the client latency feed, the
 * per-policy parameter blob and an offline-profiling callback. The
 * factory declares its own hookups (observer attachment, sleep-state
 * override, auto-profiling) instead of the harness special-casing
 * them.
 *
 * The registry is header-only (a Meyers singleton) so policy libraries
 * can register without linking against the harness; the harness side
 * calls ensureBuiltinPolicies() (policy_registry.cc) to force the
 * registering translation units out of their static archives.
 */

#ifndef NMAPSIM_HARNESS_POLICY_REGISTRY_HH_
#define NMAPSIM_HARNESS_POLICY_REGISTRY_HH_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "governors/freq_governor.hh"
#include "governors/switchable_idle.hh"
#include "harness/policy_params.hh"
#include "os/cpuidle.hh"
#include "os/server_os.hh"
#include "sim/logging.hh"
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
 * null when the hosting harness cannot provide the facility (e.g. the
 * colocation harness has no single client latency feed and no single
 * application to profile); factories that need a missing facility
 * fatal() with a policy-specific message.
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

    /** Client latency feed (Parties); null in colocation. */
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

/** String-keyed factories for frequency and sleep policies. */
class PolicyRegistry
{
  public:
    using FreqFactory = std::function<FreqPolicyInstance(PolicyContext &)>;
    using IdleFactory =
        std::function<std::unique_ptr<CpuIdleGovernor>(const IdleContext &)>;

    static PolicyRegistry &
    instance()
    {
        static PolicyRegistry registry;
        return registry;
    }

    void
    registerFreq(const std::string &name, FreqFactory factory,
                 std::string help = "")
    {
        if (!freq_.emplace(name, Entry<FreqFactory>{std::move(factory),
                                                    std::move(help)})
                 .second)
            fatal("duplicate frequency policy registration: '" + name +
                  "'");
    }

    void
    registerIdle(const std::string &name, IdleFactory factory,
                 std::string help = "")
    {
        if (!idle_.emplace(name, Entry<IdleFactory>{std::move(factory),
                                                    std::move(help)})
                 .second)
            fatal("duplicate sleep policy registration: '" + name +
                  "'");
    }

    bool hasFreq(const std::string &name) const
    {
        return resolve(freq_, name) != freq_.end();
    }

    bool hasIdle(const std::string &name) const
    {
        return resolve(idle_, name) != idle_.end();
    }

    /** fatal() with the known-name list unless @p name resolves to a
     *  frequency policy. */
    void
    requireFreq(const std::string &name) const
    {
        (void)find(freq_, name, "frequency");
    }

    /** fatal() with the known-name list unless @p name resolves to a
     *  sleep policy. */
    void
    requireIdle(const std::string &name) const
    {
        (void)find(idle_, name, "sleep");
    }

    /** Instantiate a frequency policy; fatal() on unknown names. */
    FreqPolicyInstance
    makeFreq(const std::string &name, PolicyContext &ctx) const
    {
        return find(freq_, name, "frequency")->second.factory(ctx);
    }

    /** Instantiate a sleep policy; fatal() on unknown names. */
    std::unique_ptr<CpuIdleGovernor>
    makeIdle(const std::string &name, const IdleContext &ctx) const
    {
        return find(idle_, name, "sleep")->second.factory(ctx);
    }

    /** Registered frequency-policy names, sorted. */
    std::vector<std::string>
    freqNames() const
    {
        return names(freq_);
    }

    /** Registered sleep-policy names, sorted. */
    std::vector<std::string>
    idleNames() const
    {
        return names(idle_);
    }

    std::string
    freqHelp(const std::string &name) const
    {
        auto it = resolve(freq_, name);
        return it == freq_.end() ? std::string() : it->second.help;
    }

    std::string
    idleHelp(const std::string &name) const
    {
        auto it = resolve(idle_, name);
        return it == idle_.end() ? std::string() : it->second.help;
    }

  private:
    template <typename F>
    struct Entry
    {
        F factory;
        std::string help;
    };

    template <typename F>
    using Map = std::map<std::string, Entry<F>>;

    PolicyRegistry() = default;

    template <typename F>
    static typename Map<F>::const_iterator
    find(const Map<F> &map, const std::string &name, const char *kind)
    {
        auto it = resolve(map, name);
        if (it == map.end())
            fatal(std::string("unknown ") + kind + " policy '" + name +
                  "' (known: " + joined(map) + ")");
        return it;
    }

    /** Exact match first, then a unique case-insensitive match (so
     *  configs and the CLI may say "nmap" for "NMAP"). */
    template <typename F>
    static typename Map<F>::const_iterator
    resolve(const Map<F> &map, const std::string &name)
    {
        auto it = map.find(name);
        if (it != map.end())
            return it;
        auto match = map.end();
        for (auto i = map.begin(); i != map.end(); ++i) {
            if (equalsIgnoreCase(i->first, name)) {
                if (match != map.end())
                    return map.end(); // ambiguous
                match = i;
            }
        }
        return match;
    }

    static bool
    equalsIgnoreCase(const std::string &a, const std::string &b)
    {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i)
            if (lower(a[i]) != lower(b[i]))
                return false;
        return true;
    }

    static char
    lower(char c)
    {
        return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                    : c;
    }

    template <typename F>
    static std::vector<std::string>
    names(const Map<F> &map)
    {
        std::vector<std::string> out;
        out.reserve(map.size());
        for (const auto &[name, entry] : map)
            out.push_back(name);
        return out;
    }

    template <typename F>
    static std::string
    joined(const Map<F> &map)
    {
        std::string out;
        for (const auto &[name, entry] : map) {
            if (!out.empty())
                out += ", ";
            out += name;
        }
        return out;
    }

    Map<FreqFactory> freq_;
    Map<IdleFactory> idle_;
};

/** Registers a frequency policy at static-initialisation time. */
struct FreqPolicyRegistrar
{
    FreqPolicyRegistrar(const std::string &name,
                        PolicyRegistry::FreqFactory factory,
                        std::string help = "")
    {
        PolicyRegistry::instance().registerFreq(name, std::move(factory),
                                                std::move(help));
    }
};

/** Registers a sleep policy at static-initialisation time. */
struct IdlePolicyRegistrar
{
    IdlePolicyRegistrar(const std::string &name,
                        PolicyRegistry::IdleFactory factory,
                        std::string help = "")
    {
        PolicyRegistry::instance().registerIdle(name, std::move(factory),
                                                std::move(help));
    }
};

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
#define NMAPSIM_REGISTRAR_CONCAT_(a, b) a##b
#define NMAPSIM_REGISTRAR_CONCAT(a, b) NMAPSIM_REGISTRAR_CONCAT_(a, b)

#define REGISTER_FREQ_POLICY(name, factory, help)                      \
    static const ::nmapsim::FreqPolicyRegistrar                        \
        NMAPSIM_REGISTRAR_CONCAT(nmapsimFreqPolicyRegistrar_,          \
                                 __COUNTER__)(name, factory, help)

#define REGISTER_IDLE_POLICY(name, factory, help)                      \
    static const ::nmapsim::IdlePolicyRegistrar                        \
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
