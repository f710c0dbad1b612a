/**
 * @file
 * Self-registering admission-policy registry: string-keyed factories
 * for the overload gate a server app consults at its request queue.
 *
 * The harness resolves `resilience.admission` by name here (one alias
 * of the Registry template, sim/registry.hh) and never mentions a
 * concrete policy class. Policy modules register themselves:
 *
 *     // in src/resilience/<policy>.cc
 *     namespace {
 *     std::unique_ptr<AdmissionPolicy>
 *     makeMyPolicy(const AdmissionContext &ctx)
 *     {
 *         return std::make_unique<MyPolicy>(ctx.plan.admitTarget);
 *     }
 *     REGISTER_ADMISSION_POLICY("my-policy", &makeMyPolicy,
 *                               "one-line help");
 *     } // namespace
 *
 * and the name is immediately usable from configs, every bench and the
 * nmapsim_run CLI — no harness edits. One policy instance is created
 * per app thread, so stateful controllers (the CoDel-style
 * queue-deadline law) need no cross-thread care, and none of them
 * draws randomness: admission decisions are pure functions of the
 * deterministic arrival/serve timeline.
 */

#ifndef NMAPSIM_RESILIENCE_ADMISSION_HH_
#define NMAPSIM_RESILIENCE_ADMISSION_HH_

#include <cstddef>
#include <memory>

#include "resilience/plan.hh"
#include "sim/registry.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Per-app-thread overload gate for the server request queue. */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;

    /**
     * Arrival-time gate: may this request join a queue currently
     * holding @p queueDepth entries? false = shed before enqueue.
     */
    virtual bool admit(Tick now, std::size_t queueDepth) = 0;

    /**
     * Serve-time gate: is a request that waited since @p enqueuedAt
     * still worth serving? false = shed instead of burning cycles.
     */
    virtual bool
    serve(Tick now, Tick enqueuedAt)
    {
        (void)now;
        (void)enqueuedAt;
        return true;
    }
};

/** Everything an admission-policy factory may depend on. */
struct AdmissionContext
{
    const ResiliencePlan &plan;
};

/** String-keyed admission-policy factories (sim/registry.hh). */
using AdmissionPolicyRegistry =
    Registry<std::unique_ptr<AdmissionPolicy>(const AdmissionContext &),
             "admission">;

/**
 * Registration shorthand, mirroring REGISTER_FREQ_POLICY
 * (harness/policy_registry.hh). Both the name and the help string must
 * be nonempty string literals; nmaplint (rule register-hygiene)
 * enforces both.
 */
#define REGISTER_ADMISSION_POLICY(name, factory, help)                 \
    static const ::nmapsim::AdmissionPolicyRegistry::Registrar         \
        NMAPSIM_REGISTRAR_CONCAT(nmapsimAdmissionPolicyRegistrar_,     \
                                 __COUNTER__)(name, factory, help)

/** No-op: the built-in policies register during static initialisation.
 *  Kept only for callers in the benchmark package (perfbench/). */
inline void
ensureBuiltinAdmissionPolicies()
{
}

} // namespace nmapsim

#endif // NMAPSIM_RESILIENCE_ADMISSION_HH_
