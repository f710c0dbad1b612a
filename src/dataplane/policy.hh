/**
 * @file
 * Self-registering dataplane-policy registry: string-keyed factories
 * for the sleep controller a bypass poll core consults after every
 * poll iteration.
 *
 * The harness resolves `dataplane.policy` by name here (one alias of
 * the Registry template, sim/registry.hh) and never mentions a concrete
 * policy class. Policy modules register themselves:
 *
 *     // in src/dataplane/<policy>.cc
 *     namespace {
 *     // myParams: readParams(params, "mine", config) on a `mine.*`
 *     // schema (harness/policy_params.hh), plus its range checks
 *     REGISTER_PARAMS("mine", &myParams, "one-line help");
 *
 *     std::unique_ptr<DataplanePolicy>
 *     makeMyPolicy(const DataplaneContext &ctx)
 *     {
 *         return std::make_unique<MyPolicy>(myParams(ctx.params));
 *     }
 *     REGISTER_DATAPLANE_POLICY("my-policy", &makeMyPolicy,
 *                               "one-line help");
 *     } // namespace
 *
 * and the name is immediately usable from configs, every bench and the
 * nmapsim_run CLI — no harness edits. One policy instance is created
 * per poll thread, so stateful controllers (Metronome's adaptive sleep)
 * need no cross-thread care.
 */

#ifndef NMAPSIM_DATAPLANE_POLICY_HH_
#define NMAPSIM_DATAPLANE_POLICY_HH_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "harness/policy_params.hh"
#include "sim/registry.hh"
#include "sim/time.hh"

namespace nmapsim {

/** What one completed poll iteration looked like. */
struct DataplanePollStats
{
    Tick now = 0;                   //!< when the poll completed
    std::uint32_t harvestedRx = 0;  //!< Rx packets this poll took
    std::uint32_t harvestedTx = 0;  //!< Tx completions this poll reaped
    std::size_t ringOccupancy = 0;  //!< Rx backlog left on owned queues
    int pollBatch = 0;              //!< per-queue Rx budget of the poll
};

/** Per-poll-thread sleep controller for the bypass dataplane. */
class DataplanePolicy
{
  public:
    virtual ~DataplanePolicy() = default;

    /**
     * Decide what the poll core does next: return 0 to poll again
     * immediately (busy spin), or a positive duration to sleep before
     * the next poll (an armed interrupt may cut the sleep short).
     */
    virtual Tick sleepAfterPoll(const DataplanePollStats &stats) = 0;
};

/** Everything a dataplane-policy factory may depend on. */
struct DataplaneContext
{
    const PolicyParams &params;
};

/** String-keyed dataplane sleep-policy factories (sim/registry.hh). */
using DataplanePolicyRegistry =
    Registry<std::unique_ptr<DataplanePolicy>(const DataplaneContext &),
             "dataplane">;

/**
 * Registration shorthand, mirroring REGISTER_FREQ_POLICY
 * (harness/policy_registry.hh). Both the name and the help string must
 * be nonempty string literals; nmaplint (rule register-hygiene)
 * enforces both.
 */
#define REGISTER_DATAPLANE_POLICY(name, factory, help)                 \
    static const ::nmapsim::DataplanePolicyRegistry::Registrar         \
        NMAPSIM_REGISTRAR_CONCAT(nmapsimDataplanePolicyRegistrar_,     \
                                 __COUNTER__)(name, factory, help)

} // namespace nmapsim

#endif // NMAPSIM_DATAPLANE_POLICY_HH_
