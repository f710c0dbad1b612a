/**
 * @file
 * Pluggable request-dispatch policies for the cluster switch.
 *
 * The top-of-rack switch (cluster/switch.hh) forwards every client
 * request to one of N hosts; *which* host is a policy decision with
 * first-order consequences for both tail latency (affinity keeps a
 * flow's packet trains on one NIC queue) and power (packing load lets
 * unloaded hosts reach deep package idle). Policies are resolved by
 * name through the string-keyed DispatchRegistry, one alias of the
 * Registry template (sim/registry.hh) shared with the frequency and
 * sleep policies: a new policy registers itself from its own
 * translation unit
 *
 *     namespace {
 *     std::unique_ptr<DispatchPolicy>
 *     makeMine(const DispatchContext &ctx)
 *     {
 *         return std::make_unique<MineDispatch>(ctx);
 *     }
 *     REGISTER_DISPATCH_POLICY("mine", &makeMine, "one-line help");
 *     } // namespace
 *
 * and is immediately reachable from ClusterConfig::dispatch, the
 * nmapsim_run CLI (--dispatch) and the cluster bench — no harness
 * edits.
 *
 * Built-ins (cluster/dispatch_policies.cc):
 *   flow-hash         weighted hash of the RSS flow id (affinity)
 *   consistent-hash   ring hash with virtual nodes (affinity, stable
 *                     under host-count changes)
 *   round-robin       smooth weighted round robin (no affinity)
 *   least-outstanding join-the-shortest-queue on in-flight requests
 *   power-pack        fill hosts in id order up to a knee, keeping
 *                     high-id hosts idle for deep C-states
 */

#ifndef NMAPSIM_CLUSTER_DISPATCH_HH_
#define NMAPSIM_CLUSTER_DISPATCH_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/policy_params.hh"
#include "net/packet.hh"
#include "sim/registry.hh"

namespace nmapsim {

/**
 * Everything a dispatch-policy factory may wire against. The context
 * outlives the policy instance (the switch owns both), so policies may
 * keep a copy or reference pieces of it.
 */
struct DispatchContext
{
    int numHosts = 0;
    /** Per-host load weight (> 0); affinity policies map proportional
     *  hash ranges, queue policies normalise their feedback by it. */
    std::vector<double> weights;
    /** Dispatch tunables ("dispatch.<knob>"); shares the experiment's
     *  params blob. */
    PolicyParams params;
    /** Live in-flight request count per host (switch feedback). */
    std::function<std::uint64_t(int)> outstanding;
    /**
     * Live health per host (switch failure-detector feedback); null
     * means no detector, i.e. every host healthy. Queue policies
     * (round-robin, least-outstanding, power-pack) skip unhealthy
     * hosts while at least one healthy host remains; affinity
     * policies keep their hash stable and rely on the switch's
     * deterministic reroute instead, so readmitted hosts get their
     * flows back.
     */
    std::function<bool(int)> healthy;
};

/** Chooses a destination host for every request packet. */
class DispatchPolicy
{
  public:
    virtual ~DispatchPolicy() = default;

    /** Destination host in [0, numHosts) for request @p pkt. */
    virtual int pickHost(const Packet &pkt) = 0;

    virtual std::string name() const = 0;
};

/** String-keyed dispatch-policy factories (sim/registry.hh). */
using DispatchRegistry =
    Registry<std::unique_ptr<DispatchPolicy>(const DispatchContext &),
             "dispatch">;

/**
 * Registration shorthand, mirroring REGISTER_FREQ_POLICY
 * (harness/policy_registry.hh). Name and help must be nonempty string
 * literals; nmaplint (rule register-hygiene) enforces both.
 */
#define REGISTER_DISPATCH_POLICY(name, factory, help)                  \
    static const ::nmapsim::DispatchRegistry::Registrar                \
        NMAPSIM_REGISTRAR_CONCAT(nmapsimDispatchRegistrar_,            \
                                 __COUNTER__)(name, factory, help)

/**
 * Force the built-in dispatch policies' registration TU out of the
 * static archive (same linker dance as ensureBuiltinPolicies()).
 * Idempotent; called by the cluster harness and the CLI.
 */
void ensureBuiltinDispatchPolicies();

} // namespace nmapsim

#endif // NMAPSIM_CLUSTER_DISPATCH_HH_
