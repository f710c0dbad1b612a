/**
 * @file
 * Declarative service topology: how hosts compose into tiers.
 *
 * A TopologyPlan is parsed from the ordinary key=value config pipeline
 * (`topology.*` namespace in ExperimentConfig::params), validated once,
 * and handed to ClusterExperiment, which materialises it as contiguous
 * host-id ranges behind the ClusterSwitch. Tier 0 fronts the clients;
 * every host in tiers 0..N-2 forwards completed requests east-west to
 * the next tier, and only the last tier replies. The plan itself holds
 * no state and draws no randomness.
 *
 * An empty plan (`enabled() == false`) is the single-tier bypass: no
 * east-west wiring exists, the switch runs one dispatch policy over
 * all hosts, and the simulation is bit-for-bit the same as before the
 * topology subsystem existed.
 */

#ifndef NMAPSIM_CLUSTER_TOPOLOGY_HH_
#define NMAPSIM_CLUSTER_TOPOLOGY_HH_

#include <string>
#include <vector>

#include "harness/policy_params.hh"
#include "sim/time.hh"

namespace nmapsim {

/** One service tier: a contiguous run of identically-roled hosts. */
struct TierSpec {
    /** Human-readable tier name ("lb", "app", "cache", "stage2"...). */
    std::string name;
    /** Hosts in this tier (>= 1). */
    int hosts = 1;
    /** DispatchRegistry policy for this tier; "" = cluster default. */
    std::string dispatch;
    /** Frequency-policy override for the tier; "" = cluster base. */
    std::string freqPolicy;
    /** Idle-policy override for the tier; "" = cluster base. */
    std::string idlePolicy;
    /** Multiplier on sampled per-request service cycles (> 0). */
    double serviceScale = 1.0;
    /**
     * Extra client groups whose requests enter the chain at this tier
     * instead of tier 0 (mid-chain load). 0 = no direct clients.
     */
    int clients = 0;
    /**
     * Per-hop latency budget for SLO attribution; 0 = take an even
     * share of the end-to-end app SLO (slo / numTiers).
     */
    Tick slo = 0;

    bool operator==(const TierSpec &) const = default;

    /** The `topology.tier<i>.*` params schema; `<i>` is the tier. */
    template <typename Key>
    void
    visit(Key &&key)
    {
        key("topology.tier<i>.name", name);
        key("topology.tier<i>.hosts", hosts);
        key("topology.tier<i>.dispatch", dispatch);
        key("topology.tier<i>.freq_policy", freqPolicy);
        key("topology.tier<i>.idle_policy", idlePolicy);
        key("topology.tier<i>.service_scale", serviceScale);
        key("topology.tier<i>.slo", slo);
        key("topology.tier<i>.clients", clients);
    }
};

/** Parsed, validated service topology (see `topology.*` config keys). */
struct TopologyPlan {
    /** Tiers in request order: tier 0 faces the clients. */
    std::vector<TierSpec> tiers;

    /** True when a multi-tier topology is declared. */
    bool enabled() const { return !tiers.empty(); }
    int numTiers() const { return static_cast<int>(tiers.size()); }
    /** Sum of per-tier host counts. */
    int totalHosts() const;
    /** Global id of the first host in @p tier. */
    int firstHostOf(int tier) const;
    /** Tier owning global host id @p host. */
    int tierOf(int host) const;

    /** Read and check `topology.tiers` and each tier's TierSpec keys
     *  in @p params; without them the plan is disabled. */
    static TopologyPlan fromParams(const PolicyParams &params);
};

} // namespace nmapsim

#endif // NMAPSIM_CLUSTER_TOPOLOGY_HH_
