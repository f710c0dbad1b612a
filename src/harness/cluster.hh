/**
 * @file
 * Multi-host cluster experiment harness.
 *
 * A ClusterExperiment runs N complete server hosts (one ServerRig each,
 * see harness/server_rig.hh) behind a modeled top-of-rack switch
 * (cluster/switch.hh): client groups send bursty open-loop traffic
 * into the switch, a DispatchRegistry policy steers every request to
 * a host, and each host runs its own frequency + sleep policy resolved
 * by name (FreqPolicyRegistry, IdlePolicyRegistry). Hosts may be
 * heterogeneous (per-host policy and tunable overrides) and unevenly
 * loaded (per-host dispatch weights).
 *
 * The result carries both cluster-level aggregates — latency
 * percentiles over every completed request, total package energy,
 * switch conservation counters — and the full per-host breakdown, and
 * feeds the same ResultWriter JSON/CSV pipeline as the single-host
 * harness (harness/cluster_io.hh).
 */

#ifndef NMAPSIM_HARNESS_CLUSTER_HH_
#define NMAPSIM_HARNESS_CLUSTER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/switch.hh"
#include "harness/experiment.hh"

namespace nmapsim {

/** Per-host deviations from the cluster's base configuration. */
struct HostSpec
{
    /** Frequency policy override; empty = the base config's. */
    std::string freqPolicy;
    /** Sleep policy override; empty = the base config's. */
    std::string idlePolicy;
    /** Dispatch weight (> 0); affinity policies give the host a
     *  proportional hash share, queue policies normalise by it. */
    double weight = 1.0;
    /** Per-host tunables overlaid onto the base config's params. */
    PolicyParams params;

    bool operator==(const HostSpec &) const = default;
};

/** fatal() unless host @p host can take @p key as a HostSpec::params
 *  overlay: a dotted key outside the structured (`gov.`, `burst.`,
 *  `os.`, `nic.`), `cluster.`, `dispatch.` and run-scoped
 *  (RunPlan::owns) namespaces, which configure the whole run. */
void requireHostOverlayKey(int host, const std::string &key);

/** Declarative description of one cluster run. */
struct ClusterConfig
{
    /** Per-host baseline: hardware, app, OS/NIC knobs, load level and
     *  client connection count, policies, warmup/duration/seed. The
     *  load (base.load / base.rpsOverride) describes the *cluster*
     *  offered load; it is split evenly over the client groups.
     *  loadSchedule, extraObservers and colocated are not supported
     *  here. */
    ExperimentConfig base;

    int numHosts = 2;
    /** Request steering policy, by DispatchRegistry name. */
    std::string dispatch = "flow-hash";
    /** Optional per-host overrides; empty = all hosts run the base
     *  config, otherwise exactly one entry per host. */
    std::vector<HostSpec> hosts;

    /** Independent client machines; each owns base.numConnections
     *  connections in its own flow space (kFlowSpaceStride apart). */
    int clientGroups = 1;

    /** Switch fabric/port model. */
    SwitchConfig fabric;

    /** Extra simulated time after the load stops, letting in-flight
     *  requests complete (exact request conservation). */
    Tick drain = 0;

    bool operator==(const ClusterConfig &) const = default;
};

/**
 * Per-tier aggregates of a topology run: hop-latency percentiles over
 * the tier's hosts, the tier's share of the chain tail, and how the
 * tier is doing against its per-hop SLO budget.
 */
struct ClusterTierResult
{
    int tier = 0;
    std::string name;
    int firstHost = 0;
    int hosts = 0;
    /** Resolved dispatch policy steering this tier. */
    std::string dispatch;
    /** Per-hop latency budget (explicit or an even share of the app
     *  SLO). */
    Tick slo = 0;

    /** Hop completions (forwards + replies) from the tier's hosts. */
    std::uint64_t completions = 0;
    /** East-west forwards this tier emitted downstream. */
    std::uint64_t forwards = 0;

    /** @name Hop latency (dispatch to return, measurement window) */
    /**@{*/
    Tick hopP50 = 0;
    Tick hopP99 = 0;
    Tick hopMax = 0;
    double meanHop = 0.0;
    /**@}*/

    /** Fraction of hops over this tier's SLO budget. */
    double fracOverSlo = 0.0;
    /** This tier's hop p99 as a share of the summed per-tier hop p99s
     *  — which tier owns the chain tail. */
    double p99Share = 0.0;

    double energyJoules = 0.0;
};

/** Everything one host of a cluster run produced: its server counters
 *  plus what the cluster attributes to it. */
struct ClusterHostResult : ServerCounters
{
    int id = 0;
    std::string freqPolicy;
    std::string idlePolicy;

    /** Service tier this host belongs to (0 when single-tier). */
    int tier = 0;
    std::string tierName;
    /** Requests this host forwarded east-west (mid-chain tiers). */
    std::uint64_t forwarded = 0;
    /** Hop completions and dispatch-to-return hop latency, from the
     *  switch's hop tap (topology runs only). */
    std::uint64_t hopsCompleted = 0;
    Tick hopP50 = 0;
    Tick hopP99 = 0;

    /** Responses this host served (tap-attributed). */
    std::uint64_t served = 0;
    /** Latency of served requests, end-to-end up to the switch egress
     *  fabric (excludes the final switch->client link). */
    Tick p50 = 0;
    Tick p99 = 0;

    /** Times the switch's failure detector ejected this host. */
    std::uint64_t ejections = 0;

    /** @name Resilience metrics (only meaningful — and only
     *  serialised — when the cluster runs a resilience plan) */
    /**@{*/
    std::uint64_t shedAdmission = 0; //!< arrivals the gate refused
    std::uint64_t shedSojourn = 0;   //!< serve-time sojourn sheds
    std::uint64_t shedDeadline = 0;  //!< past-deadline sheds (host side)
    /** Switch-side breaker transitions for this host. */
    std::uint64_t breakerTransitions = 0;
    /**@}*/
};

/** Everything a cluster run produces: what the clients measured (see
 *  RunCounters), the switch's totals (see SwitchCounters), cluster
 *  aggregates and the per-tier and per-host breakdowns. The switch's
 *  byte classes are serialised only for topology runs. */
struct ClusterResult : RunCounters, SwitchCounters
{
    /** Sum of every host's package energy over the measurement. */
    double energyJoules = 0.0;
    double avgPowerWatts = 0.0;

    std::uint64_t hostNicDrops = 0; //!< host NIC ring overflows
    /** Responses whose flow hash matched no client group. */
    std::uint64_t strayResponses = 0;
    /** Completions per second over the whole run (goodput). */
    double goodputRps = 0.0;

    /** Sum of per-tier hop p99s (per-hop tail vs the end-to-end p99,
     *  which includes fabric/port time and queueing correlation); zero
     *  in single-tier runs. */
    Tick hopP99Sum = 0;

    /** Per-tier breakdown; empty unless a topology was declared. */
    std::vector<ClusterTierResult> tiers;
    std::vector<ClusterHostResult> hosts;
};

/** Builds, runs and tears down one configured cluster simulation. */
class ClusterExperiment
{
  public:
    explicit ClusterExperiment(ClusterConfig config);

    /** Execute the run and collect results. */
    ClusterResult run();

    const ClusterConfig &config() const { return config_; }

    /** The run-scoped plans, parsed from the base config. A declared
     *  topology (plan().topology) derives numHosts from its per-tier
     *  host counts. */
    const RunPlan &plan() const { return plan_; }

    /** The fully resolved configuration host @p id runs (base with the
     *  tier's, then the host's, overrides applied). */
    const ExperimentConfig &
    hostConfig(int id) const
    {
        return hostConfigs_[static_cast<std::size_t>(id)];
    }

    /** The per-hop SLO budget tier @p tier is judged against. */
    Tick tierSlo(int tier) const;

  private:
    ClusterConfig config_;
    RunPlan plan_;
    /** Per host: the resolved config and its validated dataplane. */
    std::vector<ExperimentConfig> hostConfigs_;
    std::vector<DataplanePlan> hostDataplanes_;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_CLUSTER_HH_
