/**
 * @file
 * Modeled top-of-rack switch / L4 load balancer.
 *
 * The switch sits between the client fleet and N server hosts. Both
 * directions pass through a shared forwarding fabric — a Wire whose
 * bandwidth models the switching capacity and whose propagation models
 * the forwarding pipeline latency — and then through a per-destination
 * egress port Wire that serialises at link rate and queues (output
 * queueing). Egress ports may be given finite queues; overflow drops
 * are accounted on the port wire, mirroring real shallow-buffer ToR
 * switches.
 *
 * Everything the switch knows about one host lives in one record: its
 * egress port, its tier, its forward/response counters, the dispatch
 * times of its unanswered requests, its last response and its
 * ejection state. Requests are steered by a pluggable DispatchPolicy
 * resolved by name through the DispatchRegistry; the switch feeds the
 * policy each host's in-flight count. A request counts as forwarded
 * (and in flight) when its port's Wire::send() accepts it; a drop at
 * the port (full queue, injected loss, downed link) leaves no trace on
 * the host. The response path needs no policy: the switch stamps each
 * response with the host that served it (Packet::servingHost) and
 * forwards it to the client port, where a tap hands the harness each
 * served response with that host (per-host latency feeds).
 *
 * Hosts may be composed into service tiers (a TopologyPlan): each
 * tier owns a contiguous host-id range and its own DispatchPolicy
 * instance, requests carry the destination tier in Packet::tier, and a
 * mid-chain
 * host's completed request re-enters the ingress fabric east-west,
 * addressed to the next tier, instead of returning to the client. The
 * failure detector stays per-host, and both reroutes (around an
 * ejected pick and around an open breaker) walk the pick's own tier
 * for the next usable host. Whole-switch totals come out as one
 * SwitchCounters.
 *
 * Deviations from real ToR switches are documented in DESIGN.md
 * ("Cluster model").
 */

#ifndef NMAPSIM_CLUSTER_SWITCH_HH_
#define NMAPSIM_CLUSTER_SWITCH_HH_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/dispatch.hh"
#include "cluster/topology.hh"
#include "net/packet.hh"
#include "net/wire.hh"
#include "resilience/breaker.hh"
#include "resilience/plan.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"
#include "sim/time.hh"

namespace nmapsim {

/** Static switch/fabric configuration. */
struct SwitchConfig
{
    /** Forwarding-fabric capacity in bits/s (shared by all flows per
     *  direction). */
    double fabricBandwidthBps = 40e9;
    /** Forwarding pipeline latency per traversal. */
    Tick fabricLatency = microseconds(2);
    /** Egress-port link rate in bits/s toward each host and the
     *  clients. */
    double portBandwidthBps = 10e9;
    /** Egress-port propagation (cable + PHY). */
    Tick portPropagation = microseconds(5);
    /** Egress-port queue bound in packets; 0 = unbounded. */
    std::size_t portQueueLimit = 0;

    /**
     * @name Failure detector (0 = disabled)
     * Every healthInterval the switch checks each host: a host with
     * work pending that has been *silent* (no response at all) for
     * longer than healthTimeout is ejected — its pending work is
     * written off and new requests are steered around it — and
     * optimistically readmitted ejectDuration later. Silence, not
     * per-request age, is the signal, so a lossy-but-alive host that
     * keeps answering most requests is never ejected.
     */
    /**@{*/
    Tick healthInterval = 0; //!< detector tick period; 0 disables
    Tick healthTimeout = 0;  //!< silence threshold with work pending
    Tick ejectDuration = 0;  //!< how long an ejection lasts
    /**@}*/

    /** fatal() unless both bandwidths are positive and the failure
     *  detector is off or fully set. */
    void validate() const;

    bool operator==(const SwitchConfig &) const = default;
};

/**
 * The switch's whole-switch counts, under the names ClusterResult
 * reports them (ClusterResult derives from this struct).
 */
struct SwitchCounters
{
    /** @name Conservation accounting */
    /**@{*/
    std::uint64_t requestsForwarded = 0; //!< switch -> hosts
    std::uint64_t responsesReturned = 0; //!< hosts -> switch
    std::uint64_t switchPortDrops = 0;   //!< egress-port queue drops
    /**@}*/

    /** @name Failure detector (all zero without one) */
    /**@{*/
    std::uint64_t ejections = 0;     //!< failure-detector ejections
    /** Requests steered away from their policy-picked host (ejected,
     *  or behind an open breaker). */
    std::uint64_t requestsRerouted = 0;
    std::uint64_t lateResponses = 0; //!< from written-off hosts
    /**@}*/

    /** @name Resilience accounting (all zero without a
     *  `resilience.*` plan) */
    /**@{*/
    /** Past-deadline sheds at the fabric, before dispatch. */
    std::uint64_t switchDeadlineSheds = 0;
    /** Requests refused because a tier's breakers were all open. */
    std::uint64_t breakerShortCircuits = 0;
    /** Circuit-breaker state transitions across hosts. */
    std::uint64_t breakerTransitions = 0;
    /**@}*/

    /**
     * @name Byte classes and east-west traffic
     * Egress bytes toward the clients are split by class so
     * availability/goodput math never counts probe or east-west
     * traffic as served work.
     */
    /**@{*/
    std::uint64_t eastWestForwards = 0; //!< host->host re-dispatches
    std::uint64_t eastWestBytes = 0;    //!< east-west fabric bytes
    std::uint64_t goodputBytes = 0;     //!< response bytes to clients
    /** Probe/control-marked bytes wherever the switch sees them. */
    std::uint64_t controlBytes = 0;
    /**@}*/
};

/** The modeled switch: fabric, ports, dispatch, accounting. */
class ClusterSwitch
{
  public:
    /** Invoked for every response, with the host that served it, when
     *  the response leaves the fabric toward the client port. */
    using ResponseTap = std::function<void(int host, const Packet &)>;

    /** Invoked for every hop completion re-entering the switch from a
     *  host: the host and its dispatch-to-return hop latency. */
    using HopTap = std::function<void(int host, Tick hopLatency)>;

    /**
     * @param eq       simulation event queue
     * @param config   fabric/port model parameters
     * @param dispatch DispatchRegistry name of the steering policy
     * @param weights  per-host load weights, one per host
     * @param params   policy tunables ("dispatch.<knob>")
     * @param topology service tiers over the hosts, in host-id order;
     *                 an empty plan is one tier "all" of every host.
     *                 A tier naming no policy runs @p dispatch.
     */
    ClusterSwitch(EventQueue &eq, const SwitchConfig &config,
                  const std::string &dispatch,
                  std::vector<double> weights,
                  const PolicyParams &params,
                  const TopologyPlan &topology = {});

    ~ClusterSwitch();

    ClusterSwitch(const ClusterSwitch &) = delete;
    ClusterSwitch &operator=(const ClusterSwitch &) = delete;

    int numHosts() const { return static_cast<int>(hosts_.size()); }

    /** Egress port toward host @p id; sink it into the host's NIC. */
    Wire &downlink(int id) { return *state(id).downlink; }

    /** Egress port toward the clients; sink it into the client pool. */
    Wire &clientPort() { return clientPort_; }

    /** Ingress from the client side (sink of the client uplink). */
    void fromClient(const Packet &pkt);

    /** Ingress from host @p id (sink of the host's uplink). */
    void fromHost(int id, const Packet &pkt);

    /** Attach the per-host response tap (may be empty). */
    void setResponseTap(ResponseTap tap) { tap_ = std::move(tap); }

    /** Attach the per-hop completion tap (may be empty). */
    void setHopTap(HopTap tap) { hopTap_ = std::move(tap); }

    /**
     * Arm overload control from a validated plan: one circuit breaker
     * per (tier, host) driven by the outcome stream (a shed response
     * counts as a failure) plus the silence detector's ejections, and
     * deadline shedding for requests already past their budget when
     * they reach the fabric. Shed requests are answered straight to
     * the client port with a `rejected` control response. Nothing is
     * allocated when the plan wants neither. Call before traffic.
     */
    void enableResilience(const ResiliencePlan &plan);

    /** The resolved DispatchRegistry policy steering tier @p t. */
    const std::string &
    tierDispatch(int t) const
    {
        return tiers_[static_cast<std::size_t>(t)].dispatch;
    }

    /** The whole-switch totals. */
    SwitchCounters counters() const;

    /** @name Per-host accounting */
    /**@{*/
    /** Requests steered to @p id and accepted by its port. */
    std::uint64_t requestsForwarded(int id) const
    {
        return state(id).forwarded;
    }
    /** Responses received back from @p id. */
    std::uint64_t responsesReturned(int id) const
    {
        return state(id).responses;
    }
    /** East-west forwards received back from mid-chain @p id. */
    std::uint64_t forwardsReturned(int id) const
    {
        return state(id).forwards;
    }
    /** In-flight requests dispatched to @p id, not yet answered
     *  (requests written off at ejection no longer count). */
    std::uint64_t outstanding(int id) const
    {
        return state(id).pendingSince.size();
    }
    /** True while the detector has @p id ejected. */
    bool isEjected(int id) const { return state(id).ejected; }
    /** Times the detector ejected @p id. */
    std::uint64_t ejections(int id) const { return state(id).ejections; }
    /** Breaker state transitions for @p id's breaker (0 when
     *  resilience is off). */
    std::uint64_t
    breakerTransitions(int id) const
    {
        return breakers_.empty()
                   ? 0
                   : breakers_[static_cast<std::size_t>(id)]
                         .transitions();
    }
    /**@}*/

  private:
    /** Everything the switch tracks for one host. */
    struct HostState
    {
        std::unique_ptr<Wire> downlink; //!< egress port toward the host
        int tier = 0;                   //!< index into tiers_
        std::uint64_t forwarded = 0;    //!< requests its port accepted
        std::uint64_t responses = 0;    //!< responses returned
        std::uint64_t forwards = 0;     //!< east-west forwards returned
        /** Dispatch times of unanswered requests (count-FIFO: any
         *  response pops the oldest entry; the front is the oldest
         *  unmatched dispatch). */
        Ring<Tick> pendingSince;
        Tick lastResponseAt = 0; //!< last time it produced any response
        bool ejected = false;
        Tick readmitAt = 0;
        std::uint64_t ejections = 0;
    };

    /** One service tier: a contiguous run of host ids. */
    struct Tier
    {
        std::string name;     //!< tier label for diagnostics
        std::string dispatch; //!< resolved DispatchRegistry name
        int firstHost = 0;    //!< global id of the tier's first host
        int hosts = 0;        //!< host count (contiguous ids)
        /** Steering policy, picking tier-local host ids. */
        std::unique_ptr<DispatchPolicy> policy;
    };

    const HostState &state(int id) const
    {
        return hosts_[static_cast<std::size_t>(id)];
    }
    int numTiers() const { return static_cast<int>(tiers_.size()); }

    void forwardRequest(const Packet &pkt);
    void forwardResponse(const Packet &pkt);
    void rejectToClient(const Packet &pkt);
    void healthCheck();

    EventQueue &eq_;
    SwitchConfig config_;

    Wire ingressFabric_; //!< client->hosts direction of the fabric
    Wire egressFabric_;  //!< hosts->client direction of the fabric
    Wire clientPort_;    //!< egress port toward the clients
    std::vector<HostState> hosts_; //!< by global host id

    /** Tiers in request order; exactly one in single-tier mode. */
    std::vector<Tier> tiers_;
    ResponseTap tap_;
    HopTap hopTap_;

    /** The switch-wide counts; counters() adds the per-host, per-port
     *  and per-breaker sums. */
    SwitchCounters counts_;

    /** Per-host circuit breakers; empty when breakers are off. */
    std::vector<CircuitBreaker> breakers_;
    bool deadlineShedsEnabled_ = false;

    EventFunctionWrapper healthEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_CLUSTER_SWITCH_HH_
