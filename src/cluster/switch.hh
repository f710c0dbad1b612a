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
 * Requests are steered by a pluggable DispatchPolicy resolved by name
 * through the DispatchRegistry; the switch feeds the policy its live
 * per-host in-flight request counts (incremented at dispatch,
 * decremented when the host's response re-enters the switch). The
 * response path needs no policy: responses are forwarded to the client
 * port, and a per-host tap lets the harness attribute each served
 * response to the host that produced it (per-host latency feeds).
 *
 * Hosts may be composed into service tiers (SwitchTier): each tier
 * owns a contiguous host-id range and its own DispatchPolicy instance,
 * requests carry the destination tier in Packet::tier, and a mid-chain
 * host's completed request re-enters the ingress fabric east-west,
 * addressed to the next tier, instead of returning to the client. The
 * failure detector stays per-host but reroutes strictly within a tier.
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
    /** Forwarding-fabric capacity (shared by all flows per direction). */
    double fabricBandwidthBps = 40e9;
    /** Forwarding pipeline latency per traversal. */
    Tick fabricLatency = microseconds(2);
    /** Egress-port link rate toward each host and the clients. */
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

    /** fatal() unless the failure detector is off or fully set. */
    void validate() const;

    bool operator==(const SwitchConfig &) const = default;
};

/**
 * One contiguous run of host ids forming a service tier behind the
 * switch. An empty tier list means the classic single-tier cluster:
 * one dispatch policy over every host, no east-west traffic.
 */
struct SwitchTier
{
    std::string name;     //!< tier label for accounting
    int firstHost = 0;    //!< global id of the tier's first host
    int hosts = 0;        //!< host count (contiguous ids)
    std::string dispatch; //!< DispatchRegistry policy for this tier
};

/** The modeled switch: fabric, ports, dispatch, accounting. */
class ClusterSwitch
{
  public:
    /** Invoked for every response, with the host that served it, when
     *  the response leaves the fabric toward the client port. */
    using ResponseTap = std::function<void(int host, const Packet &)>;

    /** Invoked for every hop completion re-entering the switch from a
     *  host: the host, its tier, the dispatch-to-return hop latency,
     *  and whether the hop forwarded east-west (vs replied). */
    using HopTap =
        std::function<void(int host, int tier, Tick hopLatency,
                           bool forwarded)>;

    /**
     * @param eq       simulation event queue
     * @param config   fabric/port model parameters
     * @param dispatch DispatchRegistry name of the steering policy
     * @param weights  per-host load weights (empty = uniform)
     * @param params   policy tunables ("dispatch.<knob>")
     * @param tiers    service tiers over the hosts; empty = one tier
     *                 of all hosts running @p dispatch (the classic
     *                 single-tier path, preserved bit for bit)
     */
    ClusterSwitch(EventQueue &eq, const SwitchConfig &config,
                  const std::string &dispatch,
                  std::vector<double> weights,
                  const PolicyParams &params,
                  std::vector<SwitchTier> tiers = {});

    ~ClusterSwitch();

    ClusterSwitch(const ClusterSwitch &) = delete;
    ClusterSwitch &operator=(const ClusterSwitch &) = delete;

    int numHosts() const
    {
        return static_cast<int>(downlinks_.size());
    }

    /** Egress port toward host @p id; sink it into the host's NIC. */
    Wire &downlink(int id) { return *downlinks_[id]; }

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

    /** Tier 0's steering policy (the only one in single-tier mode). */
    const DispatchPolicy &dispatch() const { return *dispatchByTier_[0]; }

    /** @name Topology */
    /**@{*/
    int numTiers() const { return static_cast<int>(tiers_.size()); }
    bool multiTier() const { return tiers_.size() > 1; }
    const SwitchTier &tier(int t) const
    {
        return tiers_[static_cast<std::size_t>(t)];
    }
    int tierOfHost(int host) const
    {
        return hostTier_[static_cast<std::size_t>(host)];
    }
    /**@}*/

    /** @name Accounting */
    /**@{*/
    /** Requests steered to @p host (post-fabric, pre-port-queue). */
    std::uint64_t requestsForwarded(int host) const
    {
        return requestsForwarded_[host];
    }
    std::uint64_t
    totalRequestsForwarded() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : requestsForwarded_)
            sum += v;
        return sum;
    }
    /** Responses received back from @p host. */
    std::uint64_t responsesReturned(int host) const
    {
        return responsesReturned_[host];
    }
    std::uint64_t
    totalResponsesReturned() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : responsesReturned_)
            sum += v;
        return sum;
    }
    /** East-west forwards received back from mid-chain @p host. */
    std::uint64_t forwardsReturned(int host) const
    {
        return forwardsReturned_[static_cast<std::size_t>(host)];
    }
    std::uint64_t
    totalForwardsReturned() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : forwardsReturned_)
            sum += v;
        return sum;
    }

    /**
     * @name Byte-class accounting
     * Egress bytes toward the clients are split by class so
     * availability/goodput math never counts probe or east-west
     * traffic as served work: goodputBytes() is response payload
     * only, controlBytes() is probe/control-marked traffic wherever
     * the switch sees it, eastWestBytes() is host-to-host forwards
     * re-entering the fabric.
     */
    /**@{*/
    std::uint64_t goodputBytes() const { return goodputBytes_; }
    std::uint64_t controlBytes() const { return controlBytes_; }
    std::uint64_t eastWestBytes() const { return eastWestBytes_; }
    std::uint64_t eastWestForwards() const { return eastWestForwards_; }
    /**@}*/
    /** In-flight requests dispatched to @p host, not yet answered
     *  (requests written off at ejection no longer count). */
    std::uint64_t outstanding(int host) const
    {
        return pendingSince_[static_cast<std::size_t>(host)].size();
    }
    /** Egress-port queue overflow drops, all ports. */
    std::uint64_t portDrops() const;

    /** @name Failure-detector state and accounting */
    /**@{*/
    /** True while the detector has @p host ejected. */
    bool isEjected(int host) const
    {
        return ejected_[static_cast<std::size_t>(host)];
    }
    /** Times the detector ejected @p host. */
    std::uint64_t ejections(int host) const
    {
        return ejections_[static_cast<std::size_t>(host)];
    }
    std::uint64_t
    totalEjections() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : ejections_)
            sum += v;
        return sum;
    }
    /** Requests steered away from their policy-picked (ejected) host. */
    std::uint64_t requestsRerouted() const { return rerouted_; }
    /** Responses from hosts whose pending work was written off. */
    std::uint64_t lateResponses() const { return lateResponses_; }
    /**@}*/

    /** @name Resilience accounting (zero when resilience is off) */
    /**@{*/
    /** Breaker state transitions for @p host's breaker. */
    std::uint64_t
    breakerTransitions(int host) const
    {
        return breakers_.empty()
                   ? 0
                   : breakers_[static_cast<std::size_t>(host)]
                         .transitions();
    }
    std::uint64_t
    totalBreakerTransitions() const
    {
        std::uint64_t sum = 0;
        for (const CircuitBreaker &breaker : breakers_)
            sum += breaker.transitions();
        return sum;
    }
    /** Requests shed because a whole tier's breakers were open. */
    std::uint64_t breakerShortCircuits() const
    {
        return breakerShortCircuits_;
    }
    /** Requests shed at the fabric because their deadline had passed. */
    std::uint64_t deadlineSheds() const { return shedDeadline_; }
    /**@}*/
    /**@}*/

  private:
    void forwardRequest(const Packet &pkt);
    void forwardResponse(const Packet &pkt);
    void rejectToClient(const Packet &pkt);
    void healthCheck();
    int nextHealthyAfter(int host) const;

    EventQueue &eq_;
    SwitchConfig config_;

    Wire ingressFabric_; //!< client->hosts direction of the fabric
    Wire egressFabric_;  //!< hosts->client direction of the fabric
    Wire clientPort_;    //!< egress port toward the clients
    std::vector<std::unique_ptr<Wire>> downlinks_; //!< ports to hosts

    /** Tiers in request order; exactly one in single-tier mode. */
    std::vector<SwitchTier> tiers_;
    /** Tier index per global host id. */
    std::vector<int> hostTier_;
    /** One steering policy per tier, picking tier-local host ids. */
    std::vector<std::unique_ptr<DispatchPolicy>> dispatchByTier_;
    ResponseTap tap_;
    HopTap hopTap_;

    /** Host attribution for responses inside the egress fabric; the
     *  fabric wire is FIFO, so front() always names the host of the
     *  next response to leave it. */
    Ring<int> egressHosts_;

    std::vector<std::uint64_t> requestsForwarded_;
    std::vector<std::uint64_t> responsesReturned_;
    std::vector<std::uint64_t> forwardsReturned_;
    std::uint64_t goodputBytes_ = 0;
    std::uint64_t controlBytes_ = 0;
    std::uint64_t eastWestBytes_ = 0;
    std::uint64_t eastWestForwards_ = 0;

    /** Dispatch times of unanswered requests per host (count-FIFO:
     *  any response pops the oldest entry; the front is the oldest
     *  unmatched dispatch). */
    std::vector<Ring<Tick>> pendingSince_;
    /** Last time each host produced any response. */
    std::vector<Tick> lastResponseAt_;
    std::vector<bool> ejected_;
    std::vector<Tick> readmitAt_;
    std::vector<std::uint64_t> ejections_;
    std::uint64_t rerouted_ = 0;
    std::uint64_t lateResponses_ = 0;

    /** Per-host circuit breakers; empty when breakers are off. */
    std::vector<CircuitBreaker> breakers_;
    bool deadlineShedsEnabled_ = false;
    std::uint64_t breakerShortCircuits_ = 0;
    std::uint64_t shedDeadline_ = 0;

    EventFunctionWrapper healthEvent_;
};

} // namespace nmapsim

#endif // NMAPSIM_CLUSTER_SWITCH_HH_
