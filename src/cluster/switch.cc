#include "cluster/switch.hh"

#include "sim/logging.hh"

namespace nmapsim {
namespace {

/**
 * The first host after @p host, in the id order of its tier (@p hosts
 * ids from @p first) wrapping round, that @p usable accepts; -1 when
 * no tier-mate is usable. Failover stays tier-local: rerouting a cache
 * request to an app host would violate the forward-vs-reply contract.
 */
template <typename Usable>
int
usableMateAfter(int first, int hosts, int host, Usable usable)
{
    const int local = host - first;
    for (int step = 1; step < hosts; ++step) {
        const int candidate = first + (local + step) % hosts;
        if (usable(static_cast<std::size_t>(candidate)))
            return candidate;
    }
    return -1;
}

} // namespace

void
SwitchConfig::validate() const
{
    // Negated so NaN fails too.
    if (!(fabricBandwidthBps > 0.0))
        fatal("cluster.fabric_bandwidth must be > 0 bits/s");
    if (!(portBandwidthBps > 0.0))
        fatal("cluster.port_bandwidth must be > 0 bits/s");
    if (healthInterval > 0 && (healthTimeout <= 0 || ejectDuration <= 0))
        fatal("switch failure detector needs cluster.health_timeout "
              "and cluster.eject_duration when cluster.health_interval "
              "is set");
}

ClusterSwitch::ClusterSwitch(EventQueue &eq, const SwitchConfig &config,
                             const std::string &dispatch,
                             std::vector<double> weights,
                             const PolicyParams &params,
                             const TopologyPlan &topology)
    : eq_(eq), config_(config),
      ingressFabric_(eq, config.fabricBandwidthBps,
                     config.fabricLatency),
      egressFabric_(eq, config.fabricBandwidthBps,
                    config.fabricLatency),
      clientPort_(eq, config.portBandwidthBps, config.portPropagation),
      healthEvent_([this] { healthCheck(); }, "switch.health")
{
    const int num_hosts = static_cast<int>(weights.size());
    if (num_hosts < 1)
        fatal("ClusterSwitch requires at least one host weight");
    if (topology.enabled() && topology.totalHosts() != num_hosts)
        fatal("topology tiers must cover every host exactly once");
    config_.validate();

    ingressFabric_.setLabel("switch.fabric.ingress");
    egressFabric_.setLabel("switch.fabric.egress");
    clientPort_.setLabel("switch.port.clients");
    ingressFabric_.setSink(
        [this](const Packet &pkt) { forwardRequest(pkt); });
    egressFabric_.setSink(
        [this](const Packet &pkt) { forwardResponse(pkt); });
    clientPort_.setQueueLimit(config_.portQueueLimit);

    hosts_.resize(static_cast<std::size_t>(num_hosts));
    for (std::size_t id = 0; id < hosts_.size(); ++id) {
        std::unique_ptr<Wire> &port = hosts_[id].downlink;
        port = std::make_unique<Wire>(eq, config_.portBandwidthBps,
                                      config_.portPropagation);
        port->setLabel("switch.port.host" + std::to_string(id));
        port->setQueueLimit(config_.portQueueLimit);
    }

    // No declared topology = the classic cluster: one tier over all
    // hosts. A tier naming no policy runs the cluster-level one, which
    // sees tier-local host ids; the context closures translate to
    // global ids for live feedback.
    std::vector<TierSpec> specs = topology.tiers;
    if (specs.empty()) {
        TierSpec &all = specs.emplace_back();
        all.name = "all";
        all.hosts = num_hosts;
    }
    int base = 0;
    for (const TierSpec &spec : specs) {
        if (spec.hosts < 1 || base + spec.hosts > num_hosts)
            fatal("topology tiers must cover every host exactly once");
        Tier &tier = tiers_.emplace_back();
        tier.name = spec.name;
        tier.dispatch = spec.dispatch.empty() ? dispatch : spec.dispatch;
        tier.firstHost = base;
        tier.hosts = spec.hosts;
        for (int h = base; h < base + spec.hosts; ++h)
            hosts_[static_cast<std::size_t>(h)].tier = numTiers() - 1;
        DispatchContext ctx;
        ctx.numHosts = spec.hosts;
        ctx.weights.assign(weights.begin() + base,
                           weights.begin() + base + spec.hosts);
        ctx.params = params;
        ctx.outstanding = [this, base](int host) {
            return outstanding(base + host);
        };
        if (config_.healthInterval > 0) {
            ctx.healthy = [this, base](int host) {
                return !isEjected(base + host);
            };
        }
        tier.policy = DispatchRegistry::instance().make(tier.dispatch, ctx);
        base += spec.hosts;
    }
    if (config_.healthInterval > 0)
        eq_.schedule(&healthEvent_, eq_.now() + config_.healthInterval);
}

ClusterSwitch::~ClusterSwitch()
{
    eq_.deschedule(&healthEvent_);
}

void
ClusterSwitch::enableResilience(const ResiliencePlan &plan)
{
    deadlineShedsEnabled_ = plan.wantsDeadline();
    if (plan.wantsBreakers()) {
        BreakerConfig breaker;
        breaker.window = plan.breakerWindow;
        breaker.threshold = plan.breakerThreshold;
        breaker.minVolume = plan.breakerMinVolume;
        breaker.openFor = plan.breakerOpen;
        breaker.trials = plan.breakerTrials;
        breakers_.assign(static_cast<std::size_t>(numHosts()),
                         CircuitBreaker(breaker));
    }
}

void
ClusterSwitch::fromClient(const Packet &pkt)
{
    if (pkt.kind != Packet::Kind::kRequest)
        panic("ClusterSwitch: non-request packet from the client side");
    if (pkt.control)
        counts_.controlBytes += pkt.sizeBytes;
    // Mid-chain entry (topology.tier<i>.clients) makes any declared
    // tier a legal client-side destination.
    if (pkt.tier >= numTiers())
        panic("ClusterSwitch: client request addressed to tier " +
              std::to_string(pkt.tier) + " of " +
              std::to_string(numTiers()));
    ingressFabric_.send(pkt);
}

void
ClusterSwitch::rejectToClient(const Packet &pkt)
{
    // Shed notice: response-shaped control traffic flagged rejected,
    // sent straight out the client port; it never visits a host.
    Packet resp;
    resp.requestId = pkt.requestId;
    resp.kind = Packet::Kind::kResponse;
    resp.flowHash = pkt.flowHash;
    resp.sizeBytes = 64;
    resp.sendTime = pkt.sendTime;
    resp.latencyCritical = pkt.latencyCritical;
    resp.tier = pkt.tier;
    resp.hops = pkt.hops;
    resp.hopStart = pkt.hopStart;
    resp.deadline = pkt.deadline;
    resp.control = true;
    resp.rejected = true;
    counts_.controlBytes += resp.sizeBytes;
    clientPort_.send(resp);
}

void
ClusterSwitch::forwardRequest(const Packet &pkt)
{
    const int t = pkt.tier;
    if (t >= numTiers())
        panic("ClusterSwitch: request addressed to tier " +
              std::to_string(t) + " of " + std::to_string(numTiers()));
    const Tier &tier = tiers_[static_cast<std::size_t>(t)];
    if (deadlineShedsEnabled_ && pkt.deadline > 0 &&
        eq_.now() > pkt.deadline) {
        // Past-deadline work is dead on arrival at every hop: shed it
        // here instead of burning a host's cycles on it.
        ++counts_.switchDeadlineSheds;
        rejectToClient(pkt);
        return;
    }
    const int local = tier.policy->pickHost(pkt);
    if (local < 0 || local >= tier.hosts)
        panic("dispatch policy '" + tier.policy->name() +
              "' picked host " + std::to_string(local) + " of " +
              std::to_string(tier.hosts) + " in tier '" + tier.name +
              "'");
    const Tick now = eq_.now();
    const auto healthy = [this](std::size_t h) {
        return !hosts_[h].ejected;
    };
    int host = tier.firstHost + local;
    if (!healthy(static_cast<std::size_t>(host))) {
        // Affinity policies keep hashing to the ejected host; steer
        // deterministically to the next healthy id so their flows come
        // back unchanged after readmission. With the whole tier
        // ejected, deliver to the pick and let client retries cope.
        const int alt =
            usableMateAfter(tier.firstHost, tier.hosts, host, healthy);
        if (alt >= 0) {
            host = alt;
            ++counts_.requestsRerouted;
        }
    }
    if (!breakers_.empty() &&
        !breakers_[static_cast<std::size_t>(host)].allow(now)) {
        // Open breaker: steer to a healthy tier-mate whose breaker
        // admits traffic; with the whole tier dark, short-circuit to
        // the client instead of feeding a known-bad backend.
        const int alt = usableMateAfter(
            tier.firstHost, tier.hosts, host,
            [this, &healthy, now](std::size_t h) {
                return healthy(h) && breakers_[h].wouldAllow(now);
            });
        if (alt < 0) {
            ++counts_.breakerShortCircuits;
            rejectToClient(pkt);
            return;
        }
        breakers_[static_cast<std::size_t>(alt)].allow(now);
        host = alt;
        ++counts_.requestsRerouted;
    }
    Packet out = pkt;
    out.hopStart = now; // per-hop latency stamp
    HostState &dest = hosts_[static_cast<std::size_t>(host)];
    // Only requests the port accepts count as forwarded, so
    // outstanding() tracks live work, not drops (queue overflow,
    // injected loss or a downed link).
    if (dest.downlink->send(out)) {
        ++dest.forwarded;
        dest.pendingSince.push_back(now);
    }
}

void
ClusterSwitch::fromHost(int id, const Packet &pkt)
{
    HostState &host = hosts_[static_cast<std::size_t>(id)];
    const int t = host.tier;
    const bool last_tier = t == numTiers() - 1;
    const bool forwarded = pkt.kind == Packet::Kind::kRequest;
    if (forwarded && last_tier)
        panic("ClusterSwitch: non-response packet from host " +
              std::to_string(id));
    // A shed notice is a legal reply from any tier; only real results
    // from mid-chain hosts break the forward-vs-reply contract.
    if (!forwarded && !last_tier && !pkt.rejected)
        panic("ClusterSwitch: mid-chain host " + std::to_string(id) +
              " in tier '" +
              tiers_[static_cast<std::size_t>(t)].name +
              "' replied instead of forwarding");
    if (pkt.control)
        counts_.controlBytes += pkt.sizeBytes;
    if (forwarded)
        ++host.forwards;
    else
        ++host.responses;
    host.lastResponseAt = eq_.now();
    if (host.pendingSince.empty()) {
        // The matching dispatch record was written off at ejection;
        // the completion is still real, so it flows onward.
        ++counts_.lateResponses;
    } else {
        host.pendingSince.pop_front();
    }
    if (!breakers_.empty()) {
        // A response that took longer than the fabric's health timeout
        // is as bad as a shed notice to its caller — the client gave up
        // long ago — so it counts as a failure in the breaker window
        // even though the host technically answered. Without this, a
        // drowning-but-alive host never trips its breaker (the outcome
        // stream shows only successes) and the switch keeps steering a
        // dead sibling's share onto it.
        const bool slow = config_.healthTimeout > 0 &&
                          eq_.now() - pkt.hopStart >
                              config_.healthTimeout;
        breakers_[static_cast<std::size_t>(id)].onOutcome(
            eq_.now(), pkt.rejected || slow);
    }
    // Sheds answer instantly; keeping them out of the hop-latency
    // feed stops them from masking a slow tier's real hop tail.
    if (hopTap_ && !pkt.rejected)
        hopTap_(id, eq_.now() - pkt.hopStart);
    if (forwarded) {
        // East-west: the completed request re-enters the shared
        // ingress fabric addressed to the next tier, contending with
        // client traffic for switching capacity like any other flow.
        Packet fwd = pkt;
        fwd.tier = static_cast<std::uint8_t>(t + 1);
        fwd.hops = static_cast<std::uint8_t>(pkt.hops + 1);
        ++counts_.eastWestForwards;
        counts_.eastWestBytes += pkt.sizeBytes;
        ingressFabric_.send(fwd);
        return;
    }
    Packet resp = pkt;
    resp.servingHost = id;
    egressFabric_.send(resp);
}

void
ClusterSwitch::forwardResponse(const Packet &pkt)
{
    if (pkt.control)
        counts_.controlBytes += pkt.sizeBytes;
    else
        counts_.goodputBytes += pkt.sizeBytes;
    // Shed notices bypass the tap: per-host latency attribution is
    // for served responses only.
    if (tap_ && !pkt.rejected)
        tap_(pkt.servingHost, pkt);
    clientPort_.send(pkt);
}

void
ClusterSwitch::healthCheck()
{
    const Tick now = eq_.now();
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
        HostState &host = hosts_[h];
        if (host.ejected) {
            // Optimistic, time-based readmission: the host gets
            // traffic again and must re-earn an ejection if it is
            // still down.
            if (now >= host.readmitAt)
                host.ejected = false;
            continue;
        }
        if (host.pendingSince.empty())
            continue; // idle hosts are unjudgeable, never ejected
        const Tick oldest = host.pendingSince.front();
        const bool work_overdue =
            now - oldest > config_.healthTimeout;
        const bool silent =
            now - std::max(host.lastResponseAt, oldest) >
            config_.healthTimeout;
        if (work_overdue && silent) {
            host.ejected = true;
            host.readmitAt = now + config_.ejectDuration;
            ++host.ejections;
            // Write the pending work off: the client side will
            // surface it as timeouts; keeping it would freeze
            // queue-feedback policies on a stale backlog forever.
            host.pendingSince.clear();
            // Silence is a failure signal the outcome stream never
            // sees; force the breaker open so readmission probes the
            // host instead of flooding it.
            if (!breakers_.empty())
                breakers_[h].forceOpen(now);
        }
    }
    eq_.schedule(&healthEvent_, now + config_.healthInterval);
}

SwitchCounters
ClusterSwitch::counters() const
{
    SwitchCounters c = counts_;
    c.switchPortDrops = clientPort_.packetsDropped();
    for (const HostState &host : hosts_) {
        c.requestsForwarded += host.forwarded;
        c.responsesReturned += host.responses;
        c.ejections += host.ejections;
        c.switchPortDrops += host.downlink->packetsDropped();
    }
    for (const CircuitBreaker &breaker : breakers_)
        c.breakerTransitions += breaker.transitions();
    return c;
}

} // namespace nmapsim
