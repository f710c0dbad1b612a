#include "cluster/switch.hh"

#include "sim/logging.hh"

namespace nmapsim {

void
SwitchConfig::validate() const
{
    if (healthInterval > 0 && (healthTimeout <= 0 || ejectDuration <= 0))
        fatal("switch failure detector needs cluster.health_timeout "
              "and cluster.eject_duration when cluster.health_interval "
              "is set");
}

ClusterSwitch::ClusterSwitch(EventQueue &eq, const SwitchConfig &config,
                             const std::string &dispatch,
                             std::vector<double> weights,
                             const PolicyParams &params,
                             std::vector<SwitchTier> tiers)
    : eq_(eq), config_(config),
      ingressFabric_(eq, config.fabricBandwidthBps,
                     config.fabricLatency),
      egressFabric_(eq, config.fabricBandwidthBps,
                    config.fabricLatency),
      clientPort_(eq, config.portBandwidthBps, config.portPropagation),
      healthEvent_([this] { healthCheck(); }, "switch.health")
{
    ensureBuiltinDispatchPolicies();
    const int num_hosts = static_cast<int>(
        weights.empty() ? 0 : weights.size());
    if (num_hosts < 1)
        fatal("ClusterSwitch requires at least one host weight");
    config_.validate();

    ingressFabric_.setLabel("switch.fabric.ingress");
    egressFabric_.setLabel("switch.fabric.egress");
    clientPort_.setLabel("switch.port.clients");
    ingressFabric_.setSink(
        [this](const Packet &pkt) { forwardRequest(pkt); });
    egressFabric_.setSink(
        [this](const Packet &pkt) { forwardResponse(pkt); });
    clientPort_.setQueueLimit(config_.portQueueLimit);

    for (int id = 0; id < num_hosts; ++id) {
        downlinks_.push_back(std::make_unique<Wire>(
            eq, config_.portBandwidthBps, config_.portPropagation));
        downlinks_.back()->setLabel("switch.port.host" +
                                    std::to_string(id));
        downlinks_.back()->setQueueLimit(config_.portQueueLimit);
    }
    requestsForwarded_.assign(static_cast<std::size_t>(num_hosts), 0);
    responsesReturned_.assign(static_cast<std::size_t>(num_hosts), 0);
    forwardsReturned_.assign(static_cast<std::size_t>(num_hosts), 0);
    pendingSince_.assign(static_cast<std::size_t>(num_hosts), Ring<Tick>());
    lastResponseAt_.assign(static_cast<std::size_t>(num_hosts), 0);
    ejected_.assign(static_cast<std::size_t>(num_hosts), false);
    readmitAt_.assign(static_cast<std::size_t>(num_hosts), 0);
    ejections_.assign(static_cast<std::size_t>(num_hosts), 0);

    // No declared topology = the classic cluster: one tier over all
    // hosts running the cluster-level dispatch policy.
    if (tiers.empty())
        tiers.push_back(SwitchTier{"all", 0, num_hosts, dispatch});
    tiers_ = std::move(tiers);
    hostTier_.assign(static_cast<std::size_t>(num_hosts), -1);
    int expected_first = 0;
    for (int t = 0; t < numTiers(); ++t) {
        SwitchTier &spec = tiers_[static_cast<std::size_t>(t)];
        if (spec.firstHost != expected_first || spec.hosts < 1)
            fatal("switch tiers must cover contiguous host ids");
        if (spec.dispatch.empty())
            spec.dispatch = dispatch;
        expected_first += spec.hosts;
        for (int h = spec.firstHost; h < spec.firstHost + spec.hosts;
             ++h)
            hostTier_[static_cast<std::size_t>(h)] = t;
    }
    if (expected_first != num_hosts)
        fatal("switch tiers must cover every host exactly once");

    // One policy instance per tier, seeing tier-local host ids; the
    // context closures translate to global ids for live feedback.
    for (int t = 0; t < numTiers(); ++t) {
        const SwitchTier &spec = tiers_[static_cast<std::size_t>(t)];
        const int base = spec.firstHost;
        DispatchContext ctx;
        ctx.numHosts = spec.hosts;
        ctx.weights.assign(
            weights.begin() + base,
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
        dispatchByTier_.push_back(
            DispatchRegistry::instance().make(spec.dispatch, ctx));
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
        controlBytes_ += pkt.sizeBytes;
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
    // sent straight out the client port — it never visits a host, so
    // it takes no egress-fabric attribution slot.
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
    controlBytes_ += resp.sizeBytes;
    clientPort_.send(resp);
}

void
ClusterSwitch::forwardRequest(const Packet &pkt)
{
    const int t = pkt.tier;
    if (t >= numTiers())
        panic("ClusterSwitch: request addressed to tier " +
              std::to_string(t) + " of " + std::to_string(numTiers()));
    const SwitchTier &spec = tiers_[static_cast<std::size_t>(t)];
    if (deadlineShedsEnabled_ && pkt.deadline > 0 &&
        eq_.now() > pkt.deadline) {
        // Past-deadline work is dead on arrival at every hop: shed it
        // here instead of burning a host's cycles on it.
        ++shedDeadline_;
        rejectToClient(pkt);
        return;
    }
    DispatchPolicy &policy =
        *dispatchByTier_[static_cast<std::size_t>(t)];
    const int local = policy.pickHost(pkt);
    if (local < 0 || local >= spec.hosts)
        panic("dispatch policy '" + policy.name() + "' picked host " +
              std::to_string(local) + " of " +
              std::to_string(spec.hosts) + " in tier '" + spec.name +
              "'");
    int host = spec.firstHost + local;
    if (ejected_[static_cast<std::size_t>(host)]) {
        // Affinity policies keep hashing to the ejected host; steer
        // deterministically to the next healthy id so their flows come
        // back unchanged after readmission.
        const int alt = nextHealthyAfter(host);
        if (alt >= 0) {
            host = alt;
            ++rerouted_;
        }
    }
    if (!breakers_.empty() &&
        !breakers_[static_cast<std::size_t>(host)].allow(eq_.now())) {
        // Open breaker: steer to a tier-mate whose breaker admits
        // traffic; with the whole tier dark, short-circuit to the
        // client instead of feeding a known-bad backend.
        const int local_pick = host - spec.firstHost;
        int alt = -1;
        for (int step = 1; step < spec.hosts; ++step) {
            const int candidate =
                spec.firstHost + (local_pick + step) % spec.hosts;
            if (!ejected_[static_cast<std::size_t>(candidate)] &&
                breakers_[static_cast<std::size_t>(candidate)]
                    .wouldAllow(eq_.now())) {
                alt = candidate;
                break;
            }
        }
        if (alt < 0) {
            ++breakerShortCircuits_;
            rejectToClient(pkt);
            return;
        }
        breakers_[static_cast<std::size_t>(alt)].allow(eq_.now());
        host = alt;
        ++rerouted_;
    }
    Packet out = pkt;
    out.hopStart = eq_.now(); // per-hop latency stamp
    Wire &port = *downlinks_[static_cast<std::size_t>(host)];
    const std::uint64_t lost_before = port.packetsDropped() +
                                      port.packetsFaultLost() +
                                      port.packetsLinkDownLost();
    port.send(out);
    // Only requests that actually made the port queue count as
    // forwarded, so outstanding() tracks live work, not drops (queue
    // overflow or injected faults).
    if (port.packetsDropped() + port.packetsFaultLost() +
            port.packetsLinkDownLost() ==
        lost_before) {
        ++requestsForwarded_[static_cast<std::size_t>(host)];
        pendingSince_[static_cast<std::size_t>(host)].push_back(
            eq_.now());
    }
}

void
ClusterSwitch::fromHost(int id, const Packet &pkt)
{
    const auto h = static_cast<std::size_t>(id);
    const int t = hostTier_[h];
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
        controlBytes_ += pkt.sizeBytes;
    if (forwarded)
        ++forwardsReturned_[h];
    else
        ++responsesReturned_[h];
    lastResponseAt_[h] = eq_.now();
    Ring<Tick> &pending = pendingSince_[h];
    if (pending.empty()) {
        // The matching dispatch record was written off at ejection;
        // the completion is still real, so it flows onward.
        ++lateResponses_;
    } else {
        pending.pop_front();
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
        breakers_[h].onOutcome(eq_.now(), pkt.rejected || slow);
    }
    // Sheds answer instantly; keeping them out of the hop-latency
    // feed stops them from masking a slow tier's real hop tail.
    if (hopTap_ && !pkt.rejected)
        hopTap_(id, t, eq_.now() - pkt.hopStart, forwarded);
    if (forwarded) {
        // East-west: the completed request re-enters the shared
        // ingress fabric addressed to the next tier, contending with
        // client traffic for switching capacity like any other flow.
        Packet fwd = pkt;
        fwd.tier = static_cast<std::uint8_t>(t + 1);
        fwd.hops = static_cast<std::uint8_t>(pkt.hops + 1);
        ++eastWestForwards_;
        eastWestBytes_ += pkt.sizeBytes;
        ingressFabric_.send(fwd);
        return;
    }
    egressHosts_.push_back(id);
    egressFabric_.send(pkt);
}

void
ClusterSwitch::forwardResponse(const Packet &pkt)
{
    // The fabric wire is FIFO and unbounded, so the ids queue stays in
    // lockstep with its deliveries.
    if (egressHosts_.empty())
        panic("ClusterSwitch: egress fabric delivered a response "
              "with no host attribution queued");
    const int host = egressHosts_.front();
    egressHosts_.pop_front();
    if (pkt.control)
        controlBytes_ += pkt.sizeBytes;
    else
        goodputBytes_ += pkt.sizeBytes;
    // Shed notices bypass the tap: per-host latency attribution is
    // for served responses only.
    if (tap_ && !pkt.rejected)
        tap_(host, pkt);
    clientPort_.send(pkt);
}

int
ClusterSwitch::nextHealthyAfter(int host) const
{
    // Failover stays tier-local: rerouting a cache request to an app
    // host would violate the forward-vs-reply contract.
    const SwitchTier &spec = tiers_[static_cast<std::size_t>(
        hostTier_[static_cast<std::size_t>(host)])];
    const int local = host - spec.firstHost;
    for (int step = 1; step < spec.hosts; ++step) {
        const int candidate =
            spec.firstHost + (local + step) % spec.hosts;
        if (!ejected_[static_cast<std::size_t>(candidate)])
            return candidate;
    }
    // Whole tier ejected: no healthy alternative, deliver to the
    // policy's pick and let the client's retry machinery cope.
    return -1;
}

void
ClusterSwitch::healthCheck()
{
    const Tick now = eq_.now();
    for (int host = 0; host < numHosts(); ++host) {
        const auto h = static_cast<std::size_t>(host);
        if (ejected_[h]) {
            // Optimistic, time-based readmission: the host gets
            // traffic again and must re-earn an ejection if it is
            // still down.
            if (now >= readmitAt_[h])
                ejected_[h] = false;
            continue;
        }
        if (pendingSince_[h].empty())
            continue; // idle hosts are unjudgeable, never ejected
        const Tick oldest = pendingSince_[h].front();
        const bool work_overdue =
            now - oldest > config_.healthTimeout;
        const bool silent =
            now - std::max(lastResponseAt_[h], oldest) >
            config_.healthTimeout;
        if (work_overdue && silent) {
            ejected_[h] = true;
            readmitAt_[h] = now + config_.ejectDuration;
            ++ejections_[h];
            // Write the pending work off: the client side will
            // surface it as timeouts; keeping it would freeze
            // queue-feedback policies on a stale backlog forever.
            pendingSince_[h].clear();
            // Silence is a failure signal the outcome stream never
            // sees; force the breaker open so readmission probes the
            // host instead of flooding it.
            if (!breakers_.empty())
                breakers_[h].forceOpen(now);
        }
    }
    eq_.schedule(&healthEvent_, now + config_.healthInterval);
}

std::uint64_t
ClusterSwitch::portDrops() const
{
    std::uint64_t drops = clientPort_.packetsDropped();
    for (const std::unique_ptr<Wire> &port : downlinks_)
        drops += port->packetsDropped();
    return drops;
}

} // namespace nmapsim
