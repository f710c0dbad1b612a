#include "harness/cluster.hh"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/dispatch.hh"
#include "fault/injector.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/client.hh"
#include "workload/loadgen.hh"
#include "workload/server_app.hh"

namespace nmapsim {

namespace {

/**
 * One server host behind the switch: a ServerRig plus what the cluster
 * wires around it. The uplink carries the host's traffic back into the
 * switch. The feedback client never sends; it records the latency of
 * the responses the switch attributes to this host, which gives
 * per-host latency and the client feed policies like Parties need.
 * Members are built in declaration order, which is the host's Rng fork
 * order: cores, then the app.
 */
struct Host
{
    Host(EventQueue &eq, const ExperimentConfig &config, Rng host_rng,
         const SwitchConfig &fabric, int id)
        : rng(std::move(host_rng)),
          uplink(eq, fabric.portBandwidthBps, fabric.portPropagation),
          rig(eq, config, rng, uplink),
          app(rig.os(), rig.nic(), config.app, rng.fork()),
          feedback(eq, uplink, config.app, /*num_connections=*/1)
    {
        uplink.setLabel("host" + std::to_string(id) + ".uplink");
    }

    Rng rng;
    Wire uplink; //!< host -> switch
    ServerRig rig;
    ServerApp app;
    Client feedback;
};

} // namespace

void
requireHostOverlayKey(int host, const std::string &key)
{
    const std::string name = "host" + std::to_string(host) + "." + key;
    const std::size_t dot = key.find('.');
    if (dot == std::string::npos || dot == 0)
        fatal("unknown per-host config key '" + name +
              "' (use freq_policy, idle_policy, weight or a dotted "
              "params key)");
    const std::string ns = key.substr(0, dot + 1);
    bool banned = RunPlan::owns(key);
    for (const char *run_wide :
         {"gov.", "burst.", "os.", "nic.", "cluster.", "dispatch."})
        banned = banned || ns == run_wide;
    if (banned)
        fatal("config key '" + name + "': '" + ns +
              "*' keys cannot be overridden per host");
}

ClusterExperiment::ClusterExperiment(ClusterConfig config)
    : config_(std::move(config)),
      plan_(RunPlan::fromParams(config_.base.params))
{
    ensureBuiltinDispatchPolicies();

    // A declared topology owns the host count: tiers are contiguous
    // host-id ranges, so `hosts` (the count) is derived and per-host
    // override vectors must match the derived total.
    if (plan_.topology.enabled()) {
        config_.numHosts = plan_.topology.totalHosts();
        for (const TierSpec &tier : plan_.topology.tiers)
            if (!tier.dispatch.empty())
                DispatchRegistry::instance().require(
                    tier.dispatch,
                    " in topology tier '" + tier.name + "'");
    }

    if (config_.numHosts < 1)
        fatal("ClusterExperiment requires at least one host");
    if (!config_.hosts.empty() &&
        static_cast<int>(config_.hosts.size()) != config_.numHosts)
        fatal("ClusterConfig::hosts must be empty or name every host");
    for (std::size_t id = 0; id < config_.hosts.size(); ++id)
        if (!(config_.hosts[id].weight > 0.0 &&
              std::isfinite(config_.hosts[id].weight)))
            fatal("host" + std::to_string(id) +
                  ".weight must be positive and finite");
    if (config_.clientGroups < 1)
        fatal("ClusterExperiment requires at least one client group");
    if (config_.base.duration <= 0)
        fatal("ClusterExperiment duration must be positive");
    if (config_.base.warmup < 0 || config_.drain < 0)
        fatal("ClusterExperiment warmup and drain must be >= 0");
    validateLoad(config_.base);
    if (!config_.base.loadSchedule.empty() ||
        !config_.base.extraObservers.empty() ||
        !config_.base.colocated.empty())
        fatal("ClusterExperiment does not support load schedules, "
              "extra observers or colocated tenants");
    if (config_.base.collectTraces || config_.base.collectLatencyTrace)
        fatal("ClusterExperiment does not collect traces "
              "(collect_traces, collect_latency_trace)");
    DispatchRegistry::instance().require(config_.dispatch);
    config_.fabric.validate();

    if (plan_.fault.flapHost >= config_.numHosts)
        fatal("fault.flap_host out of range");
    for (int crash_host : plan_.fault.crashHosts)
        if (crash_host >= config_.numHosts)
            fatal("fault.crash_host out of range");

    // Resolve every host's configuration (base, then the tier's, then
    // the host's overrides) and validate it as a server, once. The run
    // wires the run-scoped plans, so no host config carries their keys.
    for (int id = 0; id < config_.numHosts; ++id) {
        ExperimentConfig cfg = config_.base;
        cfg.params = {};
        for (const auto &[key, value] : config_.base.params)
            if (!RunPlan::owns(key))
                cfg.params.set(key, value);
        if (plan_.topology.enabled()) {
            const TierSpec &tier =
                plan_.topology.tiers[static_cast<std::size_t>(
                    plan_.topology.tierOf(id))];
            if (!tier.freqPolicy.empty())
                cfg.freqPolicy = tier.freqPolicy;
            if (!tier.idlePolicy.empty())
                cfg.idlePolicy = tier.idlePolicy;
        }
        if (!config_.hosts.empty()) {
            const HostSpec &spec =
                config_.hosts[static_cast<std::size_t>(id)];
            if (!spec.freqPolicy.empty())
                cfg.freqPolicy = spec.freqPolicy;
            if (!spec.idlePolicy.empty())
                cfg.idlePolicy = spec.idlePolicy;
            for (const auto &[key, value] : spec.params) {
                requireHostOverlayKey(id, key);
                cfg.params.set(key, value);
            }
        }
        hostDataplanes_.push_back(ServerRig::validate(cfg));
        hostConfigs_.push_back(std::move(cfg));
    }
}

std::vector<double>
ClusterExperiment::hostWeights() const
{
    std::vector<double> weights(
        static_cast<std::size_t>(config_.numHosts), 1.0);
    for (std::size_t i = 0; i < config_.hosts.size(); ++i)
        weights[i] = config_.hosts[i].weight;
    return weights;
}

std::vector<SwitchTier>
ClusterExperiment::switchTiers() const
{
    std::vector<SwitchTier> tiers;
    for (int t = 0; t < plan_.topology.numTiers(); ++t) {
        const TierSpec &tier =
            plan_.topology.tiers[static_cast<std::size_t>(t)];
        tiers.push_back(SwitchTier{tier.name,
                                   plan_.topology.firstHostOf(t),
                                   tier.hosts, tier.dispatch});
    }
    return tiers;
}

Tick
ClusterExperiment::tierSlo(int tier) const
{
    const TierSpec &spec =
        plan_.topology.tiers[static_cast<std::size_t>(tier)];
    if (spec.slo > 0)
        return spec.slo;
    // Default: an even split of the end-to-end latency budget.
    return config_.base.app.slo / plan_.topology.numTiers();
}

ClusterResult
ClusterExperiment::run()
{
    EventQueue eq;
    Rng rng(config_.base.seed);
    const TopologyPlan &topology = plan_.topology;

    // --- Switch -------------------------------------------------------
    ClusterSwitch sw(eq, config_.fabric, config_.dispatch, hostWeights(),
                     config_.base.params, switchTiers());

    // Resilience plan (overload control). A disabled plan arms nothing
    // anywhere and keeps the run byte-identical; the subsystem forks no
    // random stream, so enabling it perturbs no other component's
    // stream either.
    sw.enableResilience(plan_.resilience);

    // --- Hosts --------------------------------------------------------
    // Each host takes its own fork of the master stream, in id order.
    // Offline NMAP profiling is a pure function of the host config, so
    // hosts with equal configs share one pass.
    std::vector<std::unique_ptr<Host>> hosts;
    std::vector<
        std::pair<const ExperimentConfig *, std::pair<double, double>>>
        profiles;
    for (int id = 0; id < config_.numHosts; ++id) {
        const ExperimentConfig &cfg = hostConfig(id);
        hosts.push_back(std::make_unique<Host>(eq, cfg, rng.fork(),
                                               config_.fabric, id));
        Host &host = *hosts.back();
        host.rig.attachPolicies(
            host.rng, hostDataplanes_[static_cast<std::size_t>(id)],
            &host.feedback, [&cfg, &profiles] {
                for (const auto &[seen, thresholds] : profiles)
                    if (*seen == cfg)
                        return thresholds;
                profiles.emplace_back(&cfg,
                                      Experiment::profileThresholds(cfg));
                return profiles.back().second;
            });
        sw.downlink(id).setSink(
            [&nic = host.rig.nic()](const Packet &pkt) {
                nic.receive(pkt);
            });
        host.uplink.setSink(
            [&sw, id](const Packet &pkt) { sw.fromHost(id, pkt); });
        if (topology.enabled()) {
            // Every tier but the last forwards east-west.
            const int t = topology.tierOf(id);
            host.app.setForwardDownstream(t < topology.numTiers() - 1);
            host.app.setServiceScale(
                topology.tiers[static_cast<std::size_t>(t)]
                    .serviceScale);
        }
        host.app.setResilience(plan_.resilience);
    }
    sw.setResponseTap([&hosts, &eq](int host, const Packet &pkt) {
        hosts[static_cast<std::size_t>(host)]->feedback.onResponse(
            pkt, eq.now());
    });

    // Per-host hop-latency recorders, fed by the switch's hop tap
    // (dispatch to return, covering queueing + service on the host).
    // A tier's statistics read its hosts' recorders as one set.
    std::vector<LatencyRecorder> hop_lat(
        static_cast<std::size_t>(config_.numHosts));
    if (topology.enabled()) {
        sw.setHopTap([&hop_lat, &eq](int host, int tier, Tick hop,
                                     bool forwarded) {
            (void)tier;
            (void)forwarded;
            hop_lat[static_cast<std::size_t>(host)].record(eq.now(),
                                                           hop);
        });
    }

    // --- Client groups ------------------------------------------------
    Wire client_uplink(eq, config_.fabric.portBandwidthBps,
                       config_.fabric.portPropagation);
    client_uplink.setLabel("clients.uplink");
    client_uplink.setSink(
        [&sw](const Packet &pkt) { sw.fromClient(pkt); });

    struct Group
    {
        std::unique_ptr<Client> client;
        std::unique_ptr<LoadGenerator> gen;
    };
    std::vector<Group> groups;
    auto addGroup = [&](int entry_tier) {
        Group group;
        group.client = std::make_unique<Client>(
            eq, client_uplink, config_.base.app,
            config_.base.numConnections,
            static_cast<std::uint32_t>(groups.size()) *
                kFlowSpaceStride);
        if (entry_tier > 0)
            group.client->setEntryTier(entry_tier);
        plan_.configure(*group.client);
        group.gen = std::make_unique<LoadGenerator>(
            eq, *group.client, config_.base.burst, rng.fork());
        groups.push_back(std::move(group));
    };
    for (int g = 0; g < config_.clientGroups; ++g)
        addGroup(0);
    // Mid-chain load: tiers may declare their own client groups
    // (topology.tier<i>.clients). Built after the front-door groups in
    // tier order, so flow spaces and Rng forks are stable and a
    // topology without tier clients stays byte-identical.
    for (int t = 0; t < topology.numTiers(); ++t) {
        const TierSpec &tier =
            topology.tiers[static_cast<std::size_t>(t)];
        for (int c = 0; c < tier.clients; ++c)
            addGroup(t);
    }

    std::vector<const Client *> clients;
    for (const Group &group : groups)
        clients.push_back(group.client.get());
    std::uint64_t stray = 0;
    connectResponses(sw.clientPort(), eq, plan_, clients,
                     [&groups, &stray](const Packet &pkt, Tick arrival) {
                         std::size_t idx = pkt.flowHash / kFlowSpaceStride;
                         if (idx < groups.size())
                             groups[idx].client->onResponse(pkt, arrival);
                         else
                             ++stray;
                     });

    // --- Load ---------------------------------------------------------
    const ExperimentConfig &base = config_.base;
    LoadLevelSpec spec = loadSpec(base.app, base.load, base.rpsOverride,
                                  base.trainMeanOverride, base.dutyOverride);
    // The configured rate is the cluster's offered load, split evenly
    // over every client group (front-door and mid-chain alike).
    spec.rps /= static_cast<double>(groups.size());

    // --- Fault injection ----------------------------------------------
    // Built after every pre-existing component so the injector's Rng
    // fork is the last one taken: a disabled plan leaves all other
    // streams untouched and the run byte-identical to a fault-free
    // build.
    std::unique_ptr<FaultInjector> injector;
    if (plan_.fault.enabled()) {
        injector = std::make_unique<FaultInjector>(eq, plan_.fault,
                                                   rng.fork());
        // Loss/corruption live on the host access links (switch port
        // down, host uplink up), in topology order.
        for (int id = 0; id < config_.numHosts; ++id) {
            injector->addLossyWire(sw.downlink(id));
            injector->addLossyWire(
                hosts[static_cast<std::size_t>(id)]->uplink);
        }
        if (plan_.fault.wantsFlap()) {
            std::vector<Wire *> flapping;
            for (int id = 0; id < config_.numHosts; ++id) {
                if (plan_.fault.flapHost >= 0 && plan_.fault.flapHost != id)
                    continue;
                flapping.push_back(&sw.downlink(id));
                flapping.push_back(
                    &hosts[static_cast<std::size_t>(id)]->uplink);
            }
            injector->addFlapGroup(std::move(flapping));
        }
        if (plan_.fault.wantsRingDegrade())
            for (std::unique_ptr<Host> &host : hosts)
                injector->addDegradableNic(host->rig.nic());
        for (int crash_host : plan_.fault.crashHosts) {
            // Fail-stop from the network's point of view: both access
            // links go dark; the host itself keeps simulating (its
            // power draw during the outage is part of the result).
            Wire *down_link = &sw.downlink(crash_host);
            Wire *up_link =
                &hosts[static_cast<std::size_t>(crash_host)]->uplink;
            injector->trackWire(*down_link);
            injector->trackWire(*up_link);
            injector->scheduleCrash(
                [down_link, up_link] {
                    down_link->setLinkDown(true);
                    up_link->setLinkDown(true);
                },
                [down_link, up_link] {
                    down_link->setLinkDown(false);
                    up_link->setLinkDown(false);
                });
        }
    }

    // --- Run ----------------------------------------------------------
    for (std::unique_ptr<Host> &host : hosts)
        host->rig.start();
    for (Group &group : groups) {
        group.gen->setConnectionSkew(config_.base.connectionSkew);
        group.gen->setLoad(spec);
        group.gen->start();
    }

    eq.runUntil(config_.base.warmup);
    sw.clientPort().drain();
    Tick measure_start = eq.now();
    for (std::unique_ptr<Host> &host : hosts) {
        host->rig.beginMeasurement(measure_start);
        host->feedback.latencies().clear();
    }
    for (Group &group : groups) {
        group.client->latencies().clear();
        group.client->attemptLatencies().clear();
    }
    for (LatencyRecorder &rec : hop_lat)
        rec.clear();

    Tick end = config_.base.warmup + config_.base.duration;
    eq.runUntil(end);
    for (Group &group : groups)
        group.gen->stop();

    Tick sim_end = end + config_.drain;
    eq.runUntil(sim_end);
    sw.clientPort().drain();

    // --- Collect ------------------------------------------------------
    ClusterResult result;
    LatencySet latencies;
    LatencySet attempts;
    for (Group &group : groups) {
        latencies.add(group.client->latencies());
        attempts.add(group.client->attemptLatencies());
    }
    result.collect(clients, latencies, attempts, config_.base.app.slo,
                   injector.get(), plan_);

    result.requestsForwarded = sw.totalRequestsForwarded();
    result.responsesReturned = sw.totalResponsesReturned();
    result.switchPortDrops = sw.portDrops();
    result.strayResponses = stray;
    result.ejections = sw.totalEjections();
    result.requestsRerouted = sw.requestsRerouted();
    result.lateResponses = sw.lateResponses();
    result.switchDeadlineSheds = sw.deadlineSheds();
    result.breakerShortCircuits = sw.breakerShortCircuits();
    result.breakerTransitions = sw.totalBreakerTransitions();
    result.goodputRps =
        static_cast<double>(result.responsesReceived) /
        toSeconds(sim_end);

    for (int id = 0; id < config_.numHosts; ++id) {
        Host &host = *hosts[static_cast<std::size_t>(id)];
        const ExperimentConfig &cfg = hostConfig(id);
        ClusterHostResult hr;
        host.rig.collect(sim_end, hr);
        hr.id = id;
        hr.freqPolicy = cfg.freqPolicy;
        hr.idlePolicy = cfg.idlePolicy;
        hr.forwarded = host.app.requestsForwarded();
        const LatencyRecorder &lat = host.feedback.latencies();
        hr.served = host.feedback.responsesReceived();
        hr.p50 = lat.percentile(50.0);
        hr.p99 = lat.percentile(99.0);
        hr.ejections = sw.ejections(id);
        if (plan_.resilience.enabled()) {
            hr.shedAdmission = host.app.shedAdmission();
            hr.shedSojourn = host.app.shedSojourn();
            hr.shedDeadline = host.app.shedDeadline();
            hr.breakerTransitions = sw.breakerTransitions(id);
            result.shedAdmission += hr.shedAdmission;
            result.shedSojourn += hr.shedSojourn;
            result.shedDeadline += hr.shedDeadline;
        }
        if (topology.enabled()) {
            hr.tier = topology.tierOf(id);
            hr.tierName =
                topology.tiers[static_cast<std::size_t>(hr.tier)].name;
            const LatencyRecorder &hop =
                hop_lat[static_cast<std::size_t>(id)];
            hr.hopsCompleted = hop.count();
            hr.hopP50 = hop.percentile(50.0);
            hr.hopP99 = hop.percentile(99.0);
        }
        result.energyJoules += hr.energyJoules;
        result.hostNicDrops += hr.nicDrops;
        result.hosts.push_back(std::move(hr));
    }
    result.avgPowerWatts =
        result.energyJoules / toSeconds(sim_end - measure_start);

    // --- Per-tier SLO attribution -------------------------------------
    if (topology.enabled()) {
        result.eastWestForwards = sw.eastWestForwards();
        result.eastWestBytes = sw.eastWestBytes();
        result.goodputBytes = sw.goodputBytes();
        result.controlBytes = sw.controlBytes();
        for (int t = 0; t < topology.numTiers(); ++t) {
            const TierSpec &tier =
                topology.tiers[static_cast<std::size_t>(t)];
            ClusterTierResult tr;
            tr.tier = t;
            tr.name = tier.name;
            tr.firstHost = topology.firstHostOf(t);
            tr.hosts = tier.hosts;
            tr.dispatch = sw.tier(t).dispatch;
            tr.slo = tierSlo(t);
            LatencySet tier_hops;
            for (int id = tr.firstHost; id < tr.firstHost + tr.hosts;
                 ++id) {
                const auto h = static_cast<std::size_t>(id);
                tier_hops.add(hop_lat[h]);
                tr.forwards += sw.forwardsReturned(id);
                tr.energyJoules += result.hosts[h].energyJoules;
            }
            tr.completions = tier_hops.count();
            tr.hopP50 = tier_hops.percentile(50.0);
            tr.hopP99 = tier_hops.percentile(99.0);
            tr.hopMax = tier_hops.max();
            tr.meanHop = tier_hops.mean();
            tr.fracOverSlo = tier_hops.fractionAbove(tr.slo);
            result.hopP99Sum += tr.hopP99;
            result.tiers.push_back(std::move(tr));
        }
        // Which tier owns the chain tail: each hop p99 as a share of
        // the summed per-tier hop p99s.
        for (ClusterTierResult &tr : result.tiers) {
            tr.p99Share =
                result.hopP99Sum == 0
                    ? 0.0
                    : static_cast<double>(tr.hopP99) /
                          static_cast<double>(result.hopP99Sum);
        }
    }

    result.eventsProcessed = eq.numProcessed();

    return result;
}

} // namespace nmapsim
