#include "harness/experiment.hh"

#include <cmath>

#include "fault/injector.hh"
#include "net/wire.hh"
#include "nmap/profiler.hh"
#include "resilience/admission.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/server_app.hh"

namespace nmapsim {

LoadLevelSpec
loadSpec(const AppProfile &app, LoadLevel level, double rps_override,
         double train_mean_override, double duty_override)
{
    LoadLevelSpec spec = app.level(level);
    if (rps_override > 0.0)
        spec.rps = rps_override;
    if (train_mean_override > 0.0)
        spec.trainMean = train_mean_override;
    if (duty_override > 0.0)
        spec.duty = duty_override;
    return spec;
}

namespace {

/** Every tenant of @p config: its own workload first, then each
 *  colocated one. */
std::vector<TenantConfig>
tenantsOf(const ExperimentConfig &config)
{
    std::vector<TenantConfig> tenants{
        {config.app, config.load, config.rpsOverride, config.dutyOverride,
         config.trainMeanOverride, config.numConnections}};
    tenants.insert(tenants.end(), config.colocated.begin(),
                   config.colocated.end());
    return tenants;
}

} // namespace

void
validateLoad(const ExperimentConfig &config)
{
    if (config.burst.period <= 0)
        fatal("burst.period must be > 0");
    if (config.burst.onTime <= 0 || config.burst.onTime > config.burst.period)
        fatal("burst.on_time must be in (0, burst.period]");
    if (!(config.connectionSkew >= 0.0 &&
          std::isfinite(config.connectionSkew)))
        fatal("connection_skew must be finite and >= 0");
    if (config.colocated.size() > 7)
        fatal("at most 7 colocated tenants (colocated=" +
              std::to_string(config.colocated.size()) + ")");
    const std::vector<TenantConfig> tenants = tenantsOf(config);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantConfig &t = tenants[i];
        // Routing recovers a packet's tenant as flowHash /
        // kFlowSpaceStride, so a client's flows must fit one space.
        const std::string where =
            i == 0 ? "" : " (tenant " + std::to_string(i) + ")";
        if (t.numConnections < 1 ||
            t.numConnections >= static_cast<int>(kFlowSpaceStride))
            fatal("connections must be in [1, " +
                  std::to_string(kFlowSpaceStride - 1) + "] (connections=" +
                  std::to_string(t.numConnections) + ")" + where);
        if (!(t.rpsOverride >= 0.0))
            fatal("rps_override must be >= 0" + where);
        if (t.dutyOverride > 1.0)
            fatal("duty_override must be <= 1" + where);
        if (t.trainMeanOverride > 0.0 && t.trainMeanOverride < 1.0)
            fatal("train_mean_override must be >= 1" + where);
    }
}

RunPlan
RunPlan::fromParams(const PolicyParams &params)
{
    RunPlan plan{FaultPlan::fromParams(params),
                 ClientRetryPolicy::fromParams(params),
                 ResiliencePlan::fromParams(params),
                 TopologyPlan::fromParams(params)};
    if (plan.resilience.wantsRetryBudget() && !plan.retry.enabled())
        fatal("resilience.retry_budget requires client retry "
              "(client.timeout)");
    if (plan.resilience.wantsAdmission()) {
        AdmissionPolicyRegistry::instance().require(
            plan.resilience.admission);
    }
    return plan;
}

bool
RunPlan::owns(const std::string &key)
{
    for (const char *ns : {"fault.", "client.", "resilience.", "topology."})
        if (key.rfind(ns, 0) == 0)
            return true;
    return false;
}

void
RunPlan::configure(Client &client) const
{
    client.setRetryPolicy(retry);
    if (resilience.wantsRetryBudget())
        client.setRetryBudget(resilience.retryBudget, resilience.retryMin,
                              resilience.retryCap);
    client.setDeadlineBudget(resilience.deadline);
}

void
RunCounters::collect(const std::vector<const Client *> &clients,
                     const LatencySet &latencies,
                     const LatencySet &attempts, Tick run_slo,
                     const FaultInjector *injector, const RunPlan &plan)
{
    for (const Client *client : clients) {
        requestsSent += client->requestsSent();
        responsesReceived += client->responsesReceived();
        requestsTimedOut += client->requestsTimedOut();
        retransmits += client->retransmits();
        requestsInFlight += client->requestsInFlight();
        duplicateResponses += client->duplicateResponses();
        requestsShed += client->requestsShed();
        retryBudgetExhausted += client->retryBudgetExhausted();
    }
    slo = run_slo;
    p50 = latencies.percentile(50.0);
    p99 = latencies.percentile(99.0);
    maxLatency = latencies.max();
    meanLatency = latencies.mean();
    fracOverSlo = latencies.fractionAbove(slo);
    attemptP99 = attempts.percentile(99.0);
    if (injector) {
        faultPacketsLost = injector->packetsFaultLost();
        faultPacketsCorrupted = injector->packetsCorrupted();
        linkDownDrops = injector->packetsLinkDownLost();
    }
    availability = requestsSent == 0
                       ? 1.0
                       : static_cast<double>(responsesReceived) /
                             static_cast<double>(requestsSent);
    resilient = plan.resilience.enabled();
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), plan_(RunPlan::fromParams(config_.params)),
      dataplane_(ServerRig::validate(config_))
{
    if (config_.duration <= 0)
        fatal("Experiment duration must be positive");
    if (config_.warmup < 0)
        fatal("Experiment warmup must be >= 0");
    validateLoad(config_);
    if (config_.collectTraces) {
        if (config_.traceBucket <= 0)
            fatal("trace_bucket must be > 0");
        if (config_.watchCore < 0 || config_.watchCore >= config_.numCores)
            fatal("watch_core must name a core (watch_core=" +
                  std::to_string(config_.watchCore) +
                  ", cores=" + std::to_string(config_.numCores) + ")");
    }

    // Host-indexed faults, service topologies and circuit breakers only
    // exist behind the cluster switch.
    if (plan_.fault.wantsCrash())
        fatal("fault.crash_host requires a cluster run");
    if (plan_.fault.flapHost >= 0)
        fatal("fault.flap_host requires a cluster run");
    if (plan_.topology.enabled())
        fatal("topology.tiers requires a cluster run");
    if (plan_.resilience.wantsBreakers())
        fatal("resilience.breaker_window requires a cluster run");
}

std::pair<double, double>
Experiment::profileThresholds(const ExperimentConfig &config)
{
    // Section 4.2: profile one request burst at the load used to set
    // the SLO (the latency-load inflection point == the high load) with
    // a fixed maximum V/F so the thresholds describe a healthy core.
    ExperimentConfig pcfg = config;
    pcfg.freqPolicy = "performance";
    pcfg.idlePolicy = "menu";
    pcfg.load = LoadLevel::kHigh;
    pcfg.rpsOverride = 0.0;
    pcfg.trainMeanOverride = 0.0;
    pcfg.loadSchedule.clear();
    pcfg.warmup = 0;
    pcfg.duration = pcfg.burst.period; // one burst + its drain
    pcfg.collectTraces = false;
    pcfg.collectLatencyTrace = false;
    // The caller's observers watch the caller's run, not this one, and
    // the thresholds describe tenant 0's application alone.
    pcfg.extraObservers.clear();
    pcfg.colocated.clear();

    // Thresholds describe a *healthy* system: profile without any
    // run-scoped plan (injected faults, client retries, overload
    // control) and without the bypass dataplane: NMAP's NI/CU
    // thresholds describe the NAPI mode-transition signal, which only
    // exists on the interrupt path.
    pcfg.params = {};
    for (const auto &[key, value] : config.params)
        if (!RunPlan::owns(key) && key.rfind("dataplane.", 0) != 0 &&
            key.rfind("metronome.", 0) != 0)
            pcfg.params.set(key, value);

    ThresholdProfiler profiler(pcfg.numCores);
    profiler.beginBurst();
    pcfg.extraObservers.push_back(&profiler);
    Experiment(pcfg).run();
    profiler.endBurst();
    return {profiler.niThreshold(), profiler.cuThreshold()};
}

ExperimentResult
Experiment::run()
{
    EventQueue eq;
    Rng rng(config_.seed);

    // --- Server + wires ------------------------------------------------
    Wire client_to_server(eq);
    Wire server_to_client(eq);
    client_to_server.setLabel("client->server");
    server_to_client.setLabel("server->client");
    ServerRig rig(eq, config_, rng, server_to_client);
    client_to_server.setSink(
        [&nic = rig.nic()](const Packet &pkt) { nic.receive(pkt); });

    // --- Tenants: application, client, load generator -------------------
    // Tenant i's client owns flow space i, so `flowHash /
    // kFlowSpaceStride` routes every request to its application and
    // every response to its client. Overload control and client retry
    // arm every tenant; a disabled plan arms nothing and keeps the run
    // byte-identical (neither forks a random stream).
    struct Tenant
    {
        std::unique_ptr<ServerApp> app;
        std::unique_ptr<Client> client;
        std::unique_ptr<LoadGenerator> gen;
    };
    const std::vector<TenantConfig> specs = tenantsOf(config_);
    std::vector<Tenant> tenants;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        Tenant t;
        t.app = std::make_unique<ServerApp>(rig.os(), rig.nic(),
                                            specs[i].app, rng.fork(),
                                            /*attach_deliver=*/false);
        t.client = std::make_unique<Client>(
            eq, client_to_server, specs[i].app, specs[i].numConnections,
            static_cast<std::uint32_t>(i) * kFlowSpaceStride);
        t.app->setResilience(plan_.resilience);
        plan_.configure(*t.client);
        t.gen = std::make_unique<LoadGenerator>(eq, *t.client,
                                                config_.burst, rng.fork());
        tenants.push_back(std::move(t));
    }
    rig.os().setDeliver([&tenants](int core, const Packet &pkt) {
        tenants[pkt.flowHash / kFlowSpaceStride].app->deliver(core, pkt);
    });
    Client &client = *tenants.front().client;
    LoadGenerator &gen = *tenants.front().gen;
    if (config_.collectLatencyTrace)
        client.latencies().keepTrace();

    // --- Policies, observers, energy, dataplane ------------------------
    // A colocated server has no single latency feed and no single
    // application to profile: factories needing either fatal().
    if (tenants.size() > 1)
        rig.attachPolicies(rng, dataplane_, nullptr, nullptr);
    else
        rig.attachPolicies(rng, dataplane_, &client,
                           [this] { return profileThresholds(config_); });
    std::vector<const Client *> clients;
    for (const Tenant &t : tenants)
        clients.push_back(t.client.get());
    connectResponses(server_to_client, eq, plan_, clients,
                     [&tenants](const Packet &pkt, Tick arrival) {
                         tenants[pkt.flowHash / kFlowSpaceStride]
                             .client->onResponse(pkt, arrival);
                     });

    std::shared_ptr<TraceCollector> traces;
    if (config_.collectTraces) {
        traces = std::make_shared<TraceCollector>(
            eq, config_.watchCore, config_.traceBucket);
        traces->attachPStateTrace(rig.core(config_.watchCore));
        rig.os().addObserver(traces.get());
    }

    // --- Load --------------------------------------------------------
    std::vector<std::unique_ptr<EventFunctionWrapper>> load_events;
    for (const LoadChange &change : config_.loadSchedule) {
        load_events.push_back(std::make_unique<EventFunctionWrapper>(
            [&gen, change] { gen.setLoad(change.spec); },
            "experiment.loadChange"));
        eq.schedule(load_events.back().get(), change.at);
    }

    // --- Fault injection ----------------------------------------------
    // Built after every pre-existing component so the injector's Rng
    // fork is the last one taken: a disabled plan leaves all other
    // streams untouched and the run byte-identical to a fault-free
    // build. The server is the one host.
    std::unique_ptr<FaultInjector> injector;
    if (plan_.fault.enabled())
        injector = std::make_unique<FaultInjector>(
            eq, plan_.fault, rng.fork(),
            std::vector<FaultInjector::Host>{
                {client_to_server, server_to_client, rig.nic()}});

    // --- Run -----------------------------------------------------------
    rig.start();
    gen.setConnectionSkew(config_.connectionSkew);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantConfig &tc = specs[i];
        tenants[i].gen->setLoad(loadSpec(tc.app, tc.load, tc.rpsOverride,
                                         tc.trainMeanOverride,
                                         tc.dutyOverride));
        tenants[i].gen->start();
    }

    eq.runUntil(config_.warmup);
    server_to_client.drain();
    rig.beginMeasurement(eq.now());
    for (Tenant &t : tenants) {
        t.client->latencies().clear();
        t.client->attemptLatencies().clear();
    }

    Tick end = config_.warmup + config_.duration;
    eq.runUntil(end);
    server_to_client.drain();
    for (Tenant &t : tenants)
        t.gen->stop();
    for (auto &ev : load_events)
        eq.deschedule(ev.get());

    // --- Collect ---------------------------------------------------------
    ExperimentResult result;
    rig.collect(end, result);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const Tenant &t = tenants[i];
        RunCounters &counters =
            i == 0 ? result : result.colocated.emplace_back();
        counters.collect({t.client.get()}, {&t.client->latencies()},
                         {&t.client->attemptLatencies()}, specs[i].app.slo,
                         i == 0 ? injector.get() : nullptr, plan_);
        counters.shedAdmission = t.app->shedAdmission();
        counters.shedSojourn = t.app->shedSojourn();
        counters.shedDeadline = t.app->shedDeadline();
    }
    result.eventsProcessed = eq.numProcessed();

    result.traces = traces;
    if (config_.collectTraces)
        result.cc6Entries =
            rig.core(config_.watchCore).cstates().cc6Entries().marks();
    if (config_.collectLatencyTrace) {
        result.latencyTrace = client.latencies().takeTrace();
        result.cdf = client.latencies().cdf(200);
    }

    return result;
}

} // namespace nmapsim
