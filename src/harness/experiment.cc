#include "harness/experiment.hh"

#include "fault/injector.hh"
#include "net/wire.hh"
#include "nmap/profiler.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/server_app.hh"

namespace nmapsim {

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)), server_(ServerRig::validate(config_)),
      fault_(FaultPlan::fromParams(config_.params)),
      retry_(ClientRetryPolicy::fromParams(config_.params))
{
    if (config_.duration <= 0)
        fatal("Experiment duration must be positive");

    // Host-indexed faults only make sense behind a switch.
    if (fault_.wantsCrash())
        fatal("fault.crash_host requires a cluster run");
    if (fault_.flapHost >= 0)
        fatal("fault.flap_host requires a cluster run");

    // Service topologies only exist behind the cluster switch.
    for (const auto &[key, value] : config_.params)
        if (key.rfind("topology.", 0) == 0)
            fatal("'" + key + "' requires a cluster run");

    // Circuit breakers and mid-chain deadlines live in the switch, so
    // breaker keys only make sense behind one.
    const ResiliencePlan &resilience = server_.resilience;
    if (resilience.wantsBreakers())
        fatal("resilience.breaker_window requires a cluster run");
    if (resilience.wantsRetryBudget() && !retry_.enabled())
        fatal("resilience.retry_budget requires client retry "
              "(client.timeout)");
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

    // Thresholds describe a *healthy* system: profile without any
    // injected faults or client retries (also keeps cluster-derived
    // configs from tripping the cluster-only fault key checks).
    // ... and without the bypass dataplane: NMAP's NI/CU thresholds
    // describe the NAPI mode-transition signal, which only exists on
    // the interrupt path.
    std::vector<std::string> stripped;
    for (const auto &[key, value] : pcfg.params)
        if (key.rfind("fault.", 0) == 0 ||
            key.rfind("client.", 0) == 0 ||
            key.rfind("dataplane.", 0) == 0 ||
            key.rfind("metronome.", 0) == 0 ||
            key.rfind("resilience.", 0) == 0)
            stripped.push_back(key);
    for (const std::string &key : stripped)
        pcfg.params.erase(key);

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

    // --- Application + client ------------------------------------------
    ServerApp app(rig.os(), rig.nic(), config_.app, rng.fork());
    Client client(eq, client_to_server, config_.app,
                  config_.numConnections);
    // Overload control: a disabled plan arms nothing and keeps the run
    // byte-identical (the subsystem forks no random stream).
    const ResiliencePlan &resilience = server_.resilience;
    if (resilience.wantsAdmission() || resilience.wantsDeadline())
        app.setResilience(resilience);
    if (resilience.wantsDeadline())
        client.setDeadlineBudget(resilience.deadline);
    server_to_client.setSink(
        [&client](const Packet &pkt) { client.onResponse(pkt); });
    LoadGenerator gen(eq, client, config_.burst, rng.fork());

    // --- Policies, observers, energy, dataplane ------------------------
    rig.attachPolicies(rng, server_.dataplane, &client,
                       [this] { return profileThresholds(config_); });

    std::shared_ptr<TraceCollector> traces;
    if (config_.collectTraces) {
        traces = std::make_shared<TraceCollector>(
            eq, config_.watchCore, config_.traceBucket);
        traces->attachPStateTrace(rig.core(config_.watchCore));
        rig.os().addObserver(traces.get());
    }

    // --- Load --------------------------------------------------------
    LoadLevelSpec spec = config_.app.level(config_.load);
    if (config_.rpsOverride > 0.0)
        spec.rps = config_.rpsOverride;
    if (config_.trainMeanOverride > 0.0)
        spec.trainMean = config_.trainMeanOverride;
    if (config_.dutyOverride > 0.0)
        spec.duty = config_.dutyOverride;

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
    // build.
    if (retry_.enabled())
        client.setRetryPolicy(retry_);
    if (resilience.wantsRetryBudget())
        client.setRetryBudget(resilience.retryBudget,
                              resilience.retryMin,
                              resilience.retryCap);

    std::unique_ptr<FaultInjector> injector;
    if (fault_.enabled()) {
        injector = std::make_unique<FaultInjector>(eq, fault_, rng.fork());
        injector->addLossyWire(client_to_server);
        injector->addLossyWire(server_to_client);
        if (fault_.wantsFlap())
            injector->addFlapGroup(
                {&client_to_server, &server_to_client});
        if (fault_.wantsRingDegrade())
            injector->addDegradableNic(rig.nic());
    }

    // --- Run -----------------------------------------------------------
    rig.start();
    gen.setConnectionSkew(config_.connectionSkew);
    gen.setLoad(spec);
    gen.start();

    eq.runUntil(config_.warmup);
    rig.beginMeasurement(eq.now());
    client.latencies().clear();
    client.attemptLatencies().clear();

    Tick end = config_.warmup + config_.duration;
    eq.runUntil(end);
    gen.stop();
    for (auto &ev : load_events)
        eq.deschedule(ev.get());

    // --- Collect ---------------------------------------------------------
    ExperimentResult result;
    rig.collect(end, result);
    const LatencyRecorder &lat = client.latencies();
    result.slo = config_.app.slo;
    result.p50 = lat.percentile(50.0);
    result.p99 = lat.percentile(99.0);
    result.maxLatency = lat.max();
    result.meanLatency = lat.mean();
    result.fracOverSlo = lat.fractionAbove(config_.app.slo);

    result.requestsSent = client.requestsSent();
    result.responsesReceived = client.responsesReceived();
    result.requestsTimedOut = client.requestsTimedOut();
    result.retransmits = client.retransmits();
    result.requestsInFlight = client.requestsInFlight();
    result.duplicateResponses = client.duplicateResponses();
    result.requestsShed = client.requestsShed();
    result.retryBudgetExhausted = client.retryBudgetExhausted();
    result.shedAdmission = app.shedAdmission();
    result.shedSojourn = app.shedSojourn();
    result.shedDeadline = app.shedDeadline();
    if (injector) {
        result.faultPacketsLost = injector->packetsFaultLost();
        result.faultPacketsCorrupted = injector->packetsCorrupted();
        result.linkDownDrops = injector->packetsLinkDownLost();
    }
    result.availability =
        result.requestsSent == 0
            ? 1.0
            : static_cast<double>(result.responsesReceived) /
                  static_cast<double>(result.requestsSent);
    result.attemptP99 = client.attemptLatencies().percentile(99.0);

    result.eventsProcessed = eq.numProcessed();

    result.traces = traces;
    if (config_.collectTraces)
        result.cc6Entries =
            rig.core(config_.watchCore).cstates().cc6Entries().marks();
    if (config_.collectLatencyTrace)
        result.latencyTrace = lat.trace();
    result.cdf = lat.cdf(200);

    return result;
}

} // namespace nmapsim
