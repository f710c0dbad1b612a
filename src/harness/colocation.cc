#include "harness/colocation.hh"

#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/client.hh"
#include "workload/loadgen.hh"
#include "workload/server_app.hh"

namespace nmapsim {

ColocationExperiment::ColocationExperiment(ColocationConfig config)
    : config_(std::move(config))
{
    if (config_.tenants.empty() || config_.tenants.size() > 8)
        fatal("ColocationExperiment supports 1-8 tenants");
    for (const TenantConfig &t : config_.tenants) {
        if (t.numConnections < 1 ||
            t.numConnections >=
                static_cast<int>(kFlowSpaceStride))
            fatal("tenant connection count out of range");
    }
    if (config_.duration <= 0)
        fatal("ColocationExperiment duration must be positive");
    // The colocation rig wires no dataplane, fault injector, client
    // retry, overload control or topology: refuse their keys rather
    // than ignore them.
    for (const auto &[key, value] : config_.params)
        if (RunPlan::owns(key) || key.rfind("dataplane.", 0) == 0)
            fatal("'" + key + "' is not supported in colocation runs");

    server_.cpuProfile = config_.cpuProfile;
    server_.numCores = config_.numCores;
    server_.app = config_.tenants.front().app;
    server_.freqPolicy = config_.freqPolicy;
    server_.idlePolicy = config_.idlePolicy;
    server_.params = config_.params;
    server_.gov = config_.gov;
    server_.os = config_.os;
    server_.nic = config_.nic;
    ServerRig::validate(server_);
}

ColocationResult
ColocationExperiment::run()
{
    EventQueue eq;
    Rng rng(config_.seed);

    // --- Server + wires ----------------------------------------------
    Wire client_to_server(eq);
    Wire server_to_client(eq);
    ServerRig rig(eq, server_, rng, server_to_client);
    client_to_server.setSink(
        [&nic = rig.nic()](const Packet &pkt) { nic.receive(pkt); });

    // --- Tenants -------------------------------------------------------
    struct Tenant
    {
        std::unique_ptr<ServerApp> app;
        std::unique_ptr<Client> client;
        std::unique_ptr<LoadGenerator> gen;
    };
    std::vector<Tenant> tenants;
    for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
        const TenantConfig &tc = config_.tenants[i];
        Tenant t;
        t.app = std::make_unique<ServerApp>(rig.os(), rig.nic(), tc.app,
                                            rng.fork(),
                                            /*attach_deliver=*/false);
        t.client = std::make_unique<Client>(
            eq, client_to_server, tc.app, tc.numConnections,
            static_cast<std::uint32_t>(i) * kFlowSpaceStride);
        t.gen = std::make_unique<LoadGenerator>(eq, *t.client,
                                                BurstConfig{},
                                                rng.fork());
        tenants.push_back(std::move(t));
    }

    // Route request packets and responses by flow space.
    rig.os().setDeliver([&tenants](int core, const Packet &pkt) {
        std::size_t idx = pkt.flowHash / kFlowSpaceStride;
        if (idx < tenants.size())
            tenants[idx].app->deliver(core, pkt);
    });
    server_to_client.setSink([&tenants](const Packet &pkt) {
        std::size_t idx = pkt.flowHash / kFlowSpaceStride;
        if (idx < tenants.size())
            tenants[idx].client->onResponse(pkt);
    });

    // --- Policies --------------------------------------------------------
    // No client latency feed and no single application to profile:
    // factories needing either fatal() with a policy-specific message.
    rig.attachPolicies(rng, DataplanePlan{}, /*feedback=*/nullptr,
                       /*profile=*/nullptr);

    // --- Run ---------------------------------------------------------------
    rig.start();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const TenantConfig &tc = config_.tenants[i];
        tenants[i].gen->setLoad(loadSpec(tc.app, tc.load, tc.rpsOverride,
                                         tc.trainMeanOverride,
                                         tc.dutyOverride));
        tenants[i].gen->start();
    }

    eq.runUntil(config_.warmup);
    rig.beginMeasurement(eq.now());
    for (Tenant &t : tenants)
        t.client->latencies().clear();

    Tick end = config_.warmup + config_.duration;
    eq.runUntil(end);
    for (Tenant &t : tenants)
        t.gen->stop();

    // --- Collect ---------------------------------------------------------
    ColocationResult result;
    rig.collect(end, result);
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const LatencyRecorder &lat = tenants[i].client->latencies();
        TenantResult tr;
        tr.appName = config_.tenants[i].app.name;
        tr.slo = config_.tenants[i].app.slo;
        tr.p99 = lat.percentile(99.0);
        tr.fracOverSlo = lat.fractionAbove(tr.slo);
        tr.requestsSent = tenants[i].client->requestsSent();
        tr.responsesReceived = tenants[i].client->responsesReceived();
        result.tenants.push_back(tr);
    }
    return result;
}

} // namespace nmapsim
