/**
 * @file
 * The pinned configurations and render helpers behind the golden-output
 * regression tests (determinism_test.cc) and the golden generator
 * (golden_gen.cc).
 *
 * These configs are frozen: their serialised ResultWriter output is
 * checked in under tests/golden/ and every engine rewrite must
 * reproduce it byte for byte. Changing a config here (or the record
 * format) invalidates the goldens — regenerate them with golden_gen
 * *before* the engine change lands, and review the diff like any other
 * contract change.
 */

#ifndef NMAPSIM_TESTS_GOLDEN_CONFIGS_HH_
#define NMAPSIM_TESTS_GOLDEN_CONFIGS_HH_

#include <sstream>
#include <string>

#include "harness/cluster.hh"
#include "harness/cluster_io.hh"
#include "harness/experiment.hh"
#include "harness/result_io.hh"
#include "stats/result_writer.hh"

namespace nmapsim {
namespace golden {

/** Small but policy-rich: NMAP exercises the monitor/decision path,
 *  menu exercises idle prediction. Thresholds are pinned so the run
 *  does not profile (keeps the test fast). */
inline ExperimentConfig
smallSingleHost()
{
    ExperimentConfig cfg;
    cfg.app = AppProfile::memcached();
    cfg.load = LoadLevel::kMed;
    cfg.freqPolicy = "NMAP";
    cfg.idlePolicy = "menu";
    cfg.params.set("nmap.ni_th", "400");
    cfg.params.set("nmap.cu_th", "0.7");
    cfg.numCores = 4;
    cfg.warmup = milliseconds(10);
    cfg.duration = milliseconds(40);
    cfg.seed = 1234;
    return cfg;
}

inline ClusterConfig
smallCluster()
{
    ClusterConfig cfg;
    cfg.base = smallSingleHost();
    cfg.base.freqPolicy = "ondemand";
    cfg.numHosts = 2;
    cfg.dispatch = "flow-hash";
    cfg.drain = milliseconds(5);
    return cfg;
}

/** Seeded loss + corruption + client retries on one host. */
inline ExperimentConfig
faultedSingleHost()
{
    ExperimentConfig cfg = smallSingleHost();
    cfg.params.set("fault.wire_loss", "0.02");
    cfg.params.set("fault.wire_corrupt", "0.01");
    cfg.params.setTick("client.timeout", milliseconds(2));
    cfg.params.set("client.retries", 3);
    return cfg;
}

/** The hardest path: whole-host crash + recovery, failure-detector
 *  ejection/readmission and retries. */
inline ClusterConfig
faultedCluster()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "least-outstanding";
    cfg.fabric.healthInterval = milliseconds(1);
    cfg.fabric.healthTimeout = milliseconds(3);
    cfg.fabric.ejectDuration = milliseconds(5);
    cfg.base.params.set("fault.wire_loss", "0.01");
    cfg.base.params.set("fault.crash_host", 1);
    cfg.base.params.setTick("fault.crash_at", milliseconds(15));
    cfg.base.params.setTick("fault.recover_at", milliseconds(30));
    cfg.base.params.setTick("client.timeout", milliseconds(2));
    cfg.base.params.set("client.retries", 2);
    return cfg;
}

/** Kernel-bypass dataplane under fire: Metronome intermittent sleep
 *  with armed wakeups, plus a mid-run rx-ring degrade/restore cycle.
 *  Pins the poll-loop/sleep/harvest machinery and the bypass result
 *  columns byte for byte. */
inline ExperimentConfig
faultedBypassHost()
{
    ExperimentConfig cfg = smallSingleHost();
    cfg.freqPolicy = "ondemand";
    cfg.params.erase("nmap.ni_th");
    cfg.params.erase("nmap.cu_th");
    cfg.params.set("dataplane.mode", "bypass");
    cfg.params.set("dataplane.policy", "metronome");
    cfg.params.set("dataplane.sleep_armed_irq", "true");
    cfg.params.setTick("fault.ring_degrade_at", milliseconds(20));
    cfg.params.set("fault.ring_size", 8);
    cfg.params.setTick("fault.ring_restore_at", milliseconds(35));
    return cfg;
}

/** 3-tier LB -> app -> cache chain: a thin load-balancer tier fans
 *  into two app hosts, which forward to one cache host. Exercises
 *  east-west forwarding, per-tier dispatch and hop attribution. */
inline ClusterConfig
tieredCluster()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "round-robin";
    cfg.numHosts = 4; // derived from the topology; pinned for records
    cfg.base.params.set("topology.tiers", 3);
    cfg.base.params.set("topology.tier0.name", "lb");
    cfg.base.params.set("topology.tier0.hosts", 1);
    cfg.base.params.set("topology.tier0.service_scale", "0.25");
    cfg.base.params.set("topology.tier1.name", "app");
    cfg.base.params.set("topology.tier1.hosts", 2);
    cfg.base.params.set("topology.tier1.dispatch",
                        "least-outstanding");
    cfg.base.params.set("topology.tier2.name", "cache");
    cfg.base.params.set("topology.tier2.hosts", 1);
    cfg.base.params.set("topology.tier2.service_scale", "0.5");
    return cfg;
}

/** 4-stage NFV-style service-function chain, one host per stage,
 *  with per-stage service weights (classification is cheap, DPI is
 *  the bottleneck). */
inline ClusterConfig
nfvChain()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "flow-hash";
    cfg.numHosts = 4; // derived from the topology; pinned for records
    cfg.base.params.set("topology.tiers", 4);
    cfg.base.params.set("topology.tier0.name", "classify");
    cfg.base.params.set("topology.tier0.service_scale", "0.25");
    cfg.base.params.set("topology.tier1.name", "firewall");
    cfg.base.params.set("topology.tier1.service_scale", "0.5");
    cfg.base.params.set("topology.tier2.name", "dpi");
    cfg.base.params.set("topology.tier3.name", "nat");
    cfg.base.params.set("topology.tier3.service_scale", "0.5");
    return cfg;
}

/** Cascading failure with the full resilience stack armed: a 3-tier
 *  chain with a mid-chain client pool, a crashed-and-recovered middle
 *  host, queue-deadline admission at every app queue, breakers in the
 *  switch, a client retry budget and chain-wide deadline propagation.
 *  Pins the shed/budget/breaker counters and the resilience record
 *  columns byte for byte. */
inline ClusterConfig
resilientCascade()
{
    ClusterConfig cfg = smallCluster();
    cfg.dispatch = "round-robin";
    cfg.numHosts = 4; // derived from the topology; pinned for records
    cfg.fabric.healthInterval = milliseconds(1);
    cfg.fabric.healthTimeout = milliseconds(3);
    cfg.fabric.ejectDuration = milliseconds(5);
    cfg.base.params.set("topology.tiers", 3);
    cfg.base.params.set("topology.tier1.hosts", 2);
    cfg.base.params.set("topology.tier1.clients", 1);
    cfg.base.params.set("fault.crash_host", 1);
    cfg.base.params.setTick("fault.crash_at", milliseconds(15));
    cfg.base.params.setTick("fault.recover_at", milliseconds(30));
    cfg.base.params.setTick("client.timeout", milliseconds(2));
    cfg.base.params.set("client.retries", 3);
    cfg.base.params.set("resilience.admission", "queue-deadline");
    cfg.base.params.setTick("resilience.admit_target",
                            microseconds(200));
    cfg.base.params.setTick("resilience.admit_interval",
                            milliseconds(1));
    cfg.base.params.set("resilience.retry_budget", "0.2");
    cfg.base.params.setTick("resilience.breaker_window",
                            milliseconds(5));
    cfg.base.params.setTick("resilience.deadline", milliseconds(4));
    return cfg;
}

/** Bounded egress ports (8 packets) under 1% loss and no client
 *  retry: a third of the traffic drops at the ports, the client port
 *  included. Pins that a response counts against its port's queue
 *  only while it is on the line. */
inline ClusterConfig
boundedPortCluster()
{
    ClusterConfig cfg = smallCluster();
    cfg.numHosts = 4;
    cfg.dispatch = "least-outstanding";
    cfg.fabric.portQueueLimit = 8;
    cfg.base.params.set("fault.wire_loss", "0.01");
    return cfg;
}

/** Every fault kind at once on a 4-host rack: wire loss and
 *  corruption, two flap cycles of host 0's access links, an rx-ring
 *  degrade/restore on every NIC and a two-host crash with recovery,
 *  under the failure detector and client retries. Pins where each
 *  fault lands and the order the injector arms them. */
inline ClusterConfig
faultedRack()
{
    ClusterConfig cfg = smallCluster();
    cfg.numHosts = 4;
    cfg.dispatch = "least-outstanding";
    cfg.fabric.healthInterval = milliseconds(1);
    cfg.fabric.healthTimeout = milliseconds(3);
    cfg.fabric.ejectDuration = milliseconds(5);
    cfg.base.params.set("fault.wire_loss", "0.01");
    cfg.base.params.set("fault.wire_corrupt", "0.005");
    cfg.base.params.set("fault.flap_host", 0);
    cfg.base.params.setTick("fault.flap_start", milliseconds(12));
    cfg.base.params.setTick("fault.flap_down", milliseconds(2));
    cfg.base.params.setTick("fault.flap_period", milliseconds(10));
    cfg.base.params.set("fault.flap_cycles", 2);
    cfg.base.params.setTick("fault.ring_degrade_at", milliseconds(20));
    cfg.base.params.set("fault.ring_size", 8);
    cfg.base.params.setTick("fault.ring_restore_at", milliseconds(35));
    cfg.base.params.set("fault.crash_host", "2,3");
    cfg.base.params.setTick("fault.crash_at", milliseconds(25));
    cfg.base.params.setTick("fault.recover_at", milliseconds(40));
    cfg.base.params.setTick("client.timeout", milliseconds(2));
    cfg.base.params.set("client.retries", 2);
    return cfg;
}

/** Serialised (JSON + CSV) ResultWriter output for one fresh run. */
inline std::string
renderSingleHost(const ExperimentConfig &cfg)
{
    const ExperimentResult result = Experiment(cfg).run();
    ResultWriter writer;
    appendResultRecord(writer, cfg, result);
    std::ostringstream out;
    writer.writeJson(out);
    out << '\n';
    writer.writeCsv(out);
    return out.str();
}

inline std::string
renderCluster(const ClusterConfig &cfg)
{
    const ClusterResult result = ClusterExperiment(cfg).run();
    ResultWriter writer;
    appendClusterResultRecord(writer, cfg, result);
    std::ostringstream out;
    writer.writeJson(out);
    out << '\n';
    writer.writeCsv(out);
    return out.str();
}

} // namespace golden
} // namespace nmapsim

#endif // NMAPSIM_TESTS_GOLDEN_CONFIGS_HH_
