/**
 * @file
 * Extension evaluation: graceful degradation under injected faults —
 * what each frequency policy's latency/energy trade costs once the
 * network stops being perfect.
 *
 * A 2-host cluster (least-outstanding dispatch, failure detector on,
 * clients retrying with capped exponential backoff) serves high
 * memcached load through four fault scenarios: a clean baseline,
 * random wire loss + corruption, a flapping host uplink, and a
 * whole-host crash with mid-run recovery. Every scenario runs the
 * same seeded fault plan for every policy, so the *policies* are the
 * only variable inside a scenario.
 *
 * The interesting question is whether power management amplifies
 * faults: a host that NMAP has put in polling-off/deep-idle state
 * answers a retransmission slower than a performance-policy host, so
 * retries land on a cold path. Availability, goodput and retry
 * volume quantify that interaction per (policy x scenario) cell.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/cluster.hh"
#include "stats/table.hh"

using namespace nmapsim;

namespace {

using bench::Variant;

struct Scenario
{
    const char *name;
    /** Applies the scenario's fault.* keys; times are expressed as
     *  fractions of the (scaled) measurement window so the plan stays
     *  meaningful under NMAPSIM_BENCH_SCALE. */
    void (*apply)(ClusterConfig &cfg);
};

Tick
intoWindow(const ClusterConfig &cfg, double frac)
{
    return cfg.base.warmup +
           static_cast<Tick>(static_cast<double>(cfg.base.duration) *
                             frac);
}

void
applyBaseline(ClusterConfig &)
{
}

void
applyLoss(ClusterConfig &cfg)
{
    cfg.base.params.set("fault.wire_loss", 0.05);
    cfg.base.params.set("fault.wire_corrupt", 0.01);
}

void
applyFlap(ClusterConfig &cfg)
{
    cfg.base.params.set("fault.flap_host", 1);
    cfg.base.params.setTick("fault.flap_start", intoWindow(cfg, 0.2));
    cfg.base.params.setTick("fault.flap_down",
                            static_cast<Tick>(
                                static_cast<double>(cfg.base.duration) *
                                0.08));
    cfg.base.params.setTick("fault.flap_period",
                            static_cast<Tick>(
                                static_cast<double>(cfg.base.duration) *
                                0.25));
    cfg.base.params.set("fault.flap_cycles", 2);
}

void
applyCrash(ClusterConfig &cfg)
{
    cfg.base.params.set("fault.crash_host", 1);
    cfg.base.params.setTick("fault.crash_at", intoWindow(cfg, 0.3));
    cfg.base.params.setTick("fault.recover_at", intoWindow(cfg, 0.6));
}

ClusterConfig
pointConfig(const Scenario &scenario, const Variant &v)
{
    ClusterConfig cfg;
    cfg.base = bench::cellConfig(AppProfile::memcached(),
                                 LoadLevel::kHigh, v.policy);
    v.pinThresholds(cfg.base.params);
    cfg.numHosts = 2;
    cfg.dispatch = "least-outstanding";
    cfg.clientGroups = 2;
    cfg.drain = milliseconds(2);

    // Failure detector: sized so a crashed host is ejected well
    // within its outage and retried periodically for readmission.
    cfg.fabric.healthInterval = microseconds(200);
    cfg.fabric.healthTimeout = milliseconds(1);
    cfg.fabric.ejectDuration = milliseconds(2);

    // Clients give a request three retransmissions before writing it
    // off; the cap keeps the backoff ladder at 2-4-4 ms.
    cfg.base.params.setTick("client.timeout", milliseconds(2));
    cfg.base.params.set("client.retries", 3);
    cfg.base.params.setTick("client.backoff_cap", milliseconds(4));

    scenario.apply(cfg);
    return cfg;
}

} // namespace

int
main()
{
    bench::banner("Extension",
                  "fault scenario x power policy (chaos sweep)");

    auto [mc_ni, mc_cu] =
        bench::profileApps({AppProfile::memcached()}, "ext_chaos")[0];

    const std::vector<Variant> variants = {
        {"performance", "performance", 0, 0},
        {"ondemand", "ondemand", 0, 0},
        {"NMAP", "NMAP", mc_ni, mc_cu},
    };
    const std::vector<Scenario> scenarios = {
        {"baseline", &applyBaseline},
        {"loss", &applyLoss},
        {"flap", &applyFlap},
        {"crash", &applyCrash},
    };

    std::vector<ClusterConfig> configs;
    std::vector<const char *> labels;
    for (const Scenario &scenario : scenarios)
        for (const Variant &v : variants) {
            configs.push_back(pointConfig(scenario, v));
            labels.push_back(scenario.name);
        }

    const std::vector<ClusterResult> results =
        bench::runClusters(configs, "ext_chaos");

    std::printf("\n--- 2 hosts, least-outstanding dispatch, "
                "memcached high, detector + client retry on ---\n");
    Table table({"scenario", "policy", "avail", "goodput (rps)",
                 "P99 (us)", "retx", "timeouts", "ejections",
                 "energy (J)"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const ClusterResult &r = results[i];
        table.addRow({
            labels[i],
            configs[i].base.freqPolicy,
            Table::num(r.availability, 4),
            Table::num(r.goodputRps, 0),
            Table::num(toMicroseconds(r.p99), 0),
            Table::num(static_cast<double>(r.retransmits), 0),
            Table::num(static_cast<double>(r.requestsTimedOut), 0),
            Table::num(static_cast<double>(r.ejections), 0),
            Table::num(r.energyJoules, 1),
        });
    }
    table.print(std::cout);

    std::cout
        << "\nFindings: random loss is absorbed almost entirely by "
           "the client retry ladder — availability stays near 1 and "
           "the cost shows up as retransmissions and a fattened P99 "
           "(the retry timeout dominates the tail), roughly equally "
           "for every policy. Host-scoped faults are different: "
           "during a flap window or crash the detector ejects the "
           "dead host and least-outstanding concentrates the full "
           "load on the survivor, so DVFS-down policies (ondemand, "
           "NMAP) ride the load spike up and lose part of their "
           "energy edge exactly when the cluster is degraded, while "
           "the retries that bridge the ejection gap land on whatever "
           "power state the survivor was in. NMAP's mode-transition "
           "logic tracks the shifted traffic quickly enough that "
           "availability matches performance's; the residual gap is "
           "the handful of requests stranded on the dead host between "
           "crash and ejection, which no frequency policy can buy "
           "back. The retry timeout is itself a policy stressor: "
           "ondemand's congestion tail crosses the 2 ms deadline even "
           "fault-free, so its clients retransmit into an already "
           "slow cluster and availability dips with no fault "
           "injected at all.\n";
    return 0;
}
