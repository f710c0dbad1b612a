#include "harness/cluster_io.hh"

#include <charconv>
#include <sstream>

#include "harness/config_io.hh"
#include "harness/result_io.hh"
#include "sim/logging.hh"

namespace nmapsim {

namespace {

/** Parse "host<i>.<rest>" keys; returns false for anything else. */
bool
splitHostKey(const std::string &key, int &host, std::string &rest)
{
    if (key.rfind("host", 0) != 0)
        return false;
    std::size_t dot = key.find('.');
    if (dot == std::string::npos || dot == 4)
        return false;
    const char *b = key.data() + 4;
    const char *e = key.data() + dot;
    int v = 0;
    auto res = std::from_chars(b, e, v);
    if (res.ec != std::errc() || res.ptr != e)
        return false;
    host = v;
    rest = key.substr(dot + 1);
    return true;
}

/** Materialise per-host specs so host @p id can take an override. */
HostSpec &
hostSpec(ClusterConfig &config, int id, const std::string &key)
{
    if (id < 0 || id >= config.numHosts)
        fatal("config key '" + key + "': host index out of range "
              "(hosts=" + std::to_string(config.numHosts) +
              "; set hosts first)");
    if (config.hosts.empty())
        config.hosts.assign(static_cast<std::size_t>(config.numHosts),
                            HostSpec{});
    if (static_cast<int>(config.hosts.size()) != config.numHosts)
        fatal("config key '" + key + "': host spec count diverged "
              "from the host count");
    return config.hosts[static_cast<std::size_t>(id)];
}

/** Every cluster-level key once, in print order. */
template <typename Config, typename Key>
void
clusterKeys(Config &c, Key &&key)
{
    key("hosts", c.numHosts);
    key("dispatch", c.dispatch);
    key("cluster.client_groups", c.clientGroups);
    key("cluster.drain", c.drain);
    key("cluster.fabric_bandwidth", c.fabric.fabricBandwidthBps);
    key("cluster.fabric_latency", c.fabric.fabricLatency);
    key("cluster.port_bandwidth", c.fabric.portBandwidthBps);
    key("cluster.port_propagation", c.fabric.portPropagation);
    key("cluster.port_queue", c.fabric.portQueueLimit);
    key("cluster.health_interval", c.fabric.healthInterval);
    key("cluster.health_timeout", c.fabric.healthTimeout);
    key("cluster.eject_duration", c.fabric.ejectDuration);
}

} // namespace

bool
setClusterConfigValue(ClusterConfig &c, const std::string &key,
                      const std::string &value)
{
    ConfigKeySetter set{key, value};
    clusterKeys(c, set);
    if (set.found) {
        if (key == "hosts" && !c.hosts.empty())
            fatal("config key 'hosts': set the host count before any "
                  "host<i>.* override");
        return true;
    }
    int host = 0;
    std::string rest;
    if (key.rfind("cluster.", 0) == 0) {
        fatal("unknown config key '" + key + "'");
    } else if (key.rfind("topology.", 0) == 0) {
        // Topologies only exist behind the switch: claiming the key
        // here flips nmapsim_run into cluster mode. Validation (key
        // shape, tier ranges) happens in TopologyPlan::fromParams at
        // experiment construction.
        c.base.params.set(key, value);
    } else if (splitHostKey(key, host, rest)) {
        HostSpec &spec = hostSpec(c, host, key);
        if (rest == "freq_policy")
            spec.freqPolicy = value;
        else if (rest == "idle_policy")
            spec.idlePolicy = value;
        else if (rest == "weight")
            spec.weight = PolicyParams::parseDouble(value, key);
        else {
            requireHostOverlayKey(host, rest);
            spec.params.set(rest, value);
        }
    } else {
        setConfigValue(c.base, key, value);
        return false;
    }
    return true;
}

std::string
printClusterConfig(const ClusterConfig &c)
{
    std::ostringstream os;
    auto put = [&os](const std::string &key, const std::string &value) {
        os << key << "=" << value << "\n";
    };

    clusterKeys(c, ConfigKeyPrinter{os});

    for (std::size_t i = 0; i < c.hosts.size(); ++i) {
        const HostSpec &spec = c.hosts[i];
        const std::string prefix = "host" + std::to_string(i) + ".";
        // weight always prints so parsing recreates the spec vector.
        put(prefix + "weight",
            PolicyParams::formatDouble(spec.weight));
        if (!spec.freqPolicy.empty())
            put(prefix + "freq_policy", spec.freqPolicy);
        if (!spec.idlePolicy.empty())
            put(prefix + "idle_policy", spec.idlePolicy);
        for (const auto &[key, value] : spec.params)
            put(prefix + key, value);
    }

    os << printConfig(c.base);
    return os.str();
}

ClusterConfig
parseClusterConfig(const std::string &text)
{
    ClusterConfig config;
    readConfigLines(text, [&config](const std::string &key,
                                    const std::string &value) {
        setClusterConfigValue(config, key, value);
    });
    return config;
}

ResultWriter::Record &
appendClusterResultRecord(ResultWriter &writer,
                          const ClusterConfig &config,
                          const ClusterResult &result)
{
    ResultWriter::Record &rec = writer.add();

    // Config dimensions identifying the point.
    rec.set("hosts", config.numHosts)
        .set("dispatch", config.dispatch)
        .set("client_groups", config.clientGroups)
        .set("app", config.base.app.name)
        .set("load", loadLevelName(config.base.load))
        .set("freq_policy", config.base.freqPolicy)
        .set("idle_policy", config.base.idlePolicy)
        .set("cores", config.base.numCores)
        .set("connections", config.base.numConnections)
        .set("rps_override", config.base.rpsOverride)
        .set("warmup_ns",
             static_cast<std::int64_t>(config.base.warmup))
        .set("duration_ns",
             static_cast<std::int64_t>(config.base.duration))
        .set("drain_ns", static_cast<std::int64_t>(config.drain))
        .set("seed", config.base.seed);
    for (const auto &[key, value] : config.base.params)
        rec.set(key, value);

    // Cluster-level metrics.
    rec.set("p50_ns", static_cast<std::int64_t>(result.p50))
        .set("p99_ns", static_cast<std::int64_t>(result.p99))
        .set("max_latency_ns",
             static_cast<std::int64_t>(result.maxLatency))
        .set("mean_latency_ns", result.meanLatency)
        .set("slo_ns", static_cast<std::int64_t>(result.slo))
        .set("frac_over_slo", result.fracOverSlo)
        .set("energy_j", result.energyJoules)
        .set("avg_power_w", result.avgPowerWatts)
        .set("requests_sent", result.requestsSent)
        .set("responses_received", result.responsesReceived)
        .set("requests_forwarded", result.requestsForwarded)
        .set("responses_returned", result.responsesReturned)
        .set("switch_port_drops", result.switchPortDrops)
        .set("host_nic_drops", result.hostNicDrops)
        .set("stray_responses", result.strayResponses)
        .set("requests_timed_out", result.requestsTimedOut)
        .set("retransmits", result.retransmits)
        .set("requests_in_flight", result.requestsInFlight)
        .set("duplicate_responses", result.duplicateResponses)
        .set("fault_pkts_lost", result.faultPacketsLost)
        .set("fault_pkts_corrupted", result.faultPacketsCorrupted)
        .set("link_down_drops", result.linkDownDrops)
        .set("ejections", result.ejections)
        .set("requests_rerouted", result.requestsRerouted)
        .set("late_responses", result.lateResponses)
        .set("availability", result.availability)
        .set("goodput_rps", result.goodputRps)
        .set("attempt_p99_ns",
             static_cast<std::int64_t>(result.attemptP99));

    // Resilience counters only exist when a resilience.* plan is
    // configured, so pre-resilience records (goldens, bench baselines)
    // stay byte-identical.
    if (result.resilient) {
        rec.set("requests_shed", result.requestsShed)
            .set("retry_budget_exhausted", result.retryBudgetExhausted)
            .set("shed_admission", result.shedAdmission)
            .set("shed_sojourn", result.shedSojourn)
            .set("shed_deadline", result.shedDeadline)
            .set("switch_deadline_sheds", result.switchDeadlineSheds)
            .set("breaker_short_circuits", result.breakerShortCircuits)
            .set("breaker_transitions", result.breakerTransitions);
    }

    // Topology columns only exist for topology runs, so single-tier
    // records (and their pinned goldens) stay byte-identical.
    const bool tiered = !result.tiers.empty();
    if (tiered) {
        rec.set("tiers",
                static_cast<std::int64_t>(result.tiers.size()))
            .set("east_west_forwards", result.eastWestForwards)
            .set("east_west_bytes", result.eastWestBytes)
            .set("goodput_bytes", result.goodputBytes)
            .set("control_bytes", result.controlBytes)
            .set("hop_p99_sum_ns",
                 static_cast<std::int64_t>(result.hopP99Sum));
        for (const ClusterTierResult &tier : result.tiers) {
            const std::string p =
                "tier" + std::to_string(tier.tier) + "_";
            rec.set(p + "name", tier.name)
                .set(p + "hosts", tier.hosts)
                .set(p + "dispatch", tier.dispatch)
                .set(p + "completions", tier.completions)
                .set(p + "forwards", tier.forwards)
                .set(p + "hop_p50_ns",
                     static_cast<std::int64_t>(tier.hopP50))
                .set(p + "hop_p99_ns",
                     static_cast<std::int64_t>(tier.hopP99))
                .set(p + "hop_max_ns",
                     static_cast<std::int64_t>(tier.hopMax))
                .set(p + "mean_hop_ns", tier.meanHop)
                .set(p + "slo_ns",
                     static_cast<std::int64_t>(tier.slo))
                .set(p + "frac_over_slo", tier.fracOverSlo)
                .set(p + "p99_share", tier.p99Share)
                .set(p + "energy_j", tier.energyJoules);
        }
    }

    // Per-host summary columns.
    for (const ClusterHostResult &host : result.hosts) {
        const std::string p = "host" + std::to_string(host.id) + "_";
        rec.set(p + "freq_policy", host.freqPolicy)
            .set(p + "idle_policy", host.idlePolicy)
            .set(p + "served", host.served)
            .set(p + "p50_ns", static_cast<std::int64_t>(host.p50))
            .set(p + "p99_ns", static_cast<std::int64_t>(host.p99))
            .set(p + "energy_j", host.energyJoules)
            .set(p + "avg_power_w", host.avgPowerWatts)
            .set(p + "busy_fraction", host.busyFraction)
            .set(p + "nic_drops", host.nicDrops)
            .set(p + "pkts_intr_mode", host.pktsIntrMode)
            .set(p + "pkts_poll_mode", host.pktsPollMode)
            .set(p + "ejections", host.ejections);
        if (tiered) {
            rec.set(p + "tier", host.tier)
                .set(p + "tier_name", host.tierName)
                .set(p + "forwarded", host.forwarded)
                .set(p + "hops_completed", host.hopsCompleted)
                .set(p + "hop_p50_ns",
                     static_cast<std::int64_t>(host.hopP50))
                .set(p + "hop_p99_ns",
                     static_cast<std::int64_t>(host.hopP99));
        }
        // Resilience columns follow the same gate as the cluster-level
        // ones.
        if (result.resilient) {
            rec.set(p + "shed_admission", host.shedAdmission)
                .set(p + "shed_sojourn", host.shedSojourn)
                .set(p + "shed_deadline", host.shedDeadline)
                .set(p + "breaker_transitions",
                     host.breakerTransitions);
        }
        appendBypassColumns(rec, p, host);
    }
    return rec;
}

} // namespace nmapsim
