/**
 * @file
 * nmapsim_run — run one simulation from the declarative config
 * pipeline, no C++ required.
 *
 *     nmapsim_run --policy=nmap --idle=menu --load=high --json=out.json
 *     nmapsim_run --app=nginx --policy=ondemand --csv=out.csv
 *     nmapsim_run --config=point.cfg --set nmap.ni_th=13 --print-config
 *     nmapsim_run --hosts=4 --dispatch=flow-hash --policy=NMAP
 *     nmapsim_run --list-policies
 *
 * Flags are thin sugar over config keys (see harness/config_io.hh):
 * `--policy=X` is `--set freq_policy=X`, and any key the config format
 * accepts works with `--set`, including the per-policy `<policy>.<knob>`
 * tunables of newly registered governors. Results go to stdout as a
 * table and, with --json/--csv, through the shared ResultWriter.
 *
 * Any cluster-claimed key (`--hosts`, `--dispatch`, `cluster.*`,
 * `host<i>.*`; see harness/cluster_io.hh) switches the tool into
 * cluster mode: the same base config drives N hosts behind the modeled
 * switch, per-host overrides like `--set host1.freq_policy=ondemand`
 * make the cluster heterogeneous, and the output becomes the cluster
 * aggregate plus a per-host table.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/dispatch.hh"
#include "dataplane/policy.hh"
#include "harness/cluster_io.hh"
#include "harness/config_io.hh"
#include "harness/policy_registry.hh"
#include "harness/result_io.hh"
#include "resilience/admission.hh"
#include "stats/table.hh"

using namespace nmapsim;

namespace {

void
usage()
{
    std::printf(
        "nmapsim_run — drive one nmapsim experiment from flags\n\n"
        "  --policy=NAME      frequency policy (--list-policies)\n"
        "  --idle=NAME        sleep policy (--list-policies)\n"
        "  --app=NAME         memcached | nginx | keyvalue-us\n"
        "  --load=LEVEL       low | med | high\n"
        "  --cores=N          number of cores\n"
        "  --rps=X            override burst height (RPS during burst)\n"
        "  --duration=DUR     measurement window (e.g. 500ms, 2s)\n"
        "  --warmup=DUR       warmup window before measurement\n"
        "  --seed=N           RNG seed\n"
        "  --hosts=N          cluster mode: N hosts behind the switch\n"
        "  --dispatch=NAME    cluster request steering policy\n"
        "  --dataplane=MODE   napi (default) | bypass; bypass runs\n"
        "                     dedicated poll cores (dataplane.* keys\n"
        "                     tune it, e.g. dataplane.policy=metronome)\n"
        "  --set KEY=VALUE    set any config key (repeatable); policy\n"
        "                     tunables pass through, e.g. nmap.ni_th=13;\n"
        "                     cluster keys (cluster.*, host<i>.*) switch\n"
        "                     to cluster mode; resilience.* keys arm\n"
        "                     overload control (admission control,\n"
        "                     retry budgets, circuit breakers)\n"
        "  --fault KEY=VALUE  fault-plan sugar: --fault wire_loss=0.01\n"
        "                     is --set fault.wire_loss=0.01\n"
        "  --config=FILE      load a key=value config file first\n"
        "  --print-config     print the resolved config and exit\n"
        "  --json=PATH        append the run record as JSON\n"
        "  --csv=PATH         append the run record as CSV\n"
        "  --list-policies    list registered policies and exit\n"
        "  --help             this text\n");
}

/** One `--list-policies` section: a family's names, sorted, with
 *  their help lines. */
template <typename Family>
void
listFamily(const char *heading)
{
    std::printf("%s:\n", heading);
    for (const std::string &name : Family::instance().names())
        std::printf("  %-16s %s\n", name.c_str(),
                    Family::instance().help(name).c_str());
}

void
listPolicies()
{
    listFamily<FreqPolicyRegistry>("frequency policies");
    listFamily<IdlePolicyRegistry>("sleep policies");
    listFamily<DispatchRegistry>("dispatch policies (cluster mode)");
    listFamily<DataplanePolicyRegistry>(
        "dataplane policies (--dataplane=bypass)");
    listFamily<AdmissionPolicyRegistry>(
        "admission policies (resilience.admission)");
}

/** Split "--flag=value" / "--flag value" into (flag, value). */
struct Flag
{
    std::string name;
    std::string value;
    bool hasValue = false;
};

Flag
parseFlag(int argc, char **argv, int &i)
{
    Flag f;
    std::string arg = argv[i];
    std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
        f.name = arg.substr(0, eq);
        f.value = arg.substr(eq + 1);
        f.hasValue = true;
        return f;
    }
    f.name = arg;
    if (i + 1 < argc && argv[i + 1][0] != '-') {
        f.value = argv[++i];
        f.hasValue = true;
    }
    return f;
}

/** True when the config asks for faults or client retries: the extra
 *  robustness rows print only then, keeping fault-free stdout
 *  byte-identical to earlier releases. */
bool
faultsConfigured(const ExperimentConfig &cfg)
{
    for (const auto &[key, value] : cfg.params) {
        (void)value;
        if (key.rfind("fault.", 0) == 0 ||
            key.rfind("client.", 0) == 0)
            return true;
    }
    return false;
}

/** Cluster mode: run, print aggregate + per-host tables, serialise. */
int
runCluster(const ClusterConfig &ccfg, const std::string &json_path,
           const std::string &csv_path)
{
    const ExperimentConfig &cfg = ccfg.base;
    ClusterExperiment exp(ccfg);
    // The experiment derives the host count from a topology.* block;
    // print the derived value, not the pre-derivation config field.
    std::printf("hosts=%d dispatch=%s app=%s policy=%s idle=%s "
                "load=%s cores=%d duration=%.0fms seed=%llu\n",
                exp.config().numHosts, ccfg.dispatch.c_str(),
                cfg.app.name.c_str(), cfg.freqPolicy.c_str(),
                cfg.idlePolicy.c_str(), loadLevelName(cfg.load),
                cfg.numCores, toMilliseconds(cfg.duration),
                static_cast<unsigned long long>(cfg.seed));

    ClusterResult r = exp.run();

    Table table({"metric", "value"});
    table.addRow(
        {"P50 latency (us)", Table::num(toMicroseconds(r.p50), 1)});
    table.addRow(
        {"P99 latency (us)", Table::num(toMicroseconds(r.p99), 1)});
    table.addRow({"P99 / SLO",
                  Table::num(static_cast<double>(r.p99) /
                                 static_cast<double>(r.slo),
                             3)});
    table.addRow({"requests over SLO (%)",
                  Table::num(r.fracOverSlo * 100.0, 3)});
    table.addRow({"energy (J)", Table::num(r.energyJoules, 2)});
    table.addRow(
        {"avg cluster power (W)", Table::num(r.avgPowerWatts, 2)});
    table.addRow({"requests sent", std::to_string(r.requestsSent)});
    table.addRow(
        {"responses received", std::to_string(r.responsesReceived)});
    table.addRow(
        {"requests forwarded", std::to_string(r.requestsForwarded)});
    table.addRow(
        {"switch port drops", std::to_string(r.switchPortDrops)});
    table.addRow(
        {"host NIC drops", std::to_string(r.hostNicDrops)});
    if (faultsConfigured(cfg) || ccfg.fabric.healthInterval > 0) {
        table.addRow({"availability",
                      Table::num(r.availability, 4)});
        table.addRow({"goodput (RPS)", Table::num(r.goodputRps, 0)});
        table.addRow({"requests timed out",
                      std::to_string(r.requestsTimedOut)});
        table.addRow(
            {"retransmits", std::to_string(r.retransmits)});
        table.addRow({"requests in flight",
                      std::to_string(r.requestsInFlight)});
        table.addRow({"fault pkts lost",
                      std::to_string(r.faultPacketsLost)});
        table.addRow({"fault pkts corrupted",
                      std::to_string(r.faultPacketsCorrupted)});
        table.addRow({"link-down drops",
                      std::to_string(r.linkDownDrops)});
        table.addRow({"ejections", std::to_string(r.ejections)});
        table.addRow({"requests rerouted",
                      std::to_string(r.requestsRerouted)});
        if (r.attemptP99 > 0)
            table.addRow({"attempt P99 (us)",
                          Table::num(toMicroseconds(r.attemptP99),
                                     1)});
    }
    // Resilience rows print only when a resilience.* plan is set, so
    // pre-resilience stdout stays byte-identical.
    if (r.resilient) {
        table.addRow(
            {"requests shed", std::to_string(r.requestsShed)});
        table.addRow({"retry budget exhausted",
                      std::to_string(r.retryBudgetExhausted)});
        table.addRow(
            {"shed (admission)", std::to_string(r.shedAdmission)});
        table.addRow(
            {"shed (sojourn)", std::to_string(r.shedSojourn)});
        table.addRow({"shed (deadline)",
                      std::to_string(r.shedDeadline +
                                     r.switchDeadlineSheds)});
        table.addRow({"breaker short-circuits",
                      std::to_string(r.breakerShortCircuits)});
        table.addRow({"breaker transitions",
                      std::to_string(r.breakerTransitions)});
    }
    table.print(std::cout);

    if (!r.tiers.empty()) {
        Table tiers({"tier", "hosts", "dispatch", "hops",
                     "hop p50 (us)", "hop p99 (us)", "over SLO (%)",
                     "p99 share", "energy (J)"});
        for (const ClusterTierResult &t : r.tiers)
            tiers.addRow({t.name, std::to_string(t.hosts),
                          t.dispatch, std::to_string(t.completions),
                          Table::num(toMicroseconds(t.hopP50), 1),
                          Table::num(toMicroseconds(t.hopP99), 1),
                          Table::num(t.fracOverSlo * 100.0, 3),
                          Table::num(t.p99Share, 3),
                          Table::num(t.energyJoules, 2)});
        tiers.print(std::cout);
    }

    const bool tiered = !r.tiers.empty();
    std::vector<std::string> host_cols{
        "host", "freq policy", "idle policy", "served", "p99 (us)",
        "energy (J)", "power (W)", "busy"};
    if (tiered) {
        host_cols.insert(host_cols.begin() + 1, "tier");
        host_cols.insert(host_cols.begin() + 5, "forwarded");
    }
    Table hosts(host_cols);
    for (const ClusterHostResult &h : r.hosts) {
        std::vector<std::string> row{
            std::to_string(h.id), h.freqPolicy, h.idlePolicy,
            std::to_string(h.served),
            Table::num(toMicroseconds(h.p99), 1),
            Table::num(h.energyJoules, 2),
            Table::num(h.avgPowerWatts, 2),
            Table::num(h.busyFraction, 3)};
        if (tiered) {
            row.insert(row.begin() + 1, h.tierName);
            row.insert(row.begin() + 5, std::to_string(h.forwarded));
        }
        hosts.addRow(row);
    }
    hosts.print(std::cout);

    if (!json_path.empty() || !csv_path.empty()) {
        ResultWriter writer;
        appendClusterResultRecord(writer, ccfg, r);
        if (!json_path.empty()) {
            writer.writeJsonFile(json_path);
            std::printf("wrote %s\n", json_path.c_str());
        }
        if (!csv_path.empty()) {
            writer.writeCsvFile(csv_path);
            std::printf("wrote %s\n", csv_path.c_str());
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ClusterConfig ccfg;
    ExperimentConfig &cfg = ccfg.base;
    bool cluster_mode = false;
    bool print_config = false;
    std::string json_path;
    std::string csv_path;

    auto apply = [&ccfg, &cluster_mode](const std::string &key,
                                        const std::string &value) {
        if (setClusterConfigValue(ccfg, key, value))
            cluster_mode = true;
    };

    auto need = [](const Flag &f) -> const std::string & {
        if (!f.hasValue) {
            std::fprintf(stderr, "missing value for %s\n",
                         f.name.c_str());
            std::exit(2);
        }
        return f.value;
    };

    for (int i = 1; i < argc; ++i) {
        Flag f = parseFlag(argc, argv, i);
        try {
            if (f.name == "--help") {
                usage();
                return 0;
            } else if (f.name == "--list-policies") {
                listPolicies();
                return 0;
            } else if (f.name == "--policy") {
                setConfigValue(cfg, "freq_policy", need(f));
            } else if (f.name == "--idle") {
                setConfigValue(cfg, "idle_policy", need(f));
            } else if (f.name == "--app") {
                setConfigValue(cfg, "app", need(f));
            } else if (f.name == "--load") {
                setConfigValue(cfg, "load", need(f));
            } else if (f.name == "--cores") {
                setConfigValue(cfg, "cores", need(f));
            } else if (f.name == "--rps") {
                setConfigValue(cfg, "rps_override", need(f));
            } else if (f.name == "--duration") {
                setConfigValue(cfg, "duration", need(f));
            } else if (f.name == "--warmup") {
                setConfigValue(cfg, "warmup", need(f));
            } else if (f.name == "--seed") {
                setConfigValue(cfg, "seed", need(f));
            } else if (f.name == "--hosts") {
                apply("hosts", need(f));
            } else if (f.name == "--dispatch") {
                apply("dispatch", need(f));
            } else if (f.name == "--dataplane") {
                apply("dataplane.mode", need(f));
            } else if (f.name == "--set") {
                const std::string &kv = need(f);
                std::size_t eq = kv.find('=');
                if (eq == std::string::npos) {
                    std::fprintf(stderr,
                                 "--set expects KEY=VALUE, got '%s'\n",
                                 kv.c_str());
                    return 2;
                }
                apply(kv.substr(0, eq), kv.substr(eq + 1));
            } else if (f.name == "--fault") {
                const std::string &kv = need(f);
                std::size_t eq = kv.find('=');
                if (eq == std::string::npos) {
                    std::fprintf(
                        stderr,
                        "--fault expects KEY=VALUE, got '%s'\n",
                        kv.c_str());
                    return 2;
                }
                apply("fault." + kv.substr(0, eq),
                      kv.substr(eq + 1));
            } else if (f.name == "--config") {
                std::ifstream is(need(f));
                if (!is) {
                    std::fprintf(stderr, "cannot read '%s'\n",
                                 f.value.c_str());
                    return 2;
                }
                std::ostringstream text;
                text << is.rdbuf();
                ccfg = ClusterConfig{};
                cluster_mode = false;
                readConfigLines(text.str(), apply);
            } else if (f.name == "--print-config") {
                print_config = true;
            } else if (f.name == "--json") {
                json_path = need(f);
            } else if (f.name == "--csv") {
                csv_path = need(f);
            } else {
                std::fprintf(stderr,
                             "unknown flag: %s (see --help)\n",
                             f.name.c_str());
                return 2;
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
    }

    if (print_config) {
        std::fputs(cluster_mode ? printClusterConfig(ccfg).c_str()
                                : printConfig(cfg).c_str(),
                   stdout);
        return 0;
    }

    // Constructing the harness validates the whole config, so a bad
    // config fails before the banner prints.
    try {
        if (cluster_mode)
            return runCluster(ccfg, json_path, csv_path);

        Experiment exp(cfg);
        std::printf("app=%s policy=%s idle=%s load=%s cores=%d "
                    "duration=%.0fms seed=%llu\n",
                    cfg.app.name.c_str(), cfg.freqPolicy.c_str(),
                    cfg.idlePolicy.c_str(), loadLevelName(cfg.load),
                    cfg.numCores, toMilliseconds(cfg.duration),
                    static_cast<unsigned long long>(cfg.seed));

        ExperimentResult r = exp.run();

        Table table({"metric", "value"});
        table.addRow({"P50 latency (us)",
                      Table::num(toMicroseconds(r.p50), 1)});
        table.addRow({"P99 latency (us)",
                      Table::num(toMicroseconds(r.p99), 1)});
        table.addRow(
            {"P99 / SLO",
             Table::num(static_cast<double>(r.p99) /
                            static_cast<double>(r.slo),
                        3)});
        table.addRow({"requests over SLO (%)",
                      Table::num(r.fracOverSlo * 100.0, 3)});
        table.addRow({"energy (J)", Table::num(r.energyJoules, 2)});
        table.addRow({"avg package power (W)",
                      Table::num(r.avgPowerWatts, 2)});
        table.addRow(
            {"requests sent", std::to_string(r.requestsSent)});
        table.addRow({"responses received",
                      std::to_string(r.responsesReceived)});
        table.addRow({"NIC drops", std::to_string(r.nicDrops)});
        table.addRow(
            {"pkts interrupt mode", std::to_string(r.pktsIntrMode)});
        table.addRow(
            {"pkts polling mode", std::to_string(r.pktsPollMode)});
        table.addRow(
            {"ksoftirqd wakes", std::to_string(r.ksoftirqdWakes)});
        table.addRow(
            {"V/F transitions", std::to_string(r.pstateTransitions)});
        table.addRow({"CC6 wakes", std::to_string(r.cc6Wakes)});
        table.addRow({"mean core busy fraction",
                      Table::num(r.busyFraction, 3)});
        if (r.niThresholdUsed > 0.0) {
            table.addRow(
                {"NI_TH used", Table::num(r.niThresholdUsed, 1)});
            table.addRow(
                {"CU_TH used", Table::num(r.cuThresholdUsed, 2)});
        }
        // Bypass rows only for bypass runs: default-mode stdout stays
        // byte-identical to earlier releases.
        if (r.bypass) {
            table.addRow({"bypass poll loops",
                          std::to_string(r.bypassPollLoops)});
            table.addRow({"bypass empty polls",
                          std::to_string(r.bypassEmptyPolls)});
            table.addRow({"bypass poll sleeps",
                          std::to_string(r.bypassSleeps)});
            table.addRow(
                {"bypass sleep residency (ms)",
                 Table::num(toMilliseconds(r.bypassSleepResidency),
                            2)});
            table.addRow({"wasted poll energy (J)",
                          Table::num(r.bypassWastedPollEnergy, 3)});
        }
        if (faultsConfigured(cfg)) {
            table.addRow({"availability",
                          Table::num(r.availability, 4)});
            table.addRow({"requests timed out",
                          std::to_string(r.requestsTimedOut)});
            table.addRow(
                {"retransmits", std::to_string(r.retransmits)});
            table.addRow({"requests in flight",
                          std::to_string(r.requestsInFlight)});
            table.addRow({"duplicate responses",
                          std::to_string(r.duplicateResponses)});
            table.addRow({"fault pkts lost",
                          std::to_string(r.faultPacketsLost)});
            table.addRow({"fault pkts corrupted",
                          std::to_string(r.faultPacketsCorrupted)});
            table.addRow({"link-down drops",
                          std::to_string(r.linkDownDrops)});
            if (r.attemptP99 > 0)
                table.addRow(
                    {"attempt P99 (us)",
                     Table::num(toMicroseconds(r.attemptP99), 1)});
        }
        if (r.resilient) {
            table.addRow(
                {"requests shed", std::to_string(r.requestsShed)});
            table.addRow({"retry budget exhausted",
                          std::to_string(r.retryBudgetExhausted)});
            table.addRow({"shed (admission)",
                          std::to_string(r.shedAdmission)});
            table.addRow(
                {"shed (sojourn)", std::to_string(r.shedSojourn)});
            table.addRow(
                {"shed (deadline)", std::to_string(r.shedDeadline)});
        }
        table.print(std::cout);

        if (!json_path.empty() || !csv_path.empty()) {
            ResultWriter writer;
            appendResultRecord(writer, cfg, r);
            if (!json_path.empty()) {
                writer.writeJsonFile(json_path);
                std::printf("wrote %s\n", json_path.c_str());
            }
            if (!csv_path.empty()) {
                writer.writeCsvFile(csv_path);
                std::printf("wrote %s\n", csv_path.c_str());
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    return 0;
}
