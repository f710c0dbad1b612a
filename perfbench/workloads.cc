/**
 * @file
 * Workload generation, parsing and the closed-loop iteration.
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>

#include "harness/cluster_io.hh"
#include "harness/config_io.hh"
#include "harness/result_io.hh"
#include "harness/sweep.hh"
#include "perfbench.hh"
#include "sim/logging.hh"
#include "stats/result_writer.hh"

using namespace nmapsim;

namespace perfbench {

namespace {

/** One point of a workload before parsing: a template plus overlays. */
struct Template
{
    std::string label;
    std::string file;
    bool cluster = false;
    std::vector<std::string> overlays; //!< extra key=value lines
};

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("perfbench: cannot read workload config " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<Template>
templates(const std::string &workload)
{
    if (workload == "host_nmap_high")
        return {{"host", "host_nmap_high.conf", false, {}}};
    if (workload == "cluster_flowhash_high")
        return {{"cluster", "cluster_flowhash_high.conf", true, {}}};
    if (workload == "chain_chaos")
        return {{"chain", "chain_chaos.conf", true, {}}};
    if (workload == "sweep_nmap_profiled") {
        // The cluster point is the longest; submitted first, it starts
        // first on the pool and does not trail the grid.
        std::vector<Template> out = {
            {"cluster8/low", "sweep_nmap_cluster.conf", true, {}}};
        for (const char *app : {"memcached", "nginx"})
            for (const char *load : {"low", "med", "high"})
                for (const char *idle : {"menu", "c6only"})
                    out.push_back(
                        {std::string(app) + "/" + load + "/" + idle,
                         "sweep_nmap_cell.conf",
                         false,
                         {std::string("app=") + app,
                          std::string("load=") + load,
                          std::string("idle_policy=") + idle}});
        return out;
    }
    fatal("perfbench: unknown workload '" + workload + "'");
    return {};
}

/** Scale an absolute-time params key (fault schedule) by @p frac. */
void
scaleTickParam(PolicyParams &params, const std::string &key, double frac)
{
    if (params.has(key))
        params.setTick(key, static_cast<Tick>(static_cast<double>(
                                                  params.getTick(key, 0)) *
                                              frac));
}

Tick
scaled(Tick t, double frac)
{
    return static_cast<Tick>(static_cast<double>(t) * frac);
}

/** Single-host conservation identities the run must satisfy. */
void
checkSingle(const std::string &label, const ExperimentResult &r,
            std::vector<std::string> &violations)
{
    if (r.pktsIntrMode + r.pktsPollMode !=
        r.nicRxHarvested + r.nicTxConsumed)
        violations.push_back(label + ": intr + poll != rx_harvested + "
                                     "tx_consumed");
    if (r.requestsSent != r.responsesReceived + r.requestsTimedOut +
                              r.requestsShed + r.requestsInFlight)
        violations.push_back(label + ": sent != received + timed_out + "
                                     "shed + in_flight");
    if (r.requestsSent < r.responsesReceived + r.nicDrops)
        violations.push_back(label + ": sent < received + nic_drops");
}

/** Whether a server with @p params auto-profiled and reported @p ni. */
bool
autoProfiled(const PolicyParams &params, double ni)
{
    return ni > 0.0 && params.getDouble("nmap.ni_th", 0.0) <= 0.0 &&
           params.getBool("nmap.auto_profile", true);
}

PointOutcome
runSingle(const Point &p, SpanLog *log, std::int64_t parent,
          std::int64_t iteration)
{
    PointOutcome out;
    ExperimentResult r;
    {
        ScopedSpan span(log, "harness.run", parent, iteration);
        r = Experiment(p.single).run();
    }
    {
        ScopedSpan span(log, "stats.record_write", parent, iteration);
        ResultWriter writer;
        appendResultRecord(writer, p.single, r);
        std::ostringstream os;
        writer.writeJson(os);
        out.record = os.str();
    }
    Counters &c = out.counters;
    c.events = r.eventsProcessed;
    c.rxHarvested = r.nicRxHarvested;
    c.txConsumed = r.nicTxConsumed;
    c.nicDrops = r.nicDrops;
    c.faultLost = r.faultPacketsLost;
    c.linkDownDrops = r.linkDownDrops;
    c.intrPkts = r.pktsIntrMode;
    c.pollPkts = r.pktsPollMode;
    c.ksoftirqdWakes = r.ksoftirqdWakes;
    c.pstateTransitions = r.pstateTransitions;
    c.cc6Wakes = r.cc6Wakes;
    c.cc1Wakes = r.cc1Wakes;
    c.busySum = r.busyFraction;
    c.servers = 1;
    c.sent = r.requestsSent;
    c.received = r.responsesReceived;
    c.retransmits = r.retransmits;
    c.timedOut = r.requestsTimedOut;
    c.shed = r.requestsShed;
    c.budgetExhausted = r.retryBudgetExhausted;
    c.p99UsSum = toMicroseconds(r.p99);
    c.energyJ = r.energyJoules;
    c.points = 1;
    c.maxSamples = r.responsesReceived;
    if (autoProfiled(p.single.params, r.niThresholdUsed)) {
        out.profiled.push_back(
            {0, {r.niThresholdUsed, r.cuThresholdUsed}});
        c.profilePasses = 1;
    }
    checkSingle(p.label, r, out.violations);
    return out;
}

PointOutcome
runCluster(const Point &p, SpanLog *log, std::int64_t parent,
           std::int64_t iteration)
{
    PointOutcome out;
    ClusterResult r;
    ClusterExperiment exp(p.multi);
    {
        ScopedSpan span(log, "harness.run", parent, iteration);
        r = exp.run();
    }
    {
        ScopedSpan span(log, "stats.record_write", parent, iteration);
        ResultWriter writer;
        appendClusterResultRecord(writer, p.multi, r);
        std::ostringstream os;
        writer.writeJson(os);
        out.record = os.str();
    }
    Counters &c = out.counters;
    c.events = r.eventsProcessed;
    c.nicDrops = r.hostNicDrops;
    c.faultLost = r.faultPacketsLost;
    c.linkDownDrops = r.linkDownDrops;
    c.forwarded = r.requestsForwarded;
    c.portDrops = r.switchPortDrops;
    c.eastWest = r.eastWestForwards;
    c.ejections = r.ejections;
    c.rerouted = r.requestsRerouted;
    c.sent = r.requestsSent;
    c.received = r.responsesReceived;
    c.retransmits = r.retransmits;
    c.timedOut = r.requestsTimedOut;
    c.shed = r.requestsShed;
    c.shortCircuits = r.breakerShortCircuits;
    c.budgetExhausted = r.retryBudgetExhausted;
    c.p99UsSum = toMicroseconds(r.p99);
    c.energyJ = r.energyJoules;
    c.points = 1;
    c.maxSamples = r.responsesReceived;
    for (const ClusterHostResult &h : r.hosts) {
        c.intrPkts += h.pktsIntrMode;
        c.pollPkts += h.pktsPollMode;
        c.ksoftirqdWakes += h.ksoftirqdWakes;
        c.pstateTransitions += h.pstateTransitions;
        c.cc6Wakes += h.cc6Wakes;
        c.cc1Wakes += h.cc1Wakes;
        c.busySum += h.busyFraction;
        c.servers += 1;
        if (autoProfiled(exp.hostConfig(h.id).params,
                         h.niThresholdUsed)) {
            out.profiled.push_back(
                {h.id, {h.niThresholdUsed, h.cuThresholdUsed}});
            c.profilePasses += 1;
        }
    }
    // ClusterHostResult carries no rx_harvested / tx_consumed, so the
    // NAPI identity is checked on single-host runs only.
    if (r.requestsSent != r.responsesReceived + r.requestsTimedOut +
                              r.requestsShed + r.requestsInFlight)
        out.violations.push_back(p.label +
                                 ": sent != received + timed_out + "
                                 "shed + in_flight");
    return out;
}

} // namespace

void
Counters::add(const Counters &o)
{
    events += o.events;
    rxHarvested += o.rxHarvested;
    txConsumed += o.txConsumed;
    nicDrops += o.nicDrops;
    faultLost += o.faultLost;
    linkDownDrops += o.linkDownDrops;
    forwarded += o.forwarded;
    portDrops += o.portDrops;
    eastWest += o.eastWest;
    ejections += o.ejections;
    rerouted += o.rerouted;
    intrPkts += o.intrPkts;
    pollPkts += o.pollPkts;
    ksoftirqdWakes += o.ksoftirqdWakes;
    pstateTransitions += o.pstateTransitions;
    cc6Wakes += o.cc6Wakes;
    cc1Wakes += o.cc1Wakes;
    busySum += o.busySum;
    servers += o.servers;
    profilePasses += o.profilePasses;
    sent += o.sent;
    received += o.received;
    retransmits += o.retransmits;
    timedOut += o.timedOut;
    shed += o.shed;
    shortCircuits += o.shortCircuits;
    budgetExhausted += o.budgetExhausted;
    p99UsSum += o.p99UsSum;
    energyJ += o.energyJ;
    points += o.points;
    maxSamples = std::max(maxSamples, o.maxSamples);
}

std::vector<std::string>
workloadNames()
{
    return {"host_nmap_high", "cluster_flowhash_high",
            "sweep_nmap_profiled", "chain_chaos"};
}

std::vector<PointText>
workloadTexts(const std::string &workload, const std::string &conf_dir,
              std::uint64_t seed)
{
    std::vector<PointText> out;
    std::uint64_t index = 0;
    for (const Template &t : templates(workload)) {
        std::string text = readFile(conf_dir + "/" + t.file);
        if (!text.empty() && text.back() != '\n')
            text += '\n';
        for (const std::string &line : t.overlays)
            text += line + "\n";
        // Per-point seeds: distinct across points, fixed by --seed.
        text += "seed=" +
                std::to_string(splitmix64(seed * 1000003ULL + index++) >>
                               16) +
                "\n";
        out.push_back({t.label, t.cluster, std::move(text)});
    }
    return out;
}

std::vector<Point>
parsePoints(const std::vector<PointText> &texts)
{
    std::vector<Point> points;
    points.reserve(texts.size());
    for (const PointText &t : texts) {
        Point p;
        p.label = t.label;
        p.cluster = t.cluster;
        // Construction validates (policy names, plans, topology).
        if (t.cluster) {
            p.multi = parseClusterConfig(t.text);
            ClusterExperiment validate(p.multi);
        } else {
            p.single = parseConfig(t.text);
            Experiment validate(p.single);
        }
        points.push_back(std::move(p));
    }
    return points;
}

std::vector<Point>
scaledPoints(std::vector<Point> points, double frac)
{
    for (Point &p : points) {
        ExperimentConfig &base = p.cluster ? p.multi.base : p.single;
        base.warmup = scaled(base.warmup, frac);
        base.duration = scaled(base.duration, frac);
        scaleTickParam(base.params, "fault.crash_at", frac);
        scaleTickParam(base.params, "fault.recover_at", frac);
        if (p.cluster)
            p.multi.drain = scaled(p.multi.drain, frac);
    }
    return points;
}

double
simSeconds(const Point &p)
{
    if (p.cluster)
        return toSeconds(p.multi.base.warmup + p.multi.base.duration +
                         p.multi.drain);
    return toSeconds(p.single.warmup + p.single.duration);
}

Iteration
runIteration(const std::vector<Point> &points, int jobs, SpanLog *log,
             std::int64_t iteration)
{
    Iteration it;
    ScopedSpan root(log, "perfbench.iteration", -1, iteration);
    const double wall0 = wallNow();
    const double cpu0 = cpuNow();
    std::vector<SweepSlot<PointOutcome>> slots;
    {
        ScopedSpan sweep(log, "harness.sweep", root.id(), iteration);
        std::vector<std::function<PointOutcome()>> tasks;
        tasks.reserve(points.size());
        for (const Point &p : points) {
            const std::int64_t parent = sweep.id();
            tasks.emplace_back([&p, log, parent, iteration] {
                ScopedSpan span(log, "harness.sweep_point", parent,
                                iteration);
                return p.cluster
                           ? runCluster(p, log, span.id(), iteration)
                           : runSingle(p, log, span.id(), iteration);
            });
        }
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.tag = "perfbench";
        slots = runParallel(tasks, opts);
    }
    it.wall = wallNow() - wall0;
    it.cpu = cpuNow() - cpu0;

    ScopedSpan collect(log, "perfbench.collect", root.id(), iteration);
    for (std::size_t i = 0; i < points.size(); ++i) {
        it.simSeconds += simSeconds(points[i]);
        it.pointWalls.push_back(slots[i].wallSeconds());
        if (!slots[i].ok()) {
            it.violations.push_back(points[i].label +
                                    ": threw: " + slots[i].error());
            it.outcomes.emplace_back();
            continue;
        }
        PointOutcome &o = slots[i].value();
        it.counters.add(o.counters);
        it.records += o.record;
        it.violations.insert(it.violations.end(), o.violations.begin(),
                             o.violations.end());
        it.outcomes.push_back(std::move(o));
    }
    return it;
}

bool
pinnedPoints(const std::vector<Point> &points, const Iteration &ref,
             std::vector<Point> &out)
{
    out = points;
    bool any = false;
    for (std::size_t i = 0; i < out.size(); ++i) {
        for (const auto &[host, th] : ref.outcomes[i].profiled) {
            any = true;
            PolicyParams *params = &out[i].single.params;
            if (out[i].cluster) {
                ClusterConfig &c = out[i].multi;
                if (c.hosts.empty())
                    c.hosts.resize(static_cast<std::size_t>(
                        ClusterExperiment(c).config().numHosts));
                params = &c.hosts[static_cast<std::size_t>(host)].params;
            }
            params->set("nmap.ni_th", th.first);
            params->set("nmap.cu_th", th.second);
        }
    }
    return any;
}

} // namespace perfbench
