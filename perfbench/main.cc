/**
 * @file
 * nmapsim benchmark binary (see perfbench/README.md).
 *
 *   nmapsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                     [--conf-dir DIR] [--out-dir DIR]
 *                     [--commit ID] [--source-hash HASH]
 *
 * Set-up (timed as setup_s) parses the workload's generated configs and
 * runs a short warm-up, several times; then the closed loop runs whole
 * iterations until S seconds have passed, on min(4, nproc) sweep
 * workers whatever NMAPSIM_JOBS says. With --trace 0 it reports the
 * end-to-end metrics; with --trace 1 it alternates untraced and traced
 * iterations, re-runs auto-profiled points with pinned thresholds, runs
 * the layer micros and reports the per-layer metrics. The last stdout
 * line is one JSON object: correct, attempted, failed, metrics.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "resilience/plan.hh"
#include "stats/result_writer.hh"

using namespace perfbench;

namespace {

/** Stamped before the simulator's static registrars run (they use the
 *  default priority), so setup_s covers static initialisation. */
struct ProcessStart
{
    double at = wallNow();
};
ProcessStart processStart __attribute__((init_priority(101)));

constexpr int kMaxWorkers = 4;
constexpr int kSetupRounds = 5;
constexpr double kWarmupFraction = 0.1;
constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMaxViolationsShown = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string confDir = "perfbench/workloads";
    std::string outDir = ".bench_out";
    std::string commit = "unknown";
    std::string sourceHash = "unknown";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string v = argv[i + 1];
        if (key == "--workload") {
            a.workload = v;
        } else if (key == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (key == "--trace") {
            a.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else if (key == "--conf-dir") {
            a.confDir = v;
        } else if (key == "--out-dir") {
            a.outDir = v;
        } else if (key == "--commit") {
            a.commit = v;
        } else if (key == "--source-hash") {
            a.sourceHash = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty() && have_seed &&
           have_trace && a.seconds > 0.0;
}

int
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer timings of one traced iteration, read from its spans. */
struct TracedIteration
{
    double run = 0.0;    //!< sum of harness.run spans
    double record = 0.0; //!< sum of stats.record_write spans
    double sweep = 0.0;  //!< the harness.sweep span
    std::vector<double> points; //!< harness.sweep_point spans
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (const Metric &m : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(m.name);
        out += ": {\"value\": ";
        out += nmapsim::ResultWriter::formatDouble(m.value);
        out += ", \"unit\": ";
        out += jsonString(m.unit);
        out += "}";
    }
    return out + "}";
}

class Bench
{
  public:
    explicit Bench(const Args &a) : a_(a) {}

    int run(double static_init);

  private:
    void setUp(double static_init);
    void loop();
    void gate(Iteration &it, std::int64_t idx);
    double pinnedRerun(Iteration &it);
    std::vector<Metric> endToEnd() const;
    std::vector<Metric> perLayer();
    void printSelfTimes(const std::vector<Span> &spans,
                        std::size_t traced) const;
    void writeResult(const std::vector<Metric> &metrics,
                     bool correct) const;

    const Args &a_;
    /** Fixed sweep pool size, recorded with every result. */
    const int jobs_ = std::max(1, std::min(kMaxWorkers, onlineCpus()));
    std::vector<Point> points_;
    int workers_ = 1; //!< jobs_ capped at the point count

    double setupS_ = 0.0;
    std::vector<double> parseS_;
    std::vector<std::string> setupViolations_;

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t violationsShown_ = 0;
    bool haveRef_ = false;
    Iteration ref_; //!< the first timed iteration: counters + records

    std::vector<double> rate_;      //!< untraced sim-s per wall-s
    std::vector<double> cpuPerSim_; //!< untraced CPU-s per sim-s
    std::vector<double> tracedRate_;
    std::map<std::int64_t, double> profileS_; //!< by traced iteration
    SpanLog log_;
};

void
Bench::setUp(double static_init)
{
    std::vector<double> rounds;
    for (int r = 0; r < kSetupRounds; ++r) {
        const double t0 = wallNow();
        points_ = parsePoints(
            workloadTexts(a_.workload, a_.confDir, a_.seed));
        parseS_.push_back(wallNow() - t0);
        const Iteration warm = runIteration(
            scaledPoints(points_, kWarmupFraction), jobs_, nullptr, -1);
        setupViolations_.insert(setupViolations_.end(),
                                warm.violations.begin(),
                                warm.violations.end());
        rounds.push_back(wallNow() - t0);
    }
    setupS_ = static_init + median(rounds);
    workers_ = std::min<int>(jobs_, static_cast<int>(points_.size()));
}

void
Bench::gate(Iteration &it, std::int64_t idx)
{
    if (!haveRef_) {
        ref_ = it;
        haveRef_ = true;
    } else {
        if (it.counters.events != ref_.counters.events)
            it.violations.push_back("sim.events differs from the first "
                                    "iteration");
        if (it.records != ref_.records)
            it.violations.push_back("result records differ from the "
                                    "first iteration");
    }
    if (it.violations.empty())
        return;
    ++failed_;
    for (const std::string &v : it.violations)
        if (violationsShown_++ < kMaxViolationsShown)
            std::fprintf(stderr, "perfbench: iteration %lld: %s\n",
                         static_cast<long long>(idx), v.c_str());
}

/** Seconds the auto-profiled points of @p it spent beyond the same
 *  points re-run with their reported thresholds pinned; 0 when nothing
 *  profiled. A re-run that fails or simulates differently fails @p it. */
double
Bench::pinnedRerun(Iteration &it)
{
    std::vector<Point> pinned;
    if (!pinnedPoints(points_, it, pinned))
        return 0.0;
    const Iteration again = runIteration(pinned, jobs_, nullptr, -1);
    it.violations.insert(it.violations.end(), again.violations.begin(),
                         again.violations.end());
    if (again.counters.events != it.counters.events)
        it.violations.push_back("pinned re-run changed sim.events");
    double saved = 0.0;
    for (std::size_t i = 0; i < points_.size(); ++i)
        if (!it.outcomes[i].profiled.empty())
            saved += it.pointWalls[i] - again.pointWalls[i];
    return saved;
}

void
Bench::loop()
{
    const double start = wallNow();
    std::size_t traced = 0;
    std::size_t untraced = 0;
    auto done = [&] {
        if (wallNow() - start < a_.seconds)
            return false;
        return a_.trace ? traced >= 2 && untraced >= 2
                        : untraced >= kMinIterations;
    };
    for (std::int64_t idx = 0; !done(); ++idx) {
        const bool traced_iter = a_.trace && idx % 2 == 1;
        Iteration it = runIteration(points_, jobs_,
                                    traced_iter ? &log_ : nullptr, idx);
        ++attempted_;
        if (traced_iter) {
            ++traced;
            tracedRate_.push_back(it.simSeconds / it.wall);
            profileS_[idx] = pinnedRerun(it);
        } else {
            ++untraced;
            rate_.push_back(it.simSeconds / it.wall);
            cpuPerSim_.push_back(it.cpu / it.simSeconds);
        }
        gate(it, idx);
    }
}

std::vector<Metric>
Bench::endToEnd() const
{
    return {
        {"sim_s_per_wall_s", median(rate_), "s/s"},
        {"cpu_s_per_sim_s", median(cpuPerSim_), "s/s"},
        {"setup_s", setupS_, "s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
}

std::vector<Metric>
Bench::perLayer()
{
    const std::vector<Span> spans = log_.spans();
    printSelfTimes(spans, profileS_.size());
    std::map<std::int64_t, TracedIteration> by_iter;
    for (const Span &s : spans) {
        if (s.iteration < 0)
            continue;
        TracedIteration &t = by_iter[s.iteration];
        const double d = s.end - s.start;
        if (s.name == "harness.run")
            t.run += d;
        else if (s.name == "stats.record_write")
            t.record += d;
        else if (s.name == "harness.sweep")
            t.sweep = d;
        else if (s.name == "harness.sweep_point")
            t.points.push_back(d);
    }
    const Counters &c = ref_.counters;
    std::vector<double> run, record, p50, pmax, busy, ns_per_event;
    for (const auto &[idx, t] : by_iter) {
        const double profile = profileS_.at(idx);
        run.push_back(t.run);
        record.push_back(t.record);
        p50.push_back(median(t.points));
        pmax.push_back(*std::max_element(t.points.begin(),
                                         t.points.end()));
        double point_sum = 0.0;
        for (double p : t.points)
            point_sum += p;
        busy.push_back(ratio(point_sum, workers_ * t.sweep));
        ns_per_event.push_back(
            ratio((t.run - profile) * 1e9, static_cast<double>(c.events)));
    }
    std::vector<double> profile_s;
    for (const auto &[idx, s] : profileS_)
        profile_s.push_back(s);

    MicroPlan plan;
    plan.latencySamples = c.maxSamples;
    for (const Point &p : points_) {
        if (p.cluster && plan.dispatch.empty())
            plan.dispatch = p.multi.dispatch;
        const nmapsim::ExperimentConfig &base =
            p.cluster ? p.multi.base : p.single;
        plan.resilience |=
            nmapsim::ResiliencePlan::fromParams(base.params).enabled();
    }
    std::map<std::string, double> micro = runMicros(plan);

    const double intr = static_cast<double>(c.intrPkts);
    const double poll = static_cast<double>(c.pollPkts);
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"sim.events", count(c.events), "count"},
        {"sim.ns_per_event", median(ns_per_event), "ns"},
        {"sim.eq.schedule_step_ns", micro["sim.eq.schedule_step_ns"], "ns"},
        {"sim.eq.reschedule_ns", micro["sim.eq.reschedule_ns"], "ns"},
        {"net.nic.rx_harvested", count(c.rxHarvested), "count"},
        {"net.nic.tx_consumed", count(c.txConsumed), "count"},
        {"net.nic.drops", count(c.nicDrops), "count"},
        {"net.wire.fault_lost", count(c.faultLost), "count"},
        {"net.wire.link_down_drops", count(c.linkDownDrops), "count"},
        {"net.nic.rx_steer_pop_ns", micro["net.nic.rx_steer_pop_ns"], "ns"},
        {"net.wire.send_deliver_ns", micro["net.wire.send_deliver_ns"],
         "ns"},
        {"cluster.forwarded", count(c.forwarded), "count"},
        {"cluster.port_drops", count(c.portDrops), "count"},
        {"cluster.east_west_forwards", count(c.eastWest), "count"},
        {"cluster.ejections", count(c.ejections), "count"},
        {"cluster.rerouted", count(c.rerouted), "count"},
        {"cluster.dispatch.pick_ns", micro["cluster.dispatch.pick_ns"],
         "ns"},
        {"os.napi.intr_pkts", intr, "count"},
        {"os.napi.poll_pkts", poll, "count"},
        {"os.napi.poll_share", ratio(poll, intr + poll), "ratio"},
        {"os.ksoftirqd_wakes", count(c.ksoftirqdWakes), "count"},
        {"cpu.pstate_transitions", count(c.pstateTransitions), "count"},
        {"cpu.cc6_wakes", count(c.cc6Wakes), "count"},
        {"cpu.cc1_wakes", count(c.cc1Wakes), "count"},
        {"cpu.busy_frac", ratio(c.busySum, count(c.servers)), "ratio"},
        {"nmap.profile_passes", count(c.profilePasses), "count"},
        {"nmap.profile_s", median(profile_s), "s"},
        {"harness.config_parse_s", median(parseS_), "s"},
        {"harness.run_s", median(run), "s"},
        {"harness.sweep_point_s_p50", median(p50), "s"},
        {"harness.sweep_point_s_max", median(pmax), "s"},
        {"harness.sweep_busy_frac", median(busy), "ratio"},
        {"stats.record_write_s", median(record), "s"},
        {"stats.latency.record_ns", micro["stats.latency.record_ns"], "ns"},
        {"stats.latency.p99_ns", micro["stats.latency.p99_ns"], "ns"},
        {"workload.sent", count(c.sent), "count"},
        {"workload.received", count(c.received), "count"},
        {"workload.retransmits", count(c.retransmits), "count"},
        {"workload.timed_out", count(c.timedOut), "count"},
        {"workload.useful_frac",
         ratio(count(c.received), count(c.sent + c.retransmits)), "ratio"},
        {"workload.rng_lognormal_ns", micro["workload.rng_lognormal_ns"],
         "ns"},
        {"resilience.shed", count(c.shed), "count"},
        {"resilience.breaker_short_circuits", count(c.shortCircuits),
         "count"},
        {"resilience.budget_exhausted", count(c.budgetExhausted), "count"},
        {"resilience.admit_ns", micro["resilience.admit_ns"], "ns"},
        {"resilience.breaker_ns", micro["resilience.breaker_ns"], "ns"},
        {"model.p99_us", ratio(c.p99UsSum, count(c.points)), "us"},
        {"model.energy_j", c.energyJ, "J"},
        {"trace.overhead_frac",
         ratio(median(rate_), median(tracedRate_)) - 1.0, "ratio"},
    };
}

void
Bench::printSelfTimes(const std::vector<Span> &spans,
                      std::size_t traced) const
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, std::pair<double, std::size_t>> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &[sum, n] = by_name[spans[i].name];
        sum += self[i];
        ++n;
    }
    std::printf("span self time per traced iteration (%zu spans):\n",
                spans.size());
    for (const auto &[name, agg] : by_name)
        std::printf("  %-22s %10.6f s  (%zu spans)\n", name.c_str(),
                    ratio(agg.first, static_cast<double>(traced)),
                    agg.second);
}

void
Bench::writeResult(const std::vector<Metric> &metrics, bool correct) const
{
    const std::string stem = a_.outDir + "/" + a_.workload + "-seed" +
                             std::to_string(a_.seed);
    std::ofstream out(stem + "-trace" + (a_.trace ? "1" : "0") + ".json",
                      std::ios::binary);
    if (!out)
        nmapsim::fatal("perfbench: cannot write results under " +
                       a_.outDir);
    auto list = [](const std::vector<double> &v) {
        std::string s = "[";
        for (double x : v) {
            if (s.size() > 1)
                s += ", ";
            s += nmapsim::ResultWriter::formatDouble(x);
        }
        return s + "]";
    };
    out << "{\"workload\": " << jsonString(a_.workload)
        << ", \"seed\": " << a_.seed << ", \"trace\": " << a_.trace
        << ", \"nproc\": " << onlineCpus() << ", \"workers\": " << jobs_
        << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
        << ", \"lto\": " << (PERFBENCH_LTO ? "true" : "false")
        << ", \"commit\": " << jsonString(a_.commit)
        << ", \"source_hash\": " << jsonString(a_.sourceHash)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"sim_s_per_wall_s\": " << list(rate_)
        << ", \"traced_sim_s_per_wall_s\": " << list(tracedRate_)
        << ", \"cpu_s_per_sim_s\": " << list(cpuPerSim_)
        << ", \"metrics\": " << metricsJson(metrics) << "}\n";
    if (a_.trace)
        writeSpans(log_.spans(), stem + "-spans.json");
}

int
Bench::run(double static_init)
{
    std::printf("perfbench: workload=%s seed=%llu nproc=%d workers=%d "
                "build=%s lto=%d commit=%s source=%s\n",
                a_.workload.c_str(),
                static_cast<unsigned long long>(a_.seed), onlineCpus(),
                jobs_, PERFBENCH_BUILD_TYPE, PERFBENCH_LTO,
                a_.commit.c_str(), a_.sourceHash.c_str());
    setUp(static_init);
    for (const std::string &v : setupViolations_)
        std::fprintf(stderr, "perfbench: warm-up: %s\n", v.c_str());
    loop();

    const std::vector<Metric> metrics = a_.trace ? perLayer() : endToEnd();
    bool correct = setupViolations_.empty() && failed_ == 0;
    for (const Metric &m : metrics) {
        correct = correct && std::isfinite(m.value);
        std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("iterations: %llu attempted, %llu failed; sim-s per "
                "iteration %.3f\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                haveRef_ ? ref_.simSeconds : 0.0);
    writeResult(metrics, correct);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                metricsJson(metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const double main_entry = wallNow();
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: nmapsim_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--conf-dir DIR] "
                     "[--out-dir DIR] [--commit ID] [--source-hash H]\n");
        return 2;
    }
    try {
        return Bench(args).run(main_entry - processStart.at);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
