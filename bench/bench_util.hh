/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure from the paper's
 * evaluation: it runs the relevant experiments and prints the same
 * rows/series the paper plots. Absolute values come from the simulator
 * and will differ from the authors' testbed; the *shape* (who meets the
 * SLO, who wins energy, where crossovers fall) is the reproduction
 * target — see EXPERIMENTS.md.
 */

#ifndef NMAPSIM_BENCH_BENCH_UTIL_HH_
#define NMAPSIM_BENCH_BENCH_UTIL_HH_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/cluster.hh"
#include "harness/cluster_io.hh"
#include "harness/experiment.hh"
#include "harness/result_io.hh"
#include "harness/sweep.hh"
#include "stats/result_writer.hh"

namespace nmapsim {
namespace bench {

/** Print a standard bench banner. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("==============================================================\n");
}

/**
 * Duration scale: NMAPSIM_BENCH_SCALE (default 1.0) multiplies the
 * measurement window of every bench so CI can run them fast and a
 * paper-grade run can use longer windows.
 */
inline double
durationScale()
{
    const char *env = std::getenv("NMAPSIM_BENCH_SCALE");
    if (!env)
        return 1.0;
    double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
}

/** Default experiment config for one app/load/policy cell. */
inline ExperimentConfig
cellConfig(const AppProfile &app, LoadLevel load,
           const std::string &policy, const std::string &idle = "menu")
{
    ExperimentConfig cfg;
    cfg.app = app;
    cfg.load = load;
    cfg.freqPolicy = policy;
    cfg.idlePolicy = idle;
    cfg.warmup = milliseconds(200);
    cfg.duration =
        static_cast<Tick>(static_cast<double>(seconds(1)) *
                          durationScale());
    cfg.seed = 42;
    return cfg;
}

/** One policy column of a bench: its label, its frequency policy and,
 *  for NMAP, the thresholds that policy runs with. */
struct Variant
{
    const char *name;
    std::string policy;
    double ni;
    double cu;

    /** Pin `nmap.ni_th`/`nmap.cu_th` when the policy is NMAP, so the
     *  run never profiles. */
    void
    pinThresholds(PolicyParams &params) const
    {
        if (policy == "NMAP") {
            params.set("nmap.ni_th", ni);
            params.set("nmap.cu_th", cu);
        }
    }
};

/**
 * Optional machine-readable sink: when NMAPSIM_BENCH_JSON=PATH is set,
 * every (config, result) pair a bench runs through runAll() or
 * runClusters() is also recorded and written to PATH as a JSON array
 * at process exit. The table output on stdout is unchanged either way.
 */
inline ResultWriter *
jsonSink()
{
    static ResultWriter *sink = []() -> ResultWriter * {
        const char *path = std::getenv("NMAPSIM_BENCH_JSON");
        if (path == nullptr || *path == '\0')
            return nullptr;
        static ResultWriter writer;
        static std::string out = path;
        std::atexit([] { writer.writeJsonFile(out); });
        return &writer;
    }();
    return sink;
}

/** Record (config, result) pairs into the NMAPSIM_BENCH_JSON sink. */
inline void
recordResults(const std::vector<ExperimentConfig> &points,
              const std::vector<ExperimentResult> &results)
{
    ResultWriter *sink = jsonSink();
    if (sink == nullptr)
        return;
    for (std::size_t i = 0;
         i < points.size() && i < results.size(); ++i)
        appendResultRecord(*sink, points[i], results[i]);
}

/**
 * Run every point on the shared sweep thread pool (NMAPSIM_JOBS wide)
 * and unwrap the outcomes in submission order. A failed point rethrows
 * its own exception here — a bench wants a config error to abort.
 */
inline std::vector<ExperimentResult>
runAll(const std::vector<ExperimentConfig> &points,
       const std::string &tag)
{
    SweepOptions opts;
    opts.tag = tag;
    std::vector<SweepOutcome> outcomes = SweepRunner(opts).run(points);
    std::vector<ExperimentResult> results;
    results.reserve(outcomes.size());
    for (SweepOutcome &outcome : outcomes)
        results.push_back(std::move(outcome.value()));
    recordResults(points, results);
    return results;
}

/**
 * The cluster counterpart of runAll(): run every cluster config on the
 * shared sweep thread pool, record each (config, result) pair into the
 * NMAPSIM_BENCH_JSON sink and return the results in submission order.
 */
inline std::vector<ClusterResult>
runClusters(const std::vector<ClusterConfig> &configs,
            const std::string &tag)
{
    std::vector<std::function<ClusterResult()>> tasks;
    tasks.reserve(configs.size());
    for (const ClusterConfig &cfg : configs)
        tasks.emplace_back(
            [&cfg] { return ClusterExperiment(cfg).run(); });
    SweepOptions opts;
    opts.tag = tag;
    std::vector<SweepSlot<ClusterResult>> slots = runParallel(tasks, opts);
    std::vector<ClusterResult> results;
    results.reserve(slots.size());
    for (SweepSlot<ClusterResult> &slot : slots)
        results.push_back(std::move(slot.value()));
    if (ResultWriter *sink = jsonSink())
        for (std::size_t i = 0; i < configs.size(); ++i)
            appendClusterResultRecord(*sink, configs[i], results[i]);
    return results;
}

/**
 * Profile the Section 4.2 thresholds for several applications
 * concurrently (each profiling pass is itself a full simulation).
 * Returns (NI_TH, CU_TH) per application, in argument order.
 */
inline std::vector<std::pair<double, double>>
profileApps(const std::vector<AppProfile> &apps,
            const std::string &tag = "bench")
{
    std::vector<ExperimentConfig> points;
    points.reserve(apps.size());
    for (const AppProfile &app : apps)
        points.push_back(
            cellConfig(app, LoadLevel::kHigh, "NMAP"));
    SweepOptions opts;
    opts.tag = tag;
    std::vector<SweepSlot<std::pair<double, double>>> slots =
        SweepRunner(opts).profile(points);
    std::vector<std::pair<double, double>> thresholds;
    thresholds.reserve(slots.size());
    for (SweepSlot<std::pair<double, double>> &slot : slots)
        thresholds.push_back(slot.value());
    return thresholds;
}

} // namespace bench
} // namespace nmapsim

#endif // NMAPSIM_BENCH_BENCH_UTIL_HH_
