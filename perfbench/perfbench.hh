/**
 * @file
 * Shared declarations of the nmapsim benchmark.
 *
 * The benchmark treats the simulator as a batch job run in a closed loop:
 * one iteration at a time, each building fresh harness objects from
 * configs that were parsed once, at set-up, from key=value text
 * (perfbench/workloads/). It measures every src/ module as a layer from
 * outside: spans wrap the calls into each layer (traced runs only), the
 * deterministic counters every run already returns are summed per
 * iteration, and standalone micros time each layer's hot public calls.
 */

#ifndef PERFBENCH_PERFBENCH_HH_
#define PERFBENCH_PERFBENCH_HH_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "harness/cluster.hh"
#include "harness/experiment.hh"

namespace perfbench {

/** Host wall clock, seconds on a monotonic clock. */
double wallNow();

/** CPU seconds (user + sys) of the whole process, all threads. */
double cpuNow();

/** Median of @p v; 0 when empty. */
double median(std::vector<double> v);

// --- Spans -------------------------------------------------------------

/** One closed span: a call into a layer, timed from outside it. */
struct Span
{
    std::int64_t id = 0;
    std::int64_t parent = -1; //!< -1 for a root span
    std::int64_t iteration = -1;
    std::string name;
    double start = 0.0; //!< wallNow() seconds
    double end = 0.0;
};

/**
 * In-memory span store, shared by the sweep's worker threads. Spans are
 * only recorded in traced runs; untraced runs pass a null log and pay
 * nothing.
 */
class SpanLog
{
  public:
    /** Reserve a span id (the span is stored when it ends). */
    std::int64_t newId() { return nextId_.fetch_add(1); }

    void add(Span span);

    /** Every span closed so far, in closing order. */
    std::vector<Span> spans() const;

  private:
    std::atomic<std::int64_t> nextId_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< guarded by mutex_
};

/** RAII span: records [construction, destruction) into @p log. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::int64_t parent,
               std::int64_t iteration);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id, for children; -1 when not tracing. */
    std::int64_t id() const { return span_.id; }

  private:
    SpanLog *log_;
    Span span_;
};

/** Self time of every span: its duration minus the union of the
 *  intervals its child spans cover. Indexed like @p spans. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Write spans (with self times) as JSON to @p path. */
void writeSpans(const std::vector<Span> &spans, const std::string &path);

// --- Workloads ------------------------------------------------------------

/** One simulation a workload iteration runs. */
struct Point
{
    std::string label;
    bool cluster = false;
    nmapsim::ExperimentConfig single; //!< when !cluster
    nmapsim::ClusterConfig multi;     //!< when cluster
};

/** Config text of one point, before parsing. */
struct PointText
{
    std::string label;
    bool cluster = false;
    std::string text;
};

/** Names of the benchmark's workloads, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/**
 * Generate a workload's config texts: the templates in @p conf_dir
 * plus grid overlays and per-point seeds derived from @p seed. fatal()
 * on unknown workloads or unreadable templates.
 */
std::vector<PointText> workloadTexts(const std::string &workload,
                                     const std::string &conf_dir,
                                     std::uint64_t seed);

/** Parse and validate every point through config_io / cluster_io and
 *  the harness constructors; fatal() on a bad config. */
std::vector<Point> parsePoints(const std::vector<PointText> &texts);

/** The same points with every simulated window scaled by @p frac (the
 *  set-up warm-up). */
std::vector<Point> scaledPoints(std::vector<Point> points, double frac);

/** Simulated seconds a point requests: warm-up + window + drain. */
double simSeconds(const Point &point);

/** Deterministic per-iteration counters, summed over points. */
struct Counters
{
    std::uint64_t events = 0;
    std::uint64_t rxHarvested = 0;
    std::uint64_t txConsumed = 0;
    std::uint64_t nicDrops = 0;
    std::uint64_t faultLost = 0;
    std::uint64_t linkDownDrops = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t portDrops = 0;
    std::uint64_t eastWest = 0;
    std::uint64_t ejections = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t intrPkts = 0;
    std::uint64_t pollPkts = 0;
    std::uint64_t ksoftirqdWakes = 0;
    std::uint64_t pstateTransitions = 0;
    std::uint64_t cc6Wakes = 0;
    std::uint64_t cc1Wakes = 0;
    double busySum = 0.0; //!< sum of per-server busy fractions
    std::uint64_t servers = 0;
    std::uint64_t profilePasses = 0;
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t shed = 0;
    std::uint64_t shortCircuits = 0;
    std::uint64_t budgetExhausted = 0;
    double p99UsSum = 0.0; //!< sum of per-point p99s
    double energyJ = 0.0;
    std::uint64_t points = 0;
    std::uint64_t maxSamples = 0; //!< largest single run's completions

    void add(const Counters &o);
};

/** What one point of one iteration produced. */
struct PointOutcome
{
    Counters counters;
    std::string record; //!< serialised ResultWriter JSON
    /** (NI_TH, CU_TH) per auto-profiled server, by host id (single
     *  runs use host 0); empty when nothing profiled. */
    std::vector<std::pair<int, std::pair<double, double>>> profiled;
    std::vector<std::string> violations; //!< correctness-gate failures
};

/** One closed-loop iteration. */
struct Iteration
{
    double wall = 0.0;
    double cpu = 0.0;
    double simSeconds = 0.0;
    Counters counters;
    std::string records;                 //!< every point's record
    std::vector<std::string> violations; //!< empty = passed the gate
    std::vector<PointOutcome> outcomes;  //!< per point, by index
    std::vector<double> pointWalls;      //!< per point, by index
};

/**
 * Run every point on a pool of @p jobs workers (capped at the point
 * count) and check each point's conservation identities. With a
 * non-null @p log, spans wrap the fan-out, each point, its run and its
 * record serialisation.
 */
Iteration runIteration(const std::vector<Point> &points, int jobs,
                       SpanLog *log, std::int64_t iteration);

/** The points again with every auto-profiled server's thresholds
 *  pinned to what @p ref reported; false when nothing profiled. */
bool pinnedPoints(const std::vector<Point> &points, const Iteration &ref,
                  std::vector<Point> &out);

// --- Micros --------------------------------------------------------------

/** Which optional layers a workload exercises (selects micros). */
struct MicroPlan
{
    std::string dispatch;     //!< cluster dispatch policy, "" = none
    bool resilience = false;  //!< resilience.* paths armed
    std::uint64_t latencySamples = 0; //!< one run's completions
};

/** Layer micros: metric name -> nanoseconds per operation. Layers the
 *  workload does not exercise report 0. */
std::map<std::string, double> runMicros(const MicroPlan &plan);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH_
