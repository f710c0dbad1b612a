/**
 * @file
 * Parallel experiment sweep runner.
 *
 * Every figure and ablation in the paper's evaluation is a sweep over
 * (policy x load x seed) configurations, and each simulation is
 * single-threaded and exactly reproducible from (config, seed) — so
 * sweeps are embarrassingly parallel. SweepRunner executes a vector of
 * ExperimentConfig points on a fixed-size thread pool and returns the
 * outcomes in submission order regardless of completion order; a point
 * that throws records its error without aborting the sibling points.
 *
 * The thread count defaults to std::thread::hardware_concurrency() and
 * can be overridden with the NMAPSIM_JOBS environment variable (or per
 * runner via SweepOptions::jobs). Progress (completed/total, ETA) and
 * per-point wall time are reported to stderr; set NMAPSIM_SWEEP_QUIET=1
 * or SweepOptions::progress=false to silence them.
 *
 * SweepSpec builds the common grid shapes (policy list x idle list x
 * load/RPS list x seed list) declaratively. Harnesses that do not run
 * plain Experiments (e.g. colocation) use the generic runParallel()
 * engine underneath SweepRunner directly.
 */

#ifndef NMAPSIM_HARNESS_SWEEP_HH_
#define NMAPSIM_HARNESS_SWEEP_HH_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.hh"
#include "sim/logging.hh"

namespace nmapsim {

/** Knobs for one parallel fan-out. */
struct SweepOptions
{
    /** Worker threads; <=0 resolves NMAPSIM_JOBS, then
     *  hardware_concurrency(). Always capped at the point count. */
    int jobs = 0;
    bool progress = true; //!< progress + ETA + per-point time on stderr
    std::string tag = "sweep"; //!< prefix for progress lines
};

/** Resolve the effective worker count for @p requested points. */
int resolveJobs(int jobs, std::size_t num_points);

/** True unless NMAPSIM_SWEEP_QUIET is set to a non-zero value. */
bool sweepProgressEnabled();

/**
 * Value-or-error slot for one sweep point. Default-constructed slots
 * are failed ("not run"); value() rethrows the point's exception so an
 * error surfaces exactly where the result is consumed.
 */
template <typename R>
class SweepSlot
{
  public:
    SweepSlot() = default;

    void
    setValue(R value)
    {
        value_ = std::move(value);
        ok_ = true;
    }

    void
    setError(std::exception_ptr eptr, std::string what)
    {
        eptr_ = std::move(eptr);
        error_ = std::move(what);
        ok_ = false;
    }

    bool ok() const { return ok_; }

    /** The point's error message; empty on success. */
    const std::string &error() const { return error_; }

    /** Wall-clock seconds this point took to execute. */
    double wallSeconds() const { return wallSeconds_; }
    void setWallSeconds(double s) { wallSeconds_ = s; }

    /** The result; rethrows the point's own exception on failure. */
    const R &
    value() const
    {
        if (!ok_) {
            if (eptr_)
                std::rethrow_exception(eptr_);
            fatal("sweep point did not run: " + error_);
        }
        return value_;
    }

    R &
    value()
    {
        return const_cast<R &>(
            static_cast<const SweepSlot &>(*this).value());
    }

  private:
    R value_{};
    bool ok_ = false;
    std::string error_ = "not run";
    std::exception_ptr eptr_;
    double wallSeconds_ = 0.0;
};

/**
 * Generic fan-out engine: execute @p tasks on a fixed-size thread pool
 * and return one slot per task, in submission order. Exceptions are
 * captured per task; the sweep always completes every task.
 */
template <typename R>
std::vector<SweepSlot<R>>
runParallel(const std::vector<std::function<R()>> &tasks,
            const SweepOptions &opts = {})
{
    // lint: nondet-ok(wall time feeds only the stderr progress/ETA display, never simulated state)
    using Clock = std::chrono::steady_clock;
    const std::size_t n = tasks.size();
    std::vector<SweepSlot<R>> slots(n);
    if (n == 0)
        return slots;

    const int jobs = resolveJobs(opts.jobs, n);
    const bool progress = opts.progress && sweepProgressEnabled();
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex io_mutex;
    const Clock::time_point sweep_start = Clock::now();

    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            const Clock::time_point t0 = Clock::now();
            try {
                slots[i].setValue(tasks[i]());
            } catch (const std::exception &e) {
                slots[i].setError(std::current_exception(), e.what());
            } catch (...) {
                slots[i].setError(std::current_exception(),
                                  "non-standard exception");
            }
            const double wall =
                std::chrono::duration<double>(Clock::now() - t0)
                    .count();
            slots[i].setWallSeconds(wall);
            const std::size_t completed = done.fetch_add(1) + 1;
            if (progress) {
                const double elapsed =
                    std::chrono::duration<double>(Clock::now() -
                                                  sweep_start)
                        .count();
                const double eta =
                    elapsed / static_cast<double>(completed) *
                    static_cast<double>(n - completed);
                std::lock_guard<std::mutex> lock(io_mutex);
                std::fprintf(
                    stderr,
                    "[%s] %zu/%zu done | point %zu: %.2fs%s | "
                    "elapsed %.1fs, ETA %.1fs\n",
                    opts.tag.c_str(), completed, n, i, wall,
                    slots[i].ok() ? "" : " FAILED", elapsed, eta);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return slots;
}

/** Outcome of one ExperimentConfig sweep point. */
using SweepOutcome = SweepSlot<ExperimentResult>;

/** Runs vectors of ExperimentConfig points on a thread pool. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /**
     * Execute every point (Experiment(cfg).run()) and return outcomes
     * in submission order. Never throws for a point failure: each
     * outcome carries its own error, rethrown on value() access.
     */
    std::vector<SweepOutcome>
    run(const std::vector<ExperimentConfig> &points) const;

    /**
     * Run Experiment::profileThresholds for every config concurrently
     * (each profiling pass is itself a full simulation).
     */
    std::vector<SweepSlot<std::pair<double, double>>>
    profile(const std::vector<ExperimentConfig> &points) const;

  private:
    SweepOptions opts_;
};

/**
 * Builder for the common grid shapes. Dimensions left unset contribute
 * a single implicit point (the base config's value). Points enumerate
 * in row-major order with policies outermost and seeds innermost:
 *
 *   for policy / for idle / for load / for rps / for seed
 *
 * index() maps dimension indices back to the flat point index.
 */
class SweepSpec
{
  public:
    explicit SweepSpec(ExperimentConfig base = {})
        : base_(std::move(base))
    {
    }

    SweepSpec &
    policies(std::vector<std::string> v)
    {
        policies_ = std::move(v);
        return *this;
    }

    SweepSpec &
    idlePolicies(std::vector<std::string> v)
    {
        idles_ = std::move(v);
        return *this;
    }

    SweepSpec &
    loads(std::vector<LoadLevel> v)
    {
        loads_ = std::move(v);
        return *this;
    }

    /** Average-RPS sweep; each value is installed as rpsOverride. */
    SweepSpec &
    rpsList(std::vector<double> v)
    {
        rps_ = std::move(v);
        return *this;
    }

    SweepSpec &
    seeds(std::vector<std::uint64_t> v)
    {
        seeds_ = std::move(v);
        return *this;
    }

    std::size_t numPolicies() const { return dim(policies_); }
    std::size_t numIdlePolicies() const { return dim(idles_); }
    std::size_t numLoads() const { return dim(loads_); }
    std::size_t numRps() const { return dim(rps_); }
    std::size_t numSeeds() const { return dim(seeds_); }

    std::size_t
    numPoints() const
    {
        return numPolicies() * numIdlePolicies() * numLoads() *
               numRps() * numSeeds();
    }

    /** Flat index of grid cell (policy, idle, load, rps, seed). */
    std::size_t
    index(std::size_t pi, std::size_t ii = 0, std::size_t li = 0,
          std::size_t ri = 0, std::size_t si = 0) const
    {
        return (((pi * numIdlePolicies() + ii) * numLoads() + li) *
                    numRps() +
                ri) *
                   numSeeds() +
               si;
    }

    /** Materialise the grid as configs, in enumeration order. */
    std::vector<ExperimentConfig> build() const;

  private:
    static std::size_t
    dim(std::size_t size)
    {
        return size == 0 ? 1 : size;
    }

    template <typename T>
    static std::size_t
    dim(const std::vector<T> &v)
    {
        return dim(v.size());
    }

    ExperimentConfig base_;
    std::vector<std::string> policies_;
    std::vector<std::string> idles_;
    std::vector<LoadLevel> loads_;
    std::vector<double> rps_;
    std::vector<std::uint64_t> seeds_;
};

} // namespace nmapsim

#endif // NMAPSIM_HARNESS_SWEEP_HH_
