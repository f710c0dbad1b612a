/**
 * @file
 * Per-request latency recording and percentile/CDF reporting.
 *
 * The recorder keeps every (completion tick, latency) pair so the
 * benchmarks can emit both the paper's latency-vs-time scatter plots
 * (Fig. 3/10/16) and the CDFs (Fig. 4/11), plus exact percentiles
 * (Fig. 12/14). Percentiles come from selection, not a sort, and no
 * statistic depends on the order samples are stored in.
 */

#ifndef NMAPSIM_STATS_LATENCY_RECORDER_HH_
#define NMAPSIM_STATS_LATENCY_RECORDER_HH_

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace nmapsim {

/** One completed request observation. */
struct LatencySample
{
    Tick completionTime; //!< when the response reached the client
    Tick latency;        //!< end-to-end response time
};

/** Collects end-to-end latencies for one experiment. */
class LatencyRecorder
{
  public:
    /** Record one completed request. */
    void
    record(Tick completion_time, Tick latency)
    {
        samples_.push_back({completion_time, latency});
    }

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    /**
     * Latency at percentile @p p in [0, 100]. p = 99 gives the paper's
     * P99 tail latency. Returns 0 when empty.
     */
    Tick percentile(double p) const;

    /** Mean latency in ticks; 0 when empty. */
    double mean() const;

    /** Maximum observed latency; 0 when empty. */
    Tick max() const;

    /** Fraction of requests with latency strictly greater than @p slo. */
    double fractionAbove(Tick slo) const;

    /**
     * Empirical CDF evaluated at @p points latencies spread evenly in
     * quantile space; each pair is (latency, cumulative fraction).
     */
    std::vector<std::pair<Tick, double>> cdf(std::size_t points) const;

    /** All raw samples ordered by (completion time, latency). */
    std::vector<LatencySample> trace() const;

    /** Append every sample of @p other and release its storage (e.g.
     *  cluster-wide percentiles from per-host recorders). */
    void merge(LatencyRecorder &&other);

    /** Remove every sample. */
    void clear() { samples_.clear(); }

  private:
    /** Queries reorder the samples in place (selection, the CDF). */
    mutable std::vector<LatencySample> samples_;
};

} // namespace nmapsim

#endif // NMAPSIM_STATS_LATENCY_RECORDER_HH_
