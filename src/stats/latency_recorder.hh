/**
 * @file
 * Per-request latency recording and percentile/CDF reporting.
 *
 * The recorder keeps every latency, 8 bytes per response: enough for
 * exact percentiles (Fig. 12/14), the CDFs (Fig. 4/11) and the SLO
 * fractions. Percentiles come from selection, not a sort, and no
 * statistic depends on the order latencies are stored in. Only the
 * latency-vs-time scatter plots (Fig. 3/10/16) need completion ticks;
 * a recorder armed with keepTrace() also keeps every (completion tick,
 * latency) pair for them, in storage no statistic reads.
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
    /** Record one completed request. Only an armed recorder (see
     *  keepTrace()) keeps @p completion_time. */
    void
    record(Tick completion_time, Tick latency)
    {
        latencies_.push_back(latency);
        if (keepTrace_)
            trace_.push_back({completion_time, latency});
    }

    /** Arm the recorder to keep every (completion, latency) pair for
     *  trace(). Panics once a sample has been recorded. */
    void keepTrace();

    std::size_t count() const { return latencies_.size(); }
    bool empty() const { return latencies_.empty(); }

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

    /** Every recorded pair ordered by (completion time, latency).
     *  Panics unless keepTrace() armed the recorder. */
    std::vector<LatencySample> trace() const;

    /** Append every sample of @p other and release its storage (e.g.
     *  cluster-wide percentiles from per-host recorders). Panics unless
     *  both recorders are armed alike. */
    void merge(LatencyRecorder &&other);

    /** Remove every sample; an armed recorder stays armed. */
    void
    clear()
    {
        latencies_.clear();
        trace_.clear();
    }

  private:
    /** Queries reorder the latencies in place (selection, the CDF). */
    mutable std::vector<Tick> latencies_;
    /** The pairs of an armed recorder, in record order; no query
     *  reorders them. */
    std::vector<LatencySample> trace_;
    bool keepTrace_ = false;
};

} // namespace nmapsim

#endif // NMAPSIM_STATS_LATENCY_RECORDER_HH_
