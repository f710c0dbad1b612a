/**
 * @file
 * Per-request latency recording and percentile/CDF reporting.
 *
 * The recorder keeps every latency, 4 bytes per response: enough for
 * exact percentiles (Fig. 12/14), the CDFs (Fig. 4/11) and the SLO
 * fractions. A latency below 2^32 ns (4.3 s) is stored as a 32-bit
 * count; a longer one goes to a side vector of full Ticks. Every side
 * sample exceeds every 32-bit one, so the side vector is the top of
 * the order, and each statistic reads the two vectors without widening
 * either. Percentiles come from selection, not a sort, and no
 * statistic depends on the order latencies are stored in. Only the
 * latency-vs-time scatter plots (Fig. 3/10/16) need completion ticks;
 * a recorder armed with keepTrace() also keeps every (completion tick,
 * latency) pair for them, in storage no statistic reads.
 */

#ifndef NMAPSIM_STATS_LATENCY_RECORDER_HH_
#define NMAPSIM_STATS_LATENCY_RECORDER_HH_

#include <cstddef>
#include <cstdint>
#include <limits>
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
     *  keepTrace()) keeps @p completion_time. Panics on a negative
     *  @p latency. */
    void
    record(Tick completion_time, Tick latency)
    {
        if (static_cast<std::uint64_t>(latency) <=
            std::numeric_limits<std::uint32_t>::max())
            narrow_.push_back(static_cast<std::uint32_t>(latency));
        else
            recordWide(latency);
        if (keepTrace_)
            trace_.push_back({completion_time, latency});
    }

    /** Arm the recorder to keep every (completion, latency) pair for
     *  takeTrace(). Panics once a sample has been recorded. */
    void keepTrace();

    std::size_t count() const { return narrow_.size() + wide_.size(); }
    bool empty() const { return count() == 0; }

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

    /** Every recorded pair ordered by (completion time, latency),
     *  sorted in place and moved out: the latencies stay, the trace is
     *  left empty. Panics unless keepTrace() armed the recorder. */
    std::vector<LatencySample> takeTrace();

    /** Append every sample of @p other and release its storage (e.g.
     *  cluster-wide percentiles from per-host recorders). Panics unless
     *  both recorders are armed alike. */
    void merge(LatencyRecorder &&other);

    /** Remove every sample; an armed recorder stays armed. */
    void
    clear()
    {
        narrow_.clear();
        wide_.clear();
        trace_.clear();
    }

  private:
    /** Store a latency of 2^32 ns or more; panics on a negative one. */
    void recordWide(Tick latency);

    /** Queries reorder both vectors in place (selection, the CDF). */
    mutable std::vector<std::uint32_t> narrow_; //!< latencies < 2^32 ns
    mutable std::vector<Tick> wide_;            //!< the rest, all larger
    /** The pairs of an armed recorder, in record order; no query
     *  reorders them. */
    std::vector<LatencySample> trace_;
    bool keepTrace_ = false;
};

} // namespace nmapsim

#endif // NMAPSIM_STATS_LATENCY_RECORDER_HH_
