/**
 * @file
 * Per-request latency recording and percentile/CDF reporting.
 *
 * The recorder keeps every latency, 4 bytes per response: enough for
 * exact percentiles (Fig. 12/14), the CDFs (Fig. 4/11) and the SLO
 * fractions. A latency below 2^32 ns (4.3 s) is stored as a 32-bit
 * count; a longer one goes to a side vector of full Ticks. Every side
 * sample exceeds every 32-bit one, so the side vectors are the top of
 * the order.
 *
 * Statistics are answered over a LatencySet, a read-only view over one
 * or more recorders that equals one recorder holding all their samples
 * (the clients of a cluster run, the hosts of a tier), so nothing is
 * copied to combine them; a recorder's own queries are those of its
 * one-member set. Percentiles come from a counting selection over the
 * 32-bit samples, a few passes of at most 2^11 counters each, and no
 * statistic reorders storage or depends on the order latencies were
 * stored in. Only the latency-vs-time scatter plots (Fig. 3/10/16)
 * need completion ticks; a recorder armed with keepTrace() also keeps
 * every (completion tick, latency) pair for them, in storage no
 * statistic reads.
 */

#ifndef NMAPSIM_STATS_LATENCY_RECORDER_HH_
#define NMAPSIM_STATS_LATENCY_RECORDER_HH_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace nmapsim {

class LatencyRecorder;

/** One completed request observation. */
struct LatencySample
{
    Tick completionTime; //!< when the response reached the client
    Tick latency;        //!< end-to-end response time
};

/**
 * The samples of one or more recorders, read in place: every statistic
 * equals that of one recorder holding all of them. The members must
 * outlive the set.
 */
class LatencySet
{
  public:
    LatencySet() = default;
    LatencySet(std::initializer_list<const LatencyRecorder *> members)
        : members_(members)
    {
    }

    /** Add @p member's samples to the set. */
    void add(const LatencyRecorder &member) { members_.push_back(&member); }
    void add(const LatencyRecorder &&) = delete; // would dangle

    std::size_t count() const;

    /**
     * Latency at percentile @p p in [0, 100], interpolated between the
     * two order statistics around the rank. p = 99 gives the paper's
     * P99 tail latency. Returns 0 when empty.
     */
    Tick percentile(double p) const;

    /** Mean latency in ticks; 0 when empty. */
    double mean() const;

    /** Maximum observed latency; 0 when empty. */
    Tick max() const;

    /** Fraction of requests with latency strictly greater than @p slo. */
    double fractionAbove(Tick slo) const;

  private:
    /** Order statistic @p rank of the members' 32-bit samples and, with
     *  @p next, the one above it (else @p rank's again). */
    std::pair<std::uint32_t, std::uint32_t>
    selectNarrow(std::size_t rank, bool next) const;

    std::vector<const LatencyRecorder *> members_;
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

    /** @name Statistics of the one-member set (see LatencySet) */
    /**@{*/
    Tick percentile(double p) const { return LatencySet{this}.percentile(p); }
    double mean() const { return LatencySet{this}.mean(); }
    Tick max() const { return LatencySet{this}.max(); }
    double
    fractionAbove(Tick slo) const
    {
        return LatencySet{this}.fractionAbove(slo);
    }
    /**@}*/

    /**
     * Empirical CDF evaluated at @p points latencies spread evenly in
     * quantile space; each pair is (latency, cumulative fraction).
     * Sorts the samples in place.
     */
    std::vector<std::pair<Tick, double>> cdf(std::size_t points) const;

    /** Every recorded pair ordered by (completion time, latency),
     *  sorted in place and moved out: the latencies stay, the trace is
     *  left empty. Panics unless keepTrace() armed the recorder. */
    std::vector<LatencySample> takeTrace();

    /** Remove every sample; an armed recorder stays armed. */
    void
    clear()
    {
        narrow_.clear();
        wide_.clear();
        trace_.clear();
    }

  private:
    friend class LatencySet;

    /** Store a latency of 2^32 ns or more; panics on a negative one. */
    void recordWide(Tick latency);

    /** mutable for cdf() alone, which sorts them in place; every other
     *  query only reads them. */
    mutable std::vector<std::uint32_t> narrow_; //!< latencies < 2^32 ns
    mutable std::vector<Tick> wide_;            //!< the rest, all larger
    /** The pairs of an armed recorder, in record order; no query
     *  reorders them. */
    std::vector<LatencySample> trace_;
    bool keepTrace_ = false;
};

} // namespace nmapsim

#endif // NMAPSIM_STATS_LATENCY_RECORDER_HH_
