/**
 * @file
 * Fixed-interval time-series accumulators.
 *
 * The paper's trace figures (Fig. 2/7/9) sample counters every 1 ms; a
 * TimeSeries bins values into fixed-width buckets for exactly that kind
 * of plot. An EventMarkSeries records discrete event times (ksoftirqd
 * wake-ups, CC6 entries).
 */

#ifndef NMAPSIM_STATS_TIMESERIES_HH_
#define NMAPSIM_STATS_TIMESERIES_HH_

#include <cstddef>
#include <vector>

#include "sim/time.hh"

namespace nmapsim {

/** Accumulates scalar values into fixed-width time buckets. */
class TimeSeries
{
  public:
    /**
     * @param bucket_width width of one bucket in ticks (> 0)
     * @param start        tick at which bucket 0 begins
     */
    explicit TimeSeries(Tick bucket_width, Tick start = 0);

    /** Add @p value to the bucket containing @p t. */
    void add(Tick t, double value);

    /**
     * Record an instantaneous level at @p t; the bucket reports the last
     * level set within it, and queries fill forward from earlier buckets.
     */
    void setLevel(Tick t, double value);

    /** Sum accumulated in the bucket containing @p t (0 if none). */
    double at(Tick t) const;

    /** Number of buckets with any data (index of last touched + 1). */
    std::size_t numBuckets() const { return buckets_.size(); }

    Tick start() const { return start_; }

    /** Sum/level in bucket @p i; buckets never touched read as 0 for
     *  accumulation series and as the previous level for level series. */
    double bucket(std::size_t i) const;

    /** Midpoint tick of bucket @p i, for plotting. */
    Tick bucketTime(std::size_t i) const;

    /** Sum over all buckets. */
    double total() const;

  private:
    std::size_t indexFor(Tick t) const;
    void grow(std::size_t idx);

    Tick bucketWidth_;
    Tick start_;
    bool levelMode_ = false;
    std::vector<double> buckets_;
    std::vector<bool> touched_;
};

/** Records the ticks at which a discrete event occurred. */
class EventMarkSeries
{
  public:
    void mark(Tick t) { marks_.push_back(t); }
    const std::vector<Tick> &marks() const { return marks_; }
    std::size_t count() const { return marks_.size(); }

    /** Number of marks in [from, to). */
    std::size_t countInWindow(Tick from, Tick to) const;

  private:
    std::vector<Tick> marks_;
};

} // namespace nmapsim

#endif // NMAPSIM_STATS_TIMESERIES_HH_
