#include "stats/latency_recorder.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "sim/logging.hh"

namespace nmapsim {

namespace {

/** Append @p from to @p to, then release @p from's storage. */
template <typename T>
void
moveAppend(std::vector<T> &to, std::vector<T> &from)
{
    if (to.empty())
        to.swap(from);
    else
        to.insert(to.end(), from.begin(), from.end());
    std::vector<T>().swap(from);
}

} // namespace

void
LatencyRecorder::keepTrace()
{
    if (!empty())
        panic("LatencyRecorder::keepTrace() after " +
              std::to_string(count()) + " samples");
    keepTrace_ = true;
}

Tick
LatencyRecorder::percentile(double p) const
{
    if (latencies_.empty())
        return 0;
    double rank = p / 100.0 * static_cast<double>(latencies_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, latencies_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    // Order statistic lo by selection; lo + 1 is then the minimum of
    // the partition above it.
    auto nth = latencies_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(latencies_.begin(), nth, latencies_.end());
    Tick lo_latency = *nth;
    Tick hi_latency =
        hi == lo ? lo_latency : *std::min_element(nth + 1, latencies_.end());
    double v = static_cast<double>(lo_latency) * (1.0 - frac) +
               static_cast<double>(hi_latency) * frac;
    return static_cast<Tick>(std::llround(v));
}

double
LatencyRecorder::mean() const
{
    if (latencies_.empty())
        return 0.0;
    // Integer ns sum exactly, whatever order the latencies are in.
    Tick sum = 0;
    for (Tick latency : latencies_)
        sum += latency;
    return static_cast<double>(sum) /
           static_cast<double>(latencies_.size());
}

Tick
LatencyRecorder::max() const
{
    Tick m = 0;
    for (Tick latency : latencies_)
        m = std::max(m, latency);
    return m;
}

double
LatencyRecorder::fractionAbove(Tick slo) const
{
    if (latencies_.empty())
        return 0.0;
    std::size_t n = 0;
    for (Tick latency : latencies_)
        if (latency > slo)
            ++n;
    return static_cast<double>(n) / static_cast<double>(latencies_.size());
}

std::vector<std::pair<Tick, double>>
LatencyRecorder::cdf(std::size_t points) const
{
    std::vector<std::pair<Tick, double>> out;
    if (latencies_.empty() || points == 0)
        return out;
    std::sort(latencies_.begin(), latencies_.end());
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        double q = static_cast<double>(i + 1) / static_cast<double>(points);
        std::size_t idx = std::min(
            latencies_.size() - 1,
            static_cast<std::size_t>(
                q * static_cast<double>(latencies_.size())));
        out.emplace_back(latencies_[idx], q);
    }
    return out;
}

std::vector<LatencySample>
LatencyRecorder::trace() const
{
    if (!keepTrace_)
        panic("LatencyRecorder::trace() without keepTrace()");
    std::vector<LatencySample> t = trace_;
    std::sort(t.begin(), t.end(),
              [](const LatencySample &a, const LatencySample &b) {
                  return std::tie(a.completionTime, a.latency) <
                         std::tie(b.completionTime, b.latency);
              });
    return t;
}

void
LatencyRecorder::merge(LatencyRecorder &&other)
{
    if (keepTrace_ != other.keepTrace_)
        panic("LatencyRecorder::merge() of an armed and an unarmed "
              "recorder");
    moveAppend(latencies_, other.latencies_);
    moveAppend(trace_, other.trace_);
}

} // namespace nmapsim
