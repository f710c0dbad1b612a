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

/** Order statistic @p k of @p v by selection, and the one above it:
 *  the minimum of the partition after @p k, or @p k's own when @p k is
 *  the last. */
template <typename T>
std::pair<Tick, Tick>
selectWithNext(std::vector<T> &v, std::size_t k)
{
    auto nth = v.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(v.begin(), nth, v.end());
    const Tick at = *nth;
    if (nth + 1 == v.end())
        return {at, at};
    return {at, *std::min_element(nth + 1, v.end())};
}

} // namespace

void
LatencyRecorder::recordWide(Tick latency)
{
    // A negative latency would land above every 32-bit sample.
    if (latency < 0)
        panic("LatencyRecorder::record() of a negative latency (" +
              std::to_string(latency) + " ns)");
    wide_.push_back(latency);
}

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
    const std::size_t n = count();
    if (n == 0)
        return 0;
    double rank = p / 100.0 * static_cast<double>(n - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    // Order statistic lo by selection in the vector that holds it; lo
    // + 1 is the minimum of what lies above it, which for the last
    // 32-bit sample is the smallest wide one.
    const std::size_t n32 = narrow_.size();
    auto [lo_latency, hi_latency] = lo < n32
                                        ? selectWithNext(narrow_, lo)
                                        : selectWithNext(wide_, lo - n32);
    if (lo + 1 == n32 && !wide_.empty())
        hi_latency = *std::min_element(wide_.begin(), wide_.end());
    double v = static_cast<double>(lo_latency) * (1.0 - frac) +
               static_cast<double>(hi_latency) * frac;
    return static_cast<Tick>(std::llround(v));
}

double
LatencyRecorder::mean() const
{
    if (empty())
        return 0.0;
    // Integer ns sum exactly, whatever order the latencies are in.
    Tick sum = 0;
    for (std::uint32_t latency : narrow_)
        sum += latency;
    for (Tick latency : wide_)
        sum += latency;
    return static_cast<double>(sum) / static_cast<double>(count());
}

Tick
LatencyRecorder::max() const
{
    if (!wide_.empty())
        return *std::max_element(wide_.begin(), wide_.end());
    if (!narrow_.empty())
        return *std::max_element(narrow_.begin(), narrow_.end());
    return 0;
}

double
LatencyRecorder::fractionAbove(Tick slo) const
{
    if (empty())
        return 0.0;
    std::size_t n = 0;
    for (std::uint32_t latency : narrow_)
        if (latency > slo)
            ++n;
    for (Tick latency : wide_)
        if (latency > slo)
            ++n;
    return static_cast<double>(n) / static_cast<double>(count());
}

std::vector<std::pair<Tick, double>>
LatencyRecorder::cdf(std::size_t points) const
{
    std::vector<std::pair<Tick, double>> out;
    const std::size_t n = count();
    if (n == 0 || points == 0)
        return out;
    std::sort(narrow_.begin(), narrow_.end());
    std::sort(wide_.begin(), wide_.end());
    const std::size_t n32 = narrow_.size();
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        double q = static_cast<double>(i + 1) / static_cast<double>(points);
        std::size_t idx = std::min(
            n - 1, static_cast<std::size_t>(q * static_cast<double>(n)));
        out.emplace_back(idx < n32 ? Tick{narrow_[idx]} : wide_[idx - n32],
                         q);
    }
    return out;
}

std::vector<LatencySample>
LatencyRecorder::takeTrace()
{
    if (!keepTrace_)
        panic("LatencyRecorder::takeTrace() without keepTrace()");
    std::sort(trace_.begin(), trace_.end(),
              [](const LatencySample &a, const LatencySample &b) {
                  return std::tie(a.completionTime, a.latency) <
                         std::tie(b.completionTime, b.latency);
              });
    return std::exchange(trace_, {});
}

void
LatencyRecorder::merge(LatencyRecorder &&other)
{
    if (keepTrace_ != other.keepTrace_)
        panic("LatencyRecorder::merge() of an armed and an unarmed "
              "recorder");
    moveAppend(narrow_, other.narrow_);
    moveAppend(wide_, other.wide_);
    moveAppend(trace_, other.trace_);
}

} // namespace nmapsim
