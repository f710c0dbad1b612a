#include "stats/latency_recorder.hh"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace nmapsim {

namespace {

bool
byLatency(const LatencySample &a, const LatencySample &b)
{
    return a.latency < b.latency;
}

} // namespace

Tick
LatencyRecorder::percentile(double p) const
{
    if (samples_.empty())
        return 0;
    double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = rank - static_cast<double>(lo);
    // Order statistic lo by selection; lo + 1 is then the minimum of
    // the partition above it.
    auto nth = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(samples_.begin(), nth, samples_.end(), byLatency);
    Tick lo_latency = samples_[lo].latency;
    Tick hi_latency =
        hi == lo ? lo_latency
                 : std::min_element(nth + 1, samples_.end(), byLatency)
                       ->latency;
    double v = static_cast<double>(lo_latency) * (1.0 - frac) +
               static_cast<double>(hi_latency) * frac;
    return static_cast<Tick>(std::llround(v));
}

double
LatencyRecorder::mean() const
{
    if (samples_.empty())
        return 0.0;
    // Integer ns sum exactly, whatever order the samples are in.
    Tick sum = 0;
    for (const auto &s : samples_)
        sum += s.latency;
    return static_cast<double>(sum) / static_cast<double>(samples_.size());
}

Tick
LatencyRecorder::max() const
{
    Tick m = 0;
    for (const auto &s : samples_)
        m = std::max(m, s.latency);
    return m;
}

double
LatencyRecorder::fractionAbove(Tick slo) const
{
    if (samples_.empty())
        return 0.0;
    std::size_t n = 0;
    for (const auto &s : samples_)
        if (s.latency > slo)
            ++n;
    return static_cast<double>(n) / static_cast<double>(samples_.size());
}

std::vector<std::pair<Tick, double>>
LatencyRecorder::cdf(std::size_t points) const
{
    std::vector<std::pair<Tick, double>> out;
    if (samples_.empty() || points == 0)
        return out;
    std::sort(samples_.begin(), samples_.end(), byLatency);
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        double q = static_cast<double>(i + 1) / static_cast<double>(points);
        std::size_t idx = std::min(
            samples_.size() - 1,
            static_cast<std::size_t>(q *
                                     static_cast<double>(samples_.size())));
        out.emplace_back(samples_[idx].latency, q);
    }
    return out;
}

std::vector<LatencySample>
LatencyRecorder::trace() const
{
    std::vector<LatencySample> t(samples_.begin(), samples_.end());
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
    if (samples_.empty())
        samples_.swap(other.samples_);
    else
        samples_.insert(samples_.end(), other.samples_.begin(),
                        other.samples_.end());
    std::vector<LatencySample>().swap(other.samples_);
}

} // namespace nmapsim
