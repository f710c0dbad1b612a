#include "stats/latency_recorder.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <tuple>

#include "sim/logging.hh"

namespace nmapsim {

namespace {

/** Width of one counting pass's digit: at most 2^11 counters. */
constexpr int kDigitBits = 11;

} // namespace

std::size_t
LatencySet::count() const
{
    std::size_t n = 0;
    for (const LatencyRecorder *r : members_)
        n += r->count();
    return n;
}

std::pair<std::uint32_t, std::uint32_t>
LatencySet::selectNarrow(std::size_t rank, bool next) const
{
    // The bits in play are those of the largest sample. Each pass
    // counts the next digit down, of up to kDigitBits bits, over the
    // samples that share every digit chosen so far (their prefix), and
    // walks the counts to the digit that holds the rank.
    std::uint32_t top = 0;
    for (const LatencyRecorder *r : members_)
        for (std::uint32_t v : r->narrow_)
            top = std::max(top, v);
    int shift = std::bit_width(top);
    std::uint64_t prefix = 0; // the sample's bits above shift
    std::size_t lo = rank;    // ranks among the samples with that prefix
    std::size_t hi = rank + (next ? 1 : 0);
    std::array<std::size_t, std::size_t{1} << kDigitBits> counts;
    while (shift > 0) {
        const int width = std::min(shift, kDigitBits);
        const int low = shift - width;
        const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
        counts.fill(0);
        for (const LatencyRecorder *r : members_)
            for (std::uint32_t v : r->narrow_)
                if ((std::uint64_t{v} >> shift) == prefix)
                    ++counts[(v >> low) & mask];
        std::size_t below = 0;
        std::size_t digit = 0;
        while (below + counts[digit] <= lo)
            below += counts[digit++];
        if (hi >= below + counts[digit]) {
            // The ranks part here: lo is the largest sample with this
            // digit, hi the smallest with the next one in use.
            std::size_t up = digit + 1;
            while (counts[up] == 0)
                ++up;
            const std::uint64_t lo_prefix = prefix << width | digit;
            const std::uint64_t hi_prefix = prefix << width | up;
            if (low == 0)
                return {static_cast<std::uint32_t>(lo_prefix),
                        static_cast<std::uint32_t>(hi_prefix)};
            std::uint32_t lo_value = 0;
            std::uint32_t hi_value = std::numeric_limits<std::uint32_t>::max();
            for (const LatencyRecorder *r : members_)
                for (std::uint32_t v : r->narrow_) {
                    if ((v >> low) == lo_prefix)
                        lo_value = std::max(lo_value, v);
                    else if ((v >> low) == hi_prefix)
                        hi_value = std::min(hi_value, v);
                }
            return {lo_value, hi_value};
        }
        prefix = prefix << width | digit;
        lo -= below;
        hi -= below;
        shift = low;
    }
    return {static_cast<std::uint32_t>(prefix),
            static_cast<std::uint32_t>(prefix)};
}

Tick
LatencySet::percentile(double p) const
{
    const std::size_t n = count();
    if (n == 0)
        return 0;
    double rank = p / 100.0 * static_cast<double>(n - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    const std::size_t hi = std::min(lo + 1, n - 1);
    std::size_t n32 = 0;
    for (const LatencyRecorder *r : members_)
        n32 += r->narrow_.size();
    // Ranks below n32 are counted out of the 32-bit samples; the wide
    // ones above them are few, so they are gathered and sorted.
    Tick lo_latency = 0;
    Tick hi_latency = 0;
    if (lo < n32) {
        const auto [a, b] = selectNarrow(lo, hi < n32 && hi > lo);
        lo_latency = a;
        hi_latency = b;
    }
    if (hi >= n32) {
        std::vector<Tick> wide;
        wide.reserve(n - n32);
        for (const LatencyRecorder *r : members_)
            wide.insert(wide.end(), r->wide_.begin(), r->wide_.end());
        std::sort(wide.begin(), wide.end());
        if (lo >= n32)
            lo_latency = wide[lo - n32];
        hi_latency = wide[hi - n32];
    }
    double v = static_cast<double>(lo_latency) * (1.0 - frac) +
               static_cast<double>(hi_latency) * frac;
    return static_cast<Tick>(std::llround(v));
}

double
LatencySet::mean() const
{
    const std::size_t n = count();
    if (n == 0)
        return 0.0;
    // Integer ns sum exactly, whatever order the latencies are in.
    Tick sum = 0;
    for (const LatencyRecorder *r : members_) {
        for (std::uint32_t latency : r->narrow_)
            sum += latency;
        for (Tick latency : r->wide_)
            sum += latency;
    }
    return static_cast<double>(sum) / static_cast<double>(n);
}

Tick
LatencySet::max() const
{
    Tick top = 0;
    for (const LatencyRecorder *r : members_) {
        for (std::uint32_t latency : r->narrow_)
            top = std::max<Tick>(top, latency);
        for (Tick latency : r->wide_)
            top = std::max(top, latency);
    }
    return top;
}

double
LatencySet::fractionAbove(Tick slo) const
{
    const std::size_t n = count();
    if (n == 0)
        return 0.0;
    std::size_t above = 0;
    for (const LatencyRecorder *r : members_) {
        for (std::uint32_t latency : r->narrow_)
            if (latency > slo)
                ++above;
        for (Tick latency : r->wide_)
            if (latency > slo)
                ++above;
    }
    return static_cast<double>(above) / static_cast<double>(n);
}

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

} // namespace nmapsim
