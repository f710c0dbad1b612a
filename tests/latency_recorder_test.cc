/**
 * @file
 * Unit tests for the latency recorder (percentiles, CDF, traces).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/time.hh"
#include "stats/latency_recorder.hh"

namespace nmapsim {
namespace {

LatencyRecorder
makeUniformRecorder(int n, bool keep_trace = false)
{
    LatencyRecorder r;
    if (keep_trace)
        r.keepTrace();
    // Latencies 1..n us, completion times in reverse order to exercise
    // sorting.
    for (int i = n; i >= 1; --i)
        r.record(microseconds(i), microseconds(i));
    return r;
}

/** The recorder's percentile formula applied to a sorted copy. */
Tick
referencePercentile(std::vector<Tick> lat, double p)
{
    std::sort(lat.begin(), lat.end());
    double rank = p / 100.0 * static_cast<double>(lat.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, lat.size() - 1);
    double frac = rank - static_cast<double>(lo);
    double v = static_cast<double>(lat[lo]) * (1.0 - frac) +
               static_cast<double>(lat[hi]) * frac;
    return static_cast<Tick>(std::llround(v));
}

/** The recorder's CDF formula applied to a sorted copy. */
std::vector<std::pair<Tick, double>>
referenceCdf(std::vector<Tick> lat, std::size_t points)
{
    std::sort(lat.begin(), lat.end());
    std::vector<std::pair<Tick, double>> out;
    for (std::size_t i = 0; i < points; ++i) {
        double q = static_cast<double>(i + 1) / static_cast<double>(points);
        std::size_t idx = std::min(
            lat.size() - 1,
            static_cast<std::size_t>(q * static_cast<double>(lat.size())));
        out.emplace_back(lat[idx], q);
    }
    return out;
}

/** Seeded lognormal latencies around 60 us, a memcached-like spread. */
std::vector<Tick>
lognormalLatencies(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tick> out(n);
    for (Tick &t : out)
        t = static_cast<Tick>(rng.lognormal(11.0, 0.6));
    return out;
}

/** Record @p lat with completion ticks 0, 1, 2, ... */
LatencyRecorder
recorderOf(const std::vector<Tick> &lat, bool keep_trace = false)
{
    LatencyRecorder r;
    if (keep_trace)
        r.keepTrace();
    for (std::size_t i = 0; i < lat.size(); ++i)
        r.record(static_cast<Tick>(i), lat[i]);
    return r;
}

/** (completion, latency) pairs, comparable with EXPECT_EQ. */
std::vector<std::pair<Tick, Tick>>
pairsOf(const std::vector<LatencySample> &samples)
{
    std::vector<std::pair<Tick, Tick>> out;
    for (const LatencySample &s : samples)
        out.emplace_back(s.completionTime, s.latency);
    return out;
}

/** 2^32 ns, the smallest latency the recorder stores wide. */
constexpr Tick kWide = Tick{1} << 32;

/** The recorder's mean formula applied to the samples. */
double
referenceMean(const std::vector<Tick> &lat)
{
    Tick sum = 0;
    for (Tick t : lat)
        sum += t;
    return static_cast<double>(sum) / static_cast<double>(lat.size());
}

/** The fraction of @p lat strictly above @p slo. */
double
referenceFractionAbove(const std::vector<Tick> &lat, Tick slo)
{
    const auto n = std::count_if(lat.begin(), lat.end(),
                                 [slo](Tick t) { return t > slo; });
    return static_cast<double>(n) / static_cast<double>(lat.size());
}

const double kPercentiles[] = {0.0,  0.1,  10.0, 50.0,
                               90.0, 99.0, 99.9, 100.0};

/** Every statistic of @p r against a sorted copy of @p lat. */
void
expectMatchesReference(const LatencyRecorder &r, const std::vector<Tick> &lat)
{
    ASSERT_EQ(r.count(), lat.size());
    for (double p : kPercentiles)
        EXPECT_EQ(r.percentile(p), referencePercentile(lat, p)) << "p" << p;
    EXPECT_EQ(r.mean(), referenceMean(lat));
    EXPECT_EQ(r.max(), *std::max_element(lat.begin(), lat.end()));
    for (Tick slo : {Tick{0}, kWide - 1, kWide, kWide + 1, 3 * kWide,
                     lat[lat.size() / 2]})
        EXPECT_EQ(r.fractionAbove(slo), referenceFractionAbove(lat, slo))
            << "slo " << slo;
    EXPECT_EQ(r.cdf(200), referenceCdf(lat, 200));
}

TEST(LatencyRecorderTest, EmptyRecorder)
{
    LatencyRecorder r;
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(r.percentile(99.0), 0);
    EXPECT_DOUBLE_EQ(r.mean(), 0.0);
    EXPECT_EQ(r.max(), 0);
    EXPECT_DOUBLE_EQ(r.fractionAbove(0), 0.0);
    EXPECT_TRUE(r.cdf(10).empty());
}

TEST(LatencyRecorderTest, PercentilesOfUniformRamp)
{
    LatencyRecorder r = makeUniformRecorder(100);
    EXPECT_EQ(r.count(), 100u);
    // P50 of 1..100 us (linear interpolation over order statistics).
    EXPECT_NEAR(toMicroseconds(r.percentile(50.0)), 50.5, 0.01);
    EXPECT_NEAR(toMicroseconds(r.percentile(99.0)), 99.01, 0.05);
    EXPECT_EQ(r.percentile(100.0), microseconds(100));
    EXPECT_EQ(r.percentile(0.0), microseconds(1));
}

TEST(LatencyRecorderTest, MeanAndMax)
{
    LatencyRecorder r = makeUniformRecorder(100);
    EXPECT_NEAR(r.mean(), static_cast<double>(microseconds(50.5)), 1.0);
    EXPECT_EQ(r.max(), microseconds(100));
}

TEST(LatencyRecorderTest, FractionAboveSlo)
{
    LatencyRecorder r = makeUniformRecorder(100);
    // 10 of 100 samples exceed 90 us (91..100).
    EXPECT_DOUBLE_EQ(r.fractionAbove(microseconds(90)), 0.10);
    EXPECT_DOUBLE_EQ(r.fractionAbove(microseconds(100)), 0.0);
    EXPECT_DOUBLE_EQ(r.fractionAbove(0), 1.0);
}

TEST(LatencyRecorderTest, CdfIsMonotone)
{
    LatencyRecorder r = makeUniformRecorder(1000);
    auto cdf = r.cdf(50);
    ASSERT_EQ(cdf.size(), 50u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GT(cdf[i].second, cdf[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(LatencyRecorderTest, TraceSortedByCompletionTime)
{
    LatencyRecorder r = makeUniformRecorder(10, /*keep_trace=*/true);
    auto trace = r.takeTrace();
    ASSERT_EQ(trace.size(), 10u);
    for (std::size_t i = 1; i < trace.size(); ++i)
        EXPECT_LE(trace[i - 1].completionTime, trace[i].completionTime);
}

TEST(LatencyRecorderTest, ClearEmptiesRecorder)
{
    LatencyRecorder r = makeUniformRecorder(5);
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(LatencyRecorderTest, RecordAfterQueryKeepsConsistency)
{
    LatencyRecorder r;
    r.record(1, microseconds(5));
    EXPECT_EQ(r.percentile(50.0), microseconds(5));
    r.record(2, microseconds(15));
    EXPECT_EQ(r.percentile(100.0), microseconds(15));
    EXPECT_EQ(r.count(), 2u);
}

TEST(LatencyRecorderTest, SingleSample)
{
    LatencyRecorder r;
    r.record(milliseconds(1), microseconds(42));
    for (double p : kPercentiles)
        EXPECT_EQ(r.percentile(p), microseconds(42)) << "p" << p;
    EXPECT_DOUBLE_EQ(r.mean(), static_cast<double>(microseconds(42)));
    for (const auto &[latency, q] : r.cdf(5))
        EXPECT_EQ(latency, microseconds(42)) << "q" << q;
}

TEST(LatencyRecorderTest, TwoSamplesInterpolate)
{
    const std::vector<Tick> lat = {microseconds(30), microseconds(10)};
    LatencyRecorder r = recorderOf(lat);
    EXPECT_EQ(r.percentile(0.0), microseconds(10));
    EXPECT_EQ(r.percentile(50.0), microseconds(20));
    EXPECT_EQ(r.percentile(100.0), microseconds(30));
    for (double p : {0.0, 25.0, 50.0, 99.0, 100.0})
        EXPECT_EQ(r.percentile(p), referencePercentile(lat, p))
            << "p" << p;
    EXPECT_EQ(r.cdf(4), referenceCdf(lat, 4));
}

TEST(LatencyRecorderTest, AllEqualLatencies)
{
    LatencyRecorder r;
    for (int i = 0; i < 1000; ++i)
        r.record(microseconds(i), microseconds(42));
    for (double p : kPercentiles)
        EXPECT_EQ(r.percentile(p), microseconds(42)) << "p" << p;
    EXPECT_DOUBLE_EQ(r.mean(), static_cast<double>(microseconds(42)));
    EXPECT_EQ(r.max(), microseconds(42));
    EXPECT_DOUBLE_EQ(r.fractionAbove(microseconds(42)), 0.0);
    for (const auto &[latency, q] : r.cdf(200))
        EXPECT_EQ(latency, microseconds(42)) << "q" << q;
}

TEST(LatencyRecorderTest, PercentilesMatchSortedReference)
{
    // Raw lognormal draws (nearly all distinct) and the same draws
    // quantised to 10 us (many ties).
    std::vector<Tick> raw = lognormalLatencies(10007, 11);
    std::vector<Tick> tied = raw;
    for (Tick &t : tied)
        t = t / microseconds(10) * microseconds(10);
    for (const std::vector<Tick> &lat : {raw, tied}) {
        LatencyRecorder r = recorderOf(lat);
        for (double p : kPercentiles)
            EXPECT_EQ(r.percentile(p), referencePercentile(lat, p))
                << "p" << p;
        // Again, now that selection has reordered the samples.
        for (double p : kPercentiles)
            EXPECT_EQ(r.percentile(p), referencePercentile(lat, p))
                << "p" << p;
    }
}

TEST(LatencyRecorderTest, CdfMatchesSortedReference)
{
    const std::vector<Tick> lat = lognormalLatencies(5003, 12);
    LatencyRecorder r = recorderOf(lat);
    EXPECT_EQ(r.percentile(99.0), referencePercentile(lat, 99.0));
    EXPECT_EQ(r.cdf(200), referenceCdf(lat, 200));
}

TEST(LatencyRecorderTest, RecordQueryRecordQuery)
{
    const std::vector<Tick> lat = lognormalLatencies(4000, 13);
    const std::vector<Tick> first(lat.begin(), lat.begin() + 1500);
    LatencyRecorder r = recorderOf(first);
    for (double p : kPercentiles)
        EXPECT_EQ(r.percentile(p), referencePercentile(first, p))
            << "p" << p;
    for (std::size_t i = first.size(); i < lat.size(); ++i)
        r.record(static_cast<Tick>(i), lat[i]);
    for (double p : kPercentiles)
        EXPECT_EQ(r.percentile(p), referencePercentile(lat, p))
            << "p" << p;
    EXPECT_EQ(r.cdf(200), referenceCdf(lat, 200));
}

TEST(LatencyRecorderTest, MeanIndependentOfInsertionOrder)
{
    std::vector<Tick> lat = lognormalLatencies(9999, 14);
    LatencyRecorder forward = recorderOf(lat);
    std::reverse(lat.begin(), lat.end());
    LatencyRecorder backward = recorderOf(lat);
    EXPECT_EQ(forward.mean(), backward.mean());
    // Selection reorders the samples; the mean must not notice.
    Tick p99 = forward.percentile(99.0);
    EXPECT_GT(p99, 0);
    EXPECT_EQ(forward.mean(), backward.mean());
}

TEST(LatencyRecorderTest, MergeMovesAndConcatenates)
{
    const std::vector<Tick> lat = lognormalLatencies(300, 15);
    LatencyRecorder whole = recorderOf(lat, /*keep_trace=*/true);
    LatencyRecorder a;
    LatencyRecorder b;
    a.keepTrace();
    b.keepTrace();
    for (std::size_t i = 0; i < lat.size(); ++i)
        (i < 100 ? a : b).record(static_cast<Tick>(i), lat[i]);

    LatencyRecorder merged;
    merged.keepTrace();
    merged.merge(std::move(a)); // takes a's storage
    merged.merge(std::move(b)); // appends b's samples
    // merge() leaves each source empty.
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(merged.count(), lat.size());
    EXPECT_EQ(pairsOf(merged.takeTrace()), pairsOf(whole.takeTrace()));
    EXPECT_EQ(merged.percentile(99.0), whole.percentile(99.0));
    EXPECT_EQ(merged.mean(), whole.mean());
}

TEST(LatencyRecorderTest, TraceOrderIsTotal)
{
    // 100 completions on one tick: the trace must not depend on
    // insertion order or on a percentile query reordering samples.
    const Tick tick = milliseconds(5);
    LatencyRecorder ascending;
    LatencyRecorder descending;
    ascending.keepTrace();
    descending.keepTrace();
    for (int i = 1; i <= 100; ++i) {
        ascending.record(tick, microseconds(i));
        descending.record(tick, microseconds(101 - i));
    }
    EXPECT_EQ(descending.percentile(99.0),
              ascending.percentile(99.0));
    const auto trace = pairsOf(ascending.takeTrace());
    EXPECT_EQ(pairsOf(descending.takeTrace()), trace);
    ASSERT_EQ(trace.size(), 100u);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].second,
                  microseconds(static_cast<double>(i + 1)));
}

TEST(LatencyRecorderTest, TakeTraceMovesThePairsOut)
{
    LatencyRecorder r = makeUniformRecorder(10, /*keep_trace=*/true);
    EXPECT_EQ(r.takeTrace().size(), 10u);
    // The latencies stay; the pairs are gone until new ones arrive.
    EXPECT_EQ(r.count(), 10u);
    EXPECT_EQ(r.max(), microseconds(10));
    EXPECT_TRUE(r.takeTrace().empty());
    r.record(milliseconds(1), microseconds(3));
    EXPECT_EQ(pairsOf(r.takeTrace()),
              (std::vector<std::pair<Tick, Tick>>{
                  {milliseconds(1), microseconds(3)}}));
}

TEST(LatencyRecorderTest, ArmedAndUnarmedReportIdenticalStatistics)
{
    // Quantised to 5 us, so many latencies tie.
    std::vector<Tick> lat = lognormalLatencies(10007, 16);
    for (Tick &t : lat)
        t = t / microseconds(5) * microseconds(5);
    LatencyRecorder unarmed = recorderOf(lat);
    LatencyRecorder armed = recorderOf(lat, /*keep_trace=*/true);
    EXPECT_EQ(armed.count(), unarmed.count());
    for (double p : kPercentiles)
        EXPECT_EQ(armed.percentile(p), unarmed.percentile(p)) << "p" << p;
    EXPECT_EQ(armed.mean(), unarmed.mean());
    EXPECT_EQ(armed.max(), unarmed.max());
    for (Tick slo : {Tick{0}, microseconds(60), microseconds(200)})
        EXPECT_EQ(armed.fractionAbove(slo), unarmed.fractionAbove(slo))
            << "slo " << slo;
    EXPECT_EQ(armed.cdf(200), unarmed.cdf(200));
}

TEST(LatencyRecorderTest, TraceKeepsItsPairsThroughQueries)
{
    // Three completions per tick, recorded out of (completion,
    // latency) order; the queries reorder the latencies in place.
    const std::vector<Tick> lat = lognormalLatencies(3000, 17);
    LatencyRecorder r;
    r.keepTrace();
    std::vector<std::pair<Tick, Tick>> expected;
    for (std::size_t i = 0; i < lat.size(); ++i) {
        const Tick completion = static_cast<Tick>((lat.size() - i) / 3);
        r.record(completion, lat[i]);
        expected.emplace_back(completion, lat[i]);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(r.percentile(99.0), referencePercentile(lat, 99.0));
    EXPECT_EQ(r.cdf(200), referenceCdf(lat, 200));
    EXPECT_EQ(r.percentile(50.0), referencePercentile(lat, 50.0));
    EXPECT_EQ(pairsOf(r.takeTrace()), expected);
}

TEST(LatencyRecorderTest, TraceOfAnUnarmedRecorderPanics)
{
    LatencyRecorder empty;
    EXPECT_THROW(empty.takeTrace(), PanicError);
    LatencyRecorder r = makeUniformRecorder(10);
    EXPECT_THROW(r.takeTrace(), PanicError);
    // Arming after a sample would leave that sample out of the trace.
    EXPECT_THROW(r.keepTrace(), PanicError);
    // An armed recorder takes no samples without completion ticks, and
    // an unarmed one keeps none.
    LatencyRecorder armed = makeUniformRecorder(10, /*keep_trace=*/true);
    EXPECT_THROW(armed.merge(std::move(r)), PanicError);
    LatencyRecorder unarmed;
    EXPECT_THROW(unarmed.merge(std::move(armed)), PanicError);
}

TEST(LatencyRecorderTest, MergeOfArmedRecordersConcatenatesTraces)
{
    // Interleaved completion ticks: the merged trace holds every pair
    // of both, in (completion, latency) order.
    const std::vector<Tick> lat = lognormalLatencies(200, 18);
    LatencyRecorder even;
    LatencyRecorder odd;
    even.keepTrace();
    odd.keepTrace();
    std::vector<std::pair<Tick, Tick>> expected;
    for (std::size_t i = 0; i < lat.size(); ++i) {
        (i % 2 == 0 ? even : odd).record(static_cast<Tick>(i), lat[i]);
        expected.emplace_back(static_cast<Tick>(i), lat[i]);
    }
    even.merge(std::move(odd));
    EXPECT_EQ(pairsOf(even.takeTrace()), expected);
    EXPECT_EQ(even.count(), lat.size());
    // The source stays armed and holds nothing.
    EXPECT_TRUE(odd.empty());
    EXPECT_TRUE(odd.takeTrace().empty());
}

TEST(LatencyRecorderTest, WideSamplesMatchSortedReference)
{
    // Random mixes of 32-bit and wide latencies, from none wide to all
    // wide, with 2^32 - 1 and 2^32 among them; checked half-way (so
    // queries have reordered the samples) and again at the end.
    Rng rng(19);
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE(trial);
        const auto n = static_cast<std::size_t>(rng.uniformInt(1, 400));
        const double wide_share = trial % 10 == 0 ? 0.0
                                  : trial % 10 == 1 ? 1.0
                                                    : rng.uniform();
        std::vector<Tick> lat(n);
        for (Tick &t : lat) {
            const double u = rng.uniform();
            if (u < 0.05)
                t = kWide - 1;
            else if (u < 0.1)
                t = kWide;
            else if (rng.bernoulli(wide_share))
                t = rng.uniformInt(kWide, 4 * kWide);
            else
                t = rng.uniformInt(0, kWide - 1);
        }
        const std::vector<Tick> half(lat.begin(), lat.begin() + n / 2 + 1);
        LatencyRecorder r = recorderOf(half);
        expectMatchesReference(r, half);
        for (std::size_t i = half.size(); i < n; ++i)
            r.record(static_cast<Tick>(i), lat[i]);
        expectMatchesReference(r, lat);
    }
}

TEST(LatencyRecorderTest, PercentileInterpolatesAcrossTheWidthBoundary)
{
    // Sorted: 10 us, 20 us, 2^32 - 1, 2^32 + 100, 2^32 + 900. For p in
    // [50, 75) the rank's lo is the last 32-bit sample and its hi the
    // smallest wide one, recorded after a larger wide one.
    const std::vector<Tick> lat = {kWide + 900, microseconds(20), kWide - 1,
                                   kWide + 100, microseconds(10)};
    LatencyRecorder r = recorderOf(lat);
    EXPECT_EQ(r.percentile(62.5), kWide + 50);
    for (double p : {50.0, 55.0, 62.5, 70.0, 74.9, 75.0})
        EXPECT_EQ(r.percentile(p), referencePercentile(lat, p)) << "p" << p;
    expectMatchesReference(r, lat);
}

TEST(LatencyRecorderTest, MergeAcrossTheWidthBoundary)
{
    // A recorder with only 32-bit samples merged into one with wide
    // samples, and the other way round.
    const std::vector<Tick> narrow = lognormalLatencies(500, 20);
    const std::vector<Tick> mixed = {3 * kWide, microseconds(7), kWide,
                                     kWide - 1, 2 * kWide + 5};
    std::vector<Tick> all = mixed;
    all.insert(all.end(), narrow.begin(), narrow.end());

    LatencyRecorder wide_first = recorderOf(mixed);
    wide_first.merge(recorderOf(narrow));
    expectMatchesReference(wide_first, all);

    LatencyRecorder narrow_first = recorderOf(narrow);
    narrow_first.merge(recorderOf(mixed));
    expectMatchesReference(narrow_first, all);
}

TEST(LatencyRecorderTest, NegativeLatencyPanics)
{
    LatencyRecorder r;
    EXPECT_THROW(r.record(milliseconds(1), -1), PanicError);
    EXPECT_THROW(r.record(milliseconds(1), std::numeric_limits<Tick>::min()),
                 PanicError);
    EXPECT_TRUE(r.empty());
    LatencyRecorder armed;
    armed.keepTrace();
    EXPECT_THROW(armed.record(milliseconds(1), -microseconds(5)),
                 PanicError);
    EXPECT_TRUE(armed.takeTrace().empty());
}

} // namespace
} // namespace nmapsim
