/**
 * @file
 * Unit tests for the latency recorder and recorder sets (percentiles,
 * CDF, traces).
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

/** Every statistic but the CDF of @p s (a recorder or a set) against
 *  a sorted copy of @p lat. */
template <typename Stats>
void
expectStatsMatchReference(const Stats &s, const std::vector<Tick> &lat)
{
    ASSERT_EQ(s.count(), lat.size());
    if (lat.empty()) {
        EXPECT_EQ(s.percentile(50.0), 0);
        EXPECT_EQ(s.mean(), 0.0);
        EXPECT_EQ(s.max(), 0);
        EXPECT_EQ(s.fractionAbove(0), 0.0);
        return;
    }
    for (double p : kPercentiles)
        EXPECT_EQ(s.percentile(p), referencePercentile(lat, p)) << "p" << p;
    EXPECT_EQ(s.mean(), referenceMean(lat));
    EXPECT_EQ(s.max(), *std::max_element(lat.begin(), lat.end()));
    for (Tick slo : {Tick{0}, kWide - 1, kWide, kWide + 1, 3 * kWide,
                     lat[lat.size() / 2]})
        EXPECT_EQ(s.fractionAbove(slo), referenceFractionAbove(lat, slo))
            << "slo " << slo;
}

/** Every statistic of @p r against a sorted copy of @p lat. */
void
expectMatchesReference(const LatencyRecorder &r, const std::vector<Tick> &lat)
{
    expectStatsMatchReference(r, lat);
    EXPECT_EQ(r.cdf(200), referenceCdf(lat, 200));
}

/** The set of @p recs, in order. */
LatencySet
setOf(const std::vector<LatencyRecorder> &recs)
{
    LatencySet set;
    for (const LatencyRecorder &r : recs)
        set.add(r);
    return set;
}

/** The samples of @p members, one after another. */
std::vector<Tick>
concatenation(const std::vector<std::vector<Tick>> &members)
{
    std::vector<Tick> all;
    for (const std::vector<Tick> &lat : members)
        all.insert(all.end(), lat.begin(), lat.end());
    return all;
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
        // Again: a query leaves the samples as they were.
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
    // Neither a percentile nor the CDF's in-place sort may move it.
    Tick p99 = forward.percentile(99.0);
    EXPECT_EQ(forward.cdf(10).size(), 10u);
    EXPECT_GT(p99, 0);
    EXPECT_EQ(forward.mean(), backward.mean());
}

TEST(LatencySetTest, SetReadsItsMembersInPlace)
{
    const std::vector<Tick> lat = lognormalLatencies(300, 15);
    LatencyRecorder whole = recorderOf(lat, /*keep_trace=*/true);
    LatencyRecorder a;
    LatencyRecorder b;
    a.keepTrace();
    b.keepTrace();
    for (std::size_t i = 0; i < lat.size(); ++i)
        (i < 100 ? a : b).record(static_cast<Tick>(i), lat[i]);

    const LatencySet set{&a, &b};
    EXPECT_EQ(set.count(), lat.size());
    EXPECT_EQ(set.percentile(99.0), whole.percentile(99.0));
    EXPECT_EQ(set.mean(), whole.mean());
    // The members keep their samples and their pairs.
    EXPECT_EQ(a.count(), 100u);
    EXPECT_EQ(b.count(), 200u);
    EXPECT_EQ(a.takeTrace().size(), 100u);
    EXPECT_EQ(b.takeTrace().size(), 200u);
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
    // latency) order; the CDF sorts the latencies in place.
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
}

TEST(LatencyRecorderTest, WideSamplesMatchSortedReference)
{
    // Random mixes of 32-bit and wide latencies, from none wide to all
    // wide, with 2^32 - 1 and 2^32 among them; checked half-way (so the
    // CDF has sorted the samples) and again at the end.
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

TEST(LatencySetTest, SetAcrossTheWidthBoundary)
{
    // A member with only 32-bit samples beside one with wide samples,
    // in either order.
    const std::vector<Tick> narrow = lognormalLatencies(500, 20);
    const std::vector<Tick> mixed = {3 * kWide, microseconds(7), kWide,
                                     kWide - 1, 2 * kWide + 5};
    const LatencyRecorder n = recorderOf(narrow);
    const LatencyRecorder m = recorderOf(mixed);
    expectStatsMatchReference(LatencySet{&m, &n},
                              concatenation({mixed, narrow}));
    expectStatsMatchReference(LatencySet{&n, &m},
                              concatenation({narrow, mixed}));
}

/** One latency of a random mix: lognormal draws quantised to 1 us (so
 *  they tie), uniform 32-bit ones, 0 and 2^32 - 1, and with
 *  @p wide_share a wide one. */
Tick
drawLatency(Rng &rng, double wide_share)
{
    const double u = rng.uniform();
    if (u < 0.04)
        return 0;
    if (u < 0.08)
        return kWide - 1;
    if (rng.bernoulli(wide_share))
        return rng.uniformInt(kWide, 4 * kWide);
    if (u < 0.6)
        return static_cast<Tick>(rng.lognormal(11.0, 0.6)) /
               microseconds(1) * microseconds(1);
    return rng.uniformInt(0, kWide - 1);
}

TEST(LatencySetTest, SetMatchesSortedConcatenation)
{
    // Sets of 1-5 members. A member is empty, one sample, one value
    // repeated, lognormal draws with ties, a random mix or wide
    // samples only; the mixes hold 0, 2^32 - 1 and wide samples.
    Rng rng(21);
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE(trial);
        const auto size = static_cast<std::size_t>(1 + trial % 5);
        std::vector<std::vector<Tick>> lat(size);
        for (std::size_t m = 0; m < size; ++m) {
            std::vector<Tick> &member = lat[m];
            switch (rng.uniformInt(0, 5)) {
            case 0:
                break;
            case 1:
                member.push_back(drawLatency(rng, 0.2));
                break;
            case 2:
                member.assign(
                    static_cast<std::size_t>(rng.uniformInt(2, 300)),
                    drawLatency(rng, 0.2));
                break;
            case 3:
                member = lognormalLatencies(
                    static_cast<std::size_t>(rng.uniformInt(2, 2000)),
                    rng.next());
                for (Tick &t : member)
                    t = t / microseconds(2) * microseconds(2);
                break;
            case 4: {
                const double wide_share = rng.uniform(0.0, 0.3);
                member.resize(
                    static_cast<std::size_t>(rng.uniformInt(2, 400)));
                for (Tick &t : member)
                    t = drawLatency(rng, wide_share);
                break;
            }
            default:
                member.resize(
                    static_cast<std::size_t>(rng.uniformInt(1, 20)));
                for (Tick &t : member)
                    t = rng.uniformInt(kWide, 3 * kWide);
                break;
            }
        }
        std::vector<LatencyRecorder> recs;
        for (const std::vector<Tick> &member : lat)
            recs.push_back(recorderOf(member));
        expectStatsMatchReference(setOf(recs), concatenation(lat));
        for (std::size_t m = 0; m < size; ++m)
            expectStatsMatchReference(recs[m], lat[m]);
    }
}

TEST(LatencySetTest, RanksThatPartAcrossDigits)
{
    // The largest sample has 32 bits, so the first digit is a
    // sample's top 11 bits and the second its next 11. Sorted: 5, 100,
    // 2^21 - 1, 2^21 + 3, 2^21 + 7, 2^31, 2^31 + 2^10, 2^32 - 1. Ranks
    // 2 and 3 (and 6 and 7) part at the first digit, ranks 1 and 2 (and
    // 5 and 6) at the second, ranks 0 and 1 at the last.
    const Tick d = Tick{1} << 21;
    const LatencyRecorder a = recorderOf({d + 7, 5, Tick{1} << 31});
    const LatencyRecorder b = recorderOf({});
    const LatencyRecorder c =
        recorderOf({kWide - 1, d - 1, (Tick{1} << 31) + 1024, 100, d + 3});
    const std::vector<Tick> all = concatenation(
        {{d + 7, 5, Tick{1} << 31},
         {},
         {kWide - 1, d - 1, (Tick{1} << 31) + 1024, 100, d + 3}});
    const LatencySet set{&a, &b, &c};
    EXPECT_EQ(set.percentile(100.0 * 2.5 / 7.0), d + 1);
    for (int i = 0; i <= 1000; ++i) {
        const double p = i / 10.0;
        EXPECT_EQ(set.percentile(p), referencePercentile(all, p)) << "p" << p;
    }
    EXPECT_EQ(set.percentile(100.0), kWide - 1);
    expectStatsMatchReference(set, all);
}

TEST(LatencySetTest, OwnQueriesAreThoseOfTheOneMemberSet)
{
    // Repeated queries agree with each other and with the recorder's
    // one-member set, and an armed recorder's pairs come out sorted.
    std::vector<Tick> lat = lognormalLatencies(5000, 22);
    lat.push_back(kWide + 3);
    lat.push_back(0);
    LatencyRecorder r = recorderOf(lat, /*keep_trace=*/true);
    const LatencySet one{&r};
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(round);
        for (double p : kPercentiles)
            EXPECT_EQ(r.percentile(p), one.percentile(p)) << "p" << p;
        EXPECT_EQ(r.mean(), one.mean());
        EXPECT_EQ(r.max(), one.max());
        EXPECT_EQ(r.fractionAbove(microseconds(60)),
                  one.fractionAbove(microseconds(60)));
        EXPECT_EQ(r.count(), one.count());
        expectStatsMatchReference(r, lat);
    }
    std::vector<std::pair<Tick, Tick>> expected;
    for (std::size_t i = 0; i < lat.size(); ++i)
        expected.emplace_back(static_cast<Tick>(i), lat[i]);
    EXPECT_EQ(pairsOf(r.takeTrace()), expected);
}

TEST(LatencySetTest, EmptySets)
{
    const LatencyRecorder empty;
    expectStatsMatchReference(LatencySet{}, {});
    expectStatsMatchReference(LatencySet{&empty, &empty}, {});
    const LatencyRecorder one = recorderOf({microseconds(9)});
    for (double p : kPercentiles)
        EXPECT_EQ((LatencySet{&empty, &one, &empty}.percentile(p)),
                  microseconds(9))
            << "p" << p;
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
