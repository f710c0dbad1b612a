/**
 * @file
 * Unit tests for the workload layer: app profiles, client, load
 * generator.
 */

#include <gtest/gtest.h>

#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/app_profile.hh"
#include "workload/client.hh"
#include "workload/loadgen.hh"

namespace nmapsim {
namespace {

TEST(AppProfileTest, MemcachedMatchesPaperLoads)
{
    AppProfile mc = AppProfile::memcached();
    EXPECT_EQ(mc.slo, milliseconds(1));
    // Burst height x duty = the paper's average RPS figures.
    EXPECT_NEAR(mc.low.avgRps(), 30e3, 1e3);
    EXPECT_NEAR(mc.med.avgRps(), 290e3, 2e3);
    EXPECT_NEAR(mc.high.avgRps(), 750e3, 2e3);
}

TEST(AppProfileTest, NginxMatchesPaperLoads)
{
    AppProfile ng = AppProfile::nginx();
    EXPECT_EQ(ng.slo, milliseconds(10));
    EXPECT_NEAR(ng.low.avgRps(), 18e3, 0.5e3);
    EXPECT_NEAR(ng.med.avgRps(), 48e3, 0.5e3);
    EXPECT_NEAR(ng.high.avgRps(), 56e3, 0.5e3);
}

TEST(AppProfileTest, KeyvalueUsIsMicrosecondScale)
{
    AppProfile kv = AppProfile::keyvalueUs();
    EXPECT_EQ(kv.slo, microseconds(100));
    // Sub-microsecond mean service at 3.2 GHz.
    EXPECT_LT(kv.meanServiceCycles() / 3.2e9, 1e-6);
    EXPECT_LT(kv.meanServiceCycles(),
              AppProfile::memcached().meanServiceCycles());
}

TEST(AppProfileTest, NginxHeavierThanMemcached)
{
    EXPECT_GT(AppProfile::nginx().meanServiceCycles(),
              AppProfile::memcached().meanServiceCycles() * 5);
}

TEST(AppProfileTest, ServiceSamplesMatchConfiguredMean)
{
    AppProfile mc = AppProfile::memcached();
    Rng rng(1);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        double c = mc.sampleServiceCycles(rng);
        EXPECT_GT(c, 0.0);
        sum += c;
    }
    EXPECT_NEAR(sum / n / mc.meanServiceCycles(), 1.0, 0.03);
}

TEST(AppProfileTest, LevelAccessor)
{
    AppProfile mc = AppProfile::memcached();
    EXPECT_DOUBLE_EQ(mc.level(LoadLevel::kLow).rps, mc.low.rps);
    EXPECT_DOUBLE_EQ(mc.level(LoadLevel::kHigh).rps, mc.high.rps);
    EXPECT_STREQ(loadLevelName(LoadLevel::kMed), "med");
}

class ClientTest : public ::testing::Test
{
  protected:
    ClientTest()
        : wire_(eq_), client_(eq_, wire_, AppProfile::memcached(), 8)
    {
        wire_.setSink([this](const Packet &p) { sent_.push_back(p); });
    }

    EventQueue eq_;
    Wire wire_;
    Client client_;
    std::vector<Packet> sent_;
};

TEST_F(ClientTest, SendStampsAndCounts)
{
    client_.sendRequest(3);
    eq_.runAll();
    ASSERT_EQ(sent_.size(), 1u);
    EXPECT_EQ(sent_[0].flowHash, 3u);
    EXPECT_EQ(sent_[0].kind, Packet::Kind::kRequest);
    EXPECT_EQ(sent_[0].sendTime, 0);
    EXPECT_EQ(client_.requestsSent(), 1u);
}

TEST_F(ClientTest, UniqueRequestIds)
{
    client_.sendRequest(0);
    client_.sendRequest(0);
    eq_.runAll();
    EXPECT_NE(sent_[0].requestId, sent_[1].requestId);
}

TEST_F(ClientTest, ResponseLatencyMeasured)
{
    Packet resp;
    resp.kind = Packet::Kind::kResponse;
    resp.sendTime = 0;
    EventFunctionWrapper deliver(
        [&] { client_.onResponse(resp); }, "deliver");
    eq_.schedule(&deliver, microseconds(123));
    eq_.runAll();
    EXPECT_EQ(client_.responsesReceived(), 1u);
    EXPECT_EQ(client_.latencies().percentile(50.0), microseconds(123));
}

TEST_F(ClientTest, WindowP99ResetsBetweenReads)
{
    client_.watchWindow();
    Packet resp;
    resp.kind = Packet::Kind::kResponse;
    resp.sendTime = 0;
    EventFunctionWrapper deliver(
        [&] { client_.onResponse(resp); }, "deliver");
    eq_.schedule(&deliver, microseconds(100));
    eq_.runAll();
    EXPECT_GT(client_.windowP99AndReset(), 0);
    EXPECT_EQ(client_.windowP99AndReset(), 0); // window now empty
    // The global recorder keeps everything.
    EXPECT_EQ(client_.latencies().count(), 1u);
}

TEST_F(ClientTest, WindowStaysEmptyWithoutWatcher)
{
    Packet resp;
    resp.kind = Packet::Kind::kResponse;
    resp.sendTime = 0;
    EventFunctionWrapper deliver(
        [&] { client_.onResponse(resp); }, "deliver");
    eq_.schedule(&deliver, microseconds(100));
    eq_.runAll();
    // No feedback consumer attached: only the global recorder keeps
    // the sample.
    EXPECT_EQ(client_.windowP99AndReset(), 0);
    EXPECT_EQ(client_.latencies().count(), 1u);
}

TEST_F(ClientTest, RequestPacketIsRejectedAsResponse)
{
    Packet req;
    req.kind = Packet::Kind::kRequest;
    EXPECT_THROW(client_.onResponse(req), PanicError);
}

class LoadGenTest : public ::testing::Test
{
  protected:
    LoadGenTest()
        : wire_(eq_), client_(eq_, wire_, AppProfile::memcached(), 8)
    {
        wire_.setSink([this](const Packet &p) {
            arrivals_.push_back({eq_.now(), p.flowHash});
        });
    }

    EventQueue eq_;
    Wire wire_;
    Client client_;
    std::vector<std::pair<Tick, std::uint32_t>> arrivals_;
};

TEST_F(LoadGenTest, HitsTargetRateInSteadyState)
{
    LoadGenerator gen(eq_, client_, BurstConfig{}, Rng(1));
    gen.setLoad(LoadLevelSpec{100e3, 1.0, 8.0}); // steady 100K RPS
    gen.start();
    eq_.runUntil(milliseconds(200));
    gen.stop();
    double rate = static_cast<double>(client_.requestsSent()) / 0.2;
    EXPECT_NEAR(rate / 100e3, 1.0, 0.1);
}

TEST_F(LoadGenTest, DutyCycleGatesEmission)
{
    BurstConfig burst;
    burst.period = milliseconds(100);
    LoadGenerator gen(eq_, client_, burst, Rng(2));
    gen.setLoad(LoadLevelSpec{200e3, 0.4, 8.0});
    gen.start();
    eq_.runUntil(milliseconds(300));
    gen.stop();

    // All requests fall inside ON windows.
    std::size_t in_burst = 0;
    for (const auto &[t, flow] : arrivals_) {
        // Allow for wire latency between send and arrival.
        if (gen.inBurst(t - microseconds(10)))
            ++in_burst;
    }
    EXPECT_GT(arrivals_.size(), 100u);
    EXPECT_GE(static_cast<double>(in_burst),
              0.95 * static_cast<double>(arrivals_.size()));
    // Average rate is height x duty.
    double avg = static_cast<double>(client_.requestsSent()) / 0.3;
    EXPECT_NEAR(avg / 80e3, 1.0, 0.15);
}

TEST_F(LoadGenTest, TrainsShareOneConnection)
{
    LoadGenerator gen(eq_, client_, BurstConfig{}, Rng(3));
    gen.setLoad(LoadLevelSpec{50e3, 1.0, 16.0});
    gen.start();
    eq_.runUntil(milliseconds(5));
    gen.stop();
    ASSERT_GT(arrivals_.size(), 16u);
    // Consecutive same-flow runs exist (trains land on one core).
    std::size_t longest_run = 1;
    std::size_t run = 1;
    for (std::size_t i = 1; i < arrivals_.size(); ++i) {
        if (arrivals_[i].second == arrivals_[i - 1].second)
            longest_run = std::max(longest_run, ++run);
        else
            run = 1;
    }
    EXPECT_GE(longest_run, 8u);
}

TEST_F(LoadGenTest, StopHaltsEmission)
{
    LoadGenerator gen(eq_, client_, BurstConfig{}, Rng(4));
    gen.setLoad(LoadLevelSpec{100e3, 1.0, 8.0});
    gen.start();
    eq_.runUntil(milliseconds(10));
    gen.stop();
    auto sent = client_.requestsSent();
    eq_.runUntil(milliseconds(50));
    EXPECT_EQ(client_.requestsSent(), sent);
}

TEST_F(LoadGenTest, SetLoadMidRunChangesRate)
{
    LoadGenerator gen(eq_, client_, BurstConfig{}, Rng(5));
    gen.setLoad(LoadLevelSpec{20e3, 1.0, 4.0});
    gen.start();
    eq_.runUntil(milliseconds(100));
    auto slow_sent = client_.requestsSent();
    gen.setLoad(LoadLevelSpec{200e3, 1.0, 4.0});
    eq_.runUntil(milliseconds(200));
    auto fast_sent = client_.requestsSent() - slow_sent;
    EXPECT_GT(fast_sent, slow_sent * 4);
}

TEST_F(LoadGenTest, ConnectionSkewConcentratesTraffic)
{
    LoadGenerator gen(eq_, client_, BurstConfig{}, Rng(8));
    gen.setConnectionSkew(4.0);
    gen.setLoad(LoadLevelSpec{100e3, 1.0, 8.0});
    gen.start();
    eq_.runUntil(milliseconds(100));
    gen.stop();
    ASSERT_GT(arrivals_.size(), 1000u);
    std::size_t on_first_quarter = 0;
    for (const auto &[t, flow] : arrivals_)
        if (flow < 2)
            ++on_first_quarter;
    // With skew 4, far more than 2/8 of the traffic lands on the two
    // lowest connections.
    EXPECT_GT(static_cast<double>(on_first_quarter) /
                  static_cast<double>(arrivals_.size()),
              0.6);
}

TEST_F(LoadGenTest, NegativeSkewIsFatal)
{
    LoadGenerator gen(eq_, client_, BurstConfig{}, Rng(9));
    EXPECT_THROW(gen.setConnectionSkew(-1.0), FatalError);
}

TEST_F(LoadGenTest, InvalidParametersAreFatal)
{
    LoadGenerator gen(eq_, client_, BurstConfig{}, Rng(6));
    EXPECT_THROW(gen.setLoad(-1.0, 8.0), FatalError);
    EXPECT_THROW(gen.setLoad(100.0, 0.5), FatalError);
    EXPECT_THROW(gen.setLoad(LoadLevelSpec{100.0, 1.5, 8.0}),
                 FatalError);
    BurstConfig bad;
    bad.onTime = milliseconds(200);
    bad.period = milliseconds(100);
    EXPECT_THROW(LoadGenerator(eq_, client_, bad, Rng(7)), FatalError);
}

} // namespace
} // namespace nmapsim
