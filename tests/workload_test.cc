/**
 * @file
 * Unit tests for the workload layer: app profiles, client (including
 * its timeout and retransmission bookkeeping), load generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

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

/**
 * The client's timeout bookkeeping under a seeded script, checked
 * against a reference model of the retry policy: a std::set of
 * (deadline, request) pairs processed in order, the definition of when
 * and in what order timeouts fire. The script sends bursts of requests
 * at one tick, answers delivered packets in and out of order, sheds
 * some, never answers (drops) the rest, answers requests the client has
 * already given up on, and, with a budget, runs the retry budget dry.
 * The wire's sink records every transmission; after every step the
 * transmissions so far must be a prefix of the model's, and the
 * counters must equal the model's.
 */
class ClientTimeoutTest : public ::testing::Test
{
  protected:
    static constexpr Tick kTimeout = microseconds(100);
    static constexpr int kRetries = 3;
    static constexpr Tick kCap = microseconds(300);

    /** One transmission: request index (order of first send), tick. */
    using Tx = std::pair<int, Tick>;

    ClientTimeoutTest()
        : wire_(eq_), client_(eq_, wire_, AppProfile::memcached(), 8)
    {
        wire_.setSink([this](const Packet &p) { onTransmission(p); });
    }

    /** The ladder: the wait after transmission @p attempt expires. */
    static Tick
    waitAfter(int attempt)
    {
        Tick wait = kTimeout;
        for (int i = 1; i < attempt; ++i)
            wait = std::min(2 * wait, kCap);
        return wait;
    }

    struct Req
    {
        Tick firstSend = 0;
        Tick deadline = 0;
        int attempts = 1;
        bool live = true;
        Tick settledAt = -1; //!< answered or shed by the script
    };

    /** Sink: record and check each transmission as it arrives. */
    void
    onTransmission(const Packet &pkt)
    {
        delivered_.push_back(pkt);
        auto [it, first] = indexOf_.emplace(
            pkt.requestId, static_cast<int>(indexOf_.size()));
        const int index = it->second;
        observed_.push_back({index, pkt.sendTime});
        if (first) {
            lastSend_.push_back(pkt.sendTime);
            sends_.push_back(1);
            return;
        }
        // A retransmission leaves exactly when its previous attempt's
        // wait on the ladder runs out...
        const Tick due =
            lastSend_[index] + waitAfter(sends_[index]);
        EXPECT_EQ(pkt.sendTime, due) << "request " << index;
        // ...never after the request was answered or shed...
        const Tick settled = model_[index].settledAt;
        EXPECT_TRUE(settled < 0 || pkt.sendTime <= settled)
            << "request " << index << " retransmitted after settling";
        // ...and, among retransmissions due at one tick, in ascending
        // (deadline, request id) order.
        const std::pair<Tick, std::uint64_t> key{due, pkt.requestId};
        if (sameTickRetx_.first == pkt.sendTime) {
            EXPECT_LT(sameTickRetx_.second, key);
            ++sameTickPairs_;
        }
        sameTickRetx_ = {pkt.sendTime, key};
        lastSend_[index] = pkt.sendTime;
        ++sends_[index];
    }

    /** Model: expire every deadline up to @p end, then run the client. */
    void
    advance(Tick end)
    {
        while (!deadlines_.empty() && deadlines_.begin()->first <= end) {
            const auto [now, index] = *deadlines_.begin();
            deadlines_.erase(deadlines_.begin());
            Req &r = model_[index];
            if (r.attempts > kRetries) {
                r.live = false;
                ++timedOut_;
                continue;
            }
            if (budget_ && tokens_ < 1.0) {
                r.live = false;
                ++timedOut_;
                ++exhausted_;
                continue;
            }
            if (budget_)
                tokens_ -= 1.0;
            ++r.attempts;
            ++retransmits_;
            expected_.push_back({index, now});
            r.deadline = now + waitAfter(r.attempts);
            deadlines_.emplace(r.deadline, index);
        }
        eq_.runUntil(end);
    }

    void
    send(int conn)
    {
        const int index = static_cast<int>(model_.size());
        const Tick now = eq_.now();
        model_.push_back(Req{now, now + kTimeout});
        deadlines_.emplace(now + kTimeout, index);
        expected_.push_back({index, now});
        client_.sendRequest(conn);
    }

    /** Answer (or shed) the delivered transmission @p pkt now. */
    void
    answer(const Packet &pkt, bool shed)
    {
        const std::size_t latencies = client_.latencies().count();
        const std::size_t attempts = client_.attemptLatencies().count();
        const std::uint64_t dups = client_.duplicateResponses();
        Req &r = model_[indexOf_.at(pkt.requestId)];
        const bool late = !r.live;
        Packet resp = pkt;
        resp.kind = Packet::Kind::kResponse;
        resp.rejected = shed;
        client_.onResponse(resp);
        if (late) {
            // A late answer is a duplicate and enters no recorder.
            EXPECT_EQ(client_.duplicateResponses(), dups + 1);
            EXPECT_EQ(client_.latencies().count(), latencies);
            EXPECT_EQ(client_.attemptLatencies().count(), attempts);
            ++duplicates_;
            ++lateAnswers_;
            return;
        }
        r.live = false;
        r.settledAt = eq_.now();
        deadlines_.erase({r.deadline, indexOf_.at(pkt.requestId)});
        if (shed) {
            ++shed_;
            return;
        }
        ++received_;
        maxLatency_ = std::max(maxLatency_, eq_.now() - r.firstSend);
        maxAttempt_ = std::max(maxAttempt_, eq_.now() - pkt.sendTime);
        if (budget_)
            tokens_ = std::min(tokens_ + kBudgetRatio, kBudgetCap);
    }

    /** Counters, conservation and transmissions against the model. */
    void
    check()
    {
        const std::uint64_t sent = model_.size();
        ASSERT_EQ(client_.requestsSent(), sent);
        ASSERT_EQ(client_.responsesReceived(), received_);
        ASSERT_EQ(client_.requestsTimedOut(), timedOut_);
        ASSERT_EQ(client_.requestsShed(), shed_);
        ASSERT_EQ(client_.retransmits(), retransmits_);
        ASSERT_EQ(client_.duplicateResponses(), duplicates_);
        ASSERT_EQ(client_.retryBudgetExhausted(), exhausted_);
        ASSERT_EQ(client_.latencies().count(), received_);
        ASSERT_EQ(client_.attemptLatencies().count(), received_);
        ASSERT_EQ(client_.requestsSent(),
                  client_.responsesReceived() +
                      client_.requestsTimedOut() +
                      client_.requestsShed() +
                      client_.requestsInFlight());
        ASSERT_LE(observed_.size(), expected_.size());
        for (std::size_t i = 0; i < observed_.size(); ++i)
            ASSERT_EQ(observed_[i], expected_[i]) << "transmission " << i;
    }

    /** Run the seeded script, checking after every step. */
    void
    runScript(std::uint64_t seed, bool budget)
    {
        ClientRetryPolicy retry;
        retry.timeout = kTimeout;
        retry.maxRetries = kRetries;
        retry.backoffCap = kCap;
        client_.setRetryPolicy(retry);
        budget_ = budget;
        if (budget) {
            client_.setRetryBudget(kBudgetRatio, kBudgetInitial,
                                   kBudgetCap);
            tokens_ = kBudgetInitial;
        }
        Rng rng(seed);
        for (int step = 0; step < 1500; ++step) {
            // Land on the earliest pending deadline now and then, so
            // the script acts at the tick a retransmission leaves.
            Tick next = eq_.now() + rng.uniformInt(0, microseconds(30));
            if (rng.uniformInt(0, 4) == 0 && !deadlines_.empty())
                next = deadlines_.begin()->first;
            advance(next);
            switch (rng.uniformInt(0, 9)) {
              case 0:
              case 1:
              case 2: { // a burst on one tick: equal first deadlines
                const std::int64_t burst = rng.uniformInt(1, 3);
                for (std::int64_t i = 0; i < burst; ++i)
                    send(static_cast<int>(rng.uniformInt(0, 7)));
                break;
              }
              case 3:
              case 4:
              case 5:
              case 6:
              case 7:
                if (!delivered_.empty()) {
                    // Mostly a recent transmission, sometimes any.
                    const std::size_t n = delivered_.size();
                    const std::size_t back =
                        rng.uniformInt(0, 3) == 0
                            ? rng.uniformInt(0, n - 1)
                            : rng.uniformInt(
                                  0, std::min<std::size_t>(n, 8) - 1);
                    answer(delivered_[n - 1 - back],
                           rng.uniformInt(0, 5) == 0);
                }
                break;
              default: // the server drops what it received
                break;
            }
            check();
            if (HasFatalFailure())
                return;
        }
        advance(eq_.now() + seconds(1));
        eq_.runAll();
        check();
        EXPECT_EQ(observed_, expected_);
        EXPECT_EQ(client_.requestsInFlight(), 0u);
        EXPECT_EQ(client_.latencies().max(), maxLatency_);
        EXPECT_EQ(client_.attemptLatencies().max(), maxAttempt_);
        // The script reached every path it claims to cover.
        EXPECT_GT(retransmits_, 0u);
        EXPECT_GT(timedOut_, 0u);
        EXPECT_GT(shed_, 0u);
        EXPECT_GT(lateAnswers_, 0u);
        EXPECT_GT(sameTickPairs_, 0);
        if (budget) {
            EXPECT_GT(exhausted_, 0u);
        }
    }

    static constexpr double kBudgetRatio = 0.5;
    static constexpr int kBudgetInitial = 4;
    static constexpr double kBudgetCap = 6.0;

    EventQueue eq_;
    Wire wire_;
    Client client_;

    std::vector<Packet> delivered_;
    std::map<std::uint64_t, int> indexOf_;
    std::vector<Tick> lastSend_;
    std::vector<int> sends_;
    std::vector<Tx> observed_;
    std::pair<Tick, std::pair<Tick, std::uint64_t>> sameTickRetx_{-1, {}};
    int sameTickPairs_ = 0;

    std::vector<Req> model_;
    std::set<std::pair<Tick, int>> deadlines_;
    std::vector<Tx> expected_;
    bool budget_ = false;
    double tokens_ = 0.0;
    std::uint64_t received_ = 0;
    std::uint64_t timedOut_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t exhausted_ = 0;
    std::uint64_t lateAnswers_ = 0;
    Tick maxLatency_ = 0;
    Tick maxAttempt_ = 0;
};

TEST_F(ClientTimeoutTest, ScriptMatchesLadderAndConservation)
{
    runScript(7, false);
}

TEST_F(ClientTimeoutTest, ScriptRunsRetryBudgetDry)
{
    runScript(8, true);
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
