/**
 * @file
 * Unit tests for the fault-injection subsystem: FaultPlan parsing and
 * validation, FaultInjector loss/corruption/flap/ring/crash execution
 * against real wires and NICs, and the client retry/timeout machinery
 * (retransmission, exponential backoff, duplicate accounting and the
 * sent == received + timedOut + inFlight conservation identity).
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/injector.hh"
#include "fault/plan.hh"
#include "net/nic.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/app_profile.hh"
#include "workload/client.hh"

namespace nmapsim {
namespace {

// --- FaultPlan parsing ---------------------------------------------

TEST(FaultPlanTest, NoFaultKeysYieldsDisabledPlan)
{
    PolicyParams params;
    params.set("nmap.ni_th", "400"); // non-fault keys are ignored
    const FaultPlan plan = FaultPlan::fromParams(params);
    EXPECT_FALSE(plan.enabled());
    EXPECT_FALSE(plan.wantsLoss());
    EXPECT_FALSE(plan.wantsFlap());
    EXPECT_FALSE(plan.wantsRingDegrade());
    EXPECT_FALSE(plan.wantsCrash());
}

TEST(FaultPlanTest, ReadsEveryKey)
{
    PolicyParams params;
    params.set("fault.wire_loss", "0.05");
    params.set("fault.wire_corrupt", "0.01");
    params.setTick("fault.flap_start", milliseconds(10));
    params.setTick("fault.flap_down", milliseconds(2));
    params.setTick("fault.flap_period", milliseconds(5));
    params.set("fault.flap_cycles", 3);
    params.set("fault.ring_size", 64);
    params.setTick("fault.ring_degrade_at", milliseconds(1));
    params.setTick("fault.ring_restore_at", milliseconds(20));
    params.set("fault.crash_host", 1);
    params.setTick("fault.crash_at", milliseconds(4));
    params.setTick("fault.recover_at", milliseconds(8));
    const FaultPlan plan = FaultPlan::fromParams(params);
    EXPECT_TRUE(plan.enabled());
    EXPECT_DOUBLE_EQ(plan.wireLoss, 0.05);
    EXPECT_DOUBLE_EQ(plan.wireCorrupt, 0.01);
    EXPECT_EQ(plan.flapStart, milliseconds(10));
    EXPECT_EQ(plan.flapDown, milliseconds(2));
    EXPECT_EQ(plan.flapPeriod, milliseconds(5));
    EXPECT_EQ(plan.flapCycles, 3);
    EXPECT_EQ(plan.ringSize, 64u);
    EXPECT_EQ(plan.ringDegradeAt, milliseconds(1));
    EXPECT_EQ(plan.ringRestoreAt, milliseconds(20));
    ASSERT_EQ(plan.crashHosts.size(), 1u);
    EXPECT_EQ(plan.crashHosts[0], 1);
    EXPECT_EQ(plan.crashAt, milliseconds(4));
    EXPECT_EQ(plan.recoverAt, milliseconds(8));
}

TEST(FaultPlanTest, CrashHostListParsesAndValidates)
{
    PolicyParams params;
    params.set("fault.crash_host", "1,3");
    params.setTick("fault.crash_at", milliseconds(4));
    const FaultPlan plan = FaultPlan::fromParams(params);
    ASSERT_EQ(plan.crashHosts.size(), 2u);
    EXPECT_EQ(plan.crashHosts[0], 1);
    EXPECT_EQ(plan.crashHosts[1], 3);

    PolicyParams none;
    none.set("fault.crash_host", "-1");
    EXPECT_FALSE(FaultPlan::fromParams(none).wantsCrash());

    PolicyParams bad;
    bad.set("fault.crash_host", "1,x");
    bad.setTick("fault.crash_at", milliseconds(4));
    EXPECT_THROW(FaultPlan::fromParams(bad), FatalError);

    PolicyParams neg;
    neg.set("fault.crash_host", "1,-1");
    neg.setTick("fault.crash_at", milliseconds(4));
    EXPECT_THROW(FaultPlan::fromParams(neg), FatalError);
}

TEST(FaultPlanTest, UnknownFaultKeyIsFatal)
{
    PolicyParams params;
    params.set("fault.wire_losss", "0.1"); // typo
    EXPECT_THROW(FaultPlan::fromParams(params), FatalError);
}

TEST(FaultPlanTest, LossProbabilityMustBeBelowOne)
{
    PolicyParams params;
    params.set("fault.wire_loss", "1.0");
    EXPECT_THROW(FaultPlan::fromParams(params), FatalError);
}

TEST(FaultPlanTest, LossPlusCorruptMustStayBelowOne)
{
    PolicyParams params;
    params.set("fault.wire_loss", "0.6");
    params.set("fault.wire_corrupt", "0.5");
    EXPECT_THROW(FaultPlan::fromParams(params), FatalError);
}

TEST(FaultPlanTest, CrashHostRequiresCrashAt)
{
    PolicyParams params;
    params.set("fault.crash_host", 0);
    EXPECT_THROW(FaultPlan::fromParams(params), FatalError);
}

TEST(FaultPlanTest, RecoveryMustFollowCrash)
{
    PolicyParams params;
    params.set("fault.crash_host", 0);
    params.setTick("fault.crash_at", milliseconds(10));
    params.setTick("fault.recover_at", milliseconds(5));
    EXPECT_THROW(FaultPlan::fromParams(params), FatalError);
}

TEST(FaultPlanTest, FlapPeriodMustExceedDownWindow)
{
    PolicyParams params;
    params.setTick("fault.flap_start", milliseconds(1));
    params.setTick("fault.flap_down", milliseconds(5));
    params.setTick("fault.flap_period", milliseconds(5));
    params.set("fault.flap_cycles", 2);
    EXPECT_THROW(FaultPlan::fromParams(params), FatalError);
}

TEST(FaultPlanTest, NegativeRingSizeIsFatal)
{
    PolicyParams params;
    params.set("fault.ring_size", -8);
    params.setTick("fault.ring_degrade_at", milliseconds(1));
    EXPECT_THROW(FaultPlan::fromParams(params), FatalError);
}

// --- ClientRetryPolicy parsing -------------------------------------

TEST(RetryPolicyTest, ReadsKeys)
{
    PolicyParams params;
    params.setTick("client.timeout", milliseconds(2));
    params.set("client.retries", 4);
    params.setTick("client.backoff_cap", milliseconds(10));
    const ClientRetryPolicy retry =
        ClientRetryPolicy::fromParams(params);
    EXPECT_TRUE(retry.enabled());
    EXPECT_EQ(retry.timeout, milliseconds(2));
    EXPECT_EQ(retry.maxRetries, 4);
    EXPECT_EQ(retry.backoffCap, milliseconds(10));
}

TEST(RetryPolicyTest, UnknownClientKeyIsFatal)
{
    PolicyParams params;
    params.set("client.retrys", "3"); // typo
    EXPECT_THROW(ClientRetryPolicy::fromParams(params), FatalError);
}

TEST(RetryPolicyTest, RetriesRequireTimeout)
{
    PolicyParams params;
    params.set("client.retries", 3);
    EXPECT_THROW(ClientRetryPolicy::fromParams(params), FatalError);
}

TEST(RetryPolicyTest, CapMustCoverBaseTimeout)
{
    PolicyParams params;
    params.setTick("client.timeout", milliseconds(2));
    params.setTick("client.backoff_cap", milliseconds(1));
    EXPECT_THROW(ClientRetryPolicy::fromParams(params), FatalError);
}

// --- FaultInjector against real wires ------------------------------

/** Send @p n minimal packets through @p wire immediately. */
void
pump(EventQueue &eq, Wire &wire, int n)
{
    for (int i = 0; i < n; ++i) {
        Packet pkt;
        pkt.requestId = static_cast<std::uint64_t>(i) + 1;
        pkt.sizeBytes = 128;
        wire.send(pkt);
    }
    eq.runAll();
}

TEST(FaultInjectorTest, LossFilterDropsAndDeliversDeterministically)
{
    auto runOnce = [](std::uint64_t seed) {
        EventQueue eq;
        Wire wire(eq);
        std::vector<std::uint64_t> delivered;
        wire.setSink([&delivered](const Packet &pkt) {
            delivered.push_back(pkt.requestId);
        });
        FaultPlan plan;
        plan.wireLoss = 0.5;
        FaultInjector injector(eq, plan, Rng(seed));
        injector.addLossyWire(wire);
        pump(eq, wire, 200);
        return std::make_pair(delivered, injector.packetsFaultLost());
    };

    const auto [first, lostFirst] = runOnce(7);
    const auto [second, lostSecond] = runOnce(7);
    EXPECT_EQ(first, second); // identical seed ⇒ identical drops
    EXPECT_EQ(lostFirst, lostSecond);
    EXPECT_GT(lostFirst, 50u); // ~100 of 200 at p = 0.5
    EXPECT_LT(lostFirst, 150u);
    EXPECT_EQ(first.size() + lostFirst, 200u);
}

TEST(FaultInjectorTest, CorruptPacketsOccupyLineButNeverDeliver)
{
    EventQueue eq;
    Wire wire(eq);
    std::uint64_t delivered = 0;
    wire.setSink([&delivered](const Packet &) { ++delivered; });
    FaultPlan plan;
    plan.wireCorrupt = 1.0; // direct construction skips validation
    FaultInjector injector(eq, plan, Rng(1));
    injector.addLossyWire(wire);
    pump(eq, wire, 10);
    EXPECT_EQ(delivered, 0u);
    EXPECT_EQ(injector.packetsCorrupted(), 10u);
    EXPECT_EQ(wire.packetsDelivered(), 0u);
}

TEST(FaultInjectorTest, FlapDownsAndRestoresOnSchedule)
{
    EventQueue eq;
    Wire a(eq);
    Wire b(eq);
    a.setSink([](const Packet &) {});
    b.setSink([](const Packet &) {});
    FaultPlan plan;
    plan.flapStart = milliseconds(1);
    plan.flapDown = milliseconds(2);
    plan.flapPeriod = milliseconds(5);
    plan.flapCycles = 2;
    FaultInjector injector(eq, plan, Rng(1));
    injector.addFlapGroup({&a, &b});

    eq.runUntil(plan.flapStart + microseconds(1));
    EXPECT_TRUE(a.linkDown());
    EXPECT_TRUE(b.linkDown());
    // A send while down is a counted drop, not an error.
    Packet pkt;
    pkt.sizeBytes = 128;
    a.send(pkt);
    EXPECT_EQ(a.packetsLinkDownLost(), 1u);

    eq.runUntil(plan.flapStart + plan.flapDown + microseconds(1));
    EXPECT_FALSE(a.linkDown()); // first up edge

    eq.runUntil(plan.flapStart + plan.flapPeriod + microseconds(1));
    EXPECT_TRUE(a.linkDown()); // second cycle's down edge

    eq.runAll();
    EXPECT_FALSE(a.linkDown()); // schedule exhausted, link restored
    EXPECT_EQ(injector.packetsLinkDownLost(), 1u);
}

TEST(FaultInjectorTest, RingDegradesAndRestores)
{
    EventQueue eq;
    NicConfig cfg;
    cfg.rxRingSize = 2048;
    Nic nic(eq, cfg);
    FaultPlan plan;
    plan.ringDegradeAt = milliseconds(1);
    plan.ringSize = 32;
    plan.ringRestoreAt = milliseconds(2);
    FaultInjector injector(eq, plan, Rng(1));
    injector.addDegradableNic(nic);

    eq.runUntil(milliseconds(1) + microseconds(1));
    EXPECT_EQ(nic.config().rxRingSize, 32u);
    eq.runAll();
    EXPECT_EQ(nic.config().rxRingSize, 2048u);
}

TEST(FaultInjectorTest, CrashCallbacksFireAtPlanTimes)
{
    EventQueue eq;
    FaultPlan plan;
    plan.crashHosts = {0};
    plan.crashAt = milliseconds(3);
    plan.recoverAt = milliseconds(7);
    FaultInjector injector(eq, plan, Rng(1));
    Tick downAt = 0;
    Tick upAt = 0;
    injector.scheduleCrash([&] { downAt = eq.now(); },
                           [&] { upAt = eq.now(); });
    eq.runAll();
    EXPECT_EQ(downAt, plan.crashAt);
    EXPECT_EQ(upAt, plan.recoverAt);
}

// --- Client retry/timeout machinery --------------------------------

/** A controllable "server": counts request arrivals per transmission
 *  and answers only the attempts the test allows. */
class RetryHarness : public ::testing::Test
{
  protected:
    RetryHarness()
        : toServer_(eq_), toClient_(eq_),
          client_(eq_, toServer_, AppProfile::memcached(), 8)
    {
        toServer_.setSink([this](const Packet &pkt) {
            arrivals_.push_back({eq_.now(), pkt});
            if (answerFrom_ > 0 &&
                static_cast<int>(arrivals_.size()) >= answerFrom_) {
                Packet resp = pkt;
                resp.kind = Packet::Kind::kResponse;
                toClient_.send(resp);
            }
        });
        toClient_.setSink(
            [this](const Packet &pkt) { client_.onResponse(pkt, eq_.now()); });
    }

    void
    enableRetry(Tick timeout, int retries, Tick cap = 0)
    {
        ClientRetryPolicy retry;
        retry.timeout = timeout;
        retry.maxRetries = retries;
        retry.backoffCap = cap;
        client_.setRetryPolicy(retry);
    }

    EventQueue eq_;
    Wire toServer_;
    Wire toClient_;
    Client client_;
    int answerFrom_ = 0; //!< answer the Nth arrival on; 0 = never
    std::vector<std::pair<Tick, Packet>> arrivals_;
};

TEST_F(RetryHarness, RetransmitsUntilAnswered)
{
    enableRetry(milliseconds(1), 5);
    answerFrom_ = 3; // drop the first two transmissions
    client_.sendRequest(0);
    eq_.runAll();
    ASSERT_EQ(arrivals_.size(), 3u);
    // All transmissions carry the same request id (it is a retry, not
    // a new request) and sent_ counts unique requests.
    EXPECT_EQ(arrivals_[0].second.requestId,
              arrivals_[2].second.requestId);
    EXPECT_EQ(client_.requestsSent(), 1u);
    EXPECT_EQ(client_.retransmits(), 2u);
    EXPECT_EQ(client_.responsesReceived(), 1u);
    EXPECT_EQ(client_.requestsTimedOut(), 0u);
    EXPECT_EQ(client_.requestsInFlight(), 0u);
    // Completion latency spans both backoffs; the winning attempt's
    // latency is just one wire round trip.
    EXPECT_GT(client_.latencies().max(),
              client_.attemptLatencies().max());
}

TEST_F(RetryHarness, TimesOutAfterRetryBudget)
{
    enableRetry(milliseconds(1), 2);
    answerFrom_ = 0; // never answer
    client_.sendRequest(0);
    eq_.runAll();
    EXPECT_EQ(arrivals_.size(), 3u); // 1 first attempt + 2 retries
    EXPECT_EQ(client_.requestsTimedOut(), 1u);
    EXPECT_EQ(client_.requestsInFlight(), 0u);
    EXPECT_EQ(client_.responsesReceived(), 0u);
    // Conservation: sent == received + timedOut + inFlight.
    EXPECT_EQ(client_.requestsSent(),
              client_.responsesReceived() +
                  client_.requestsTimedOut() +
                  client_.requestsInFlight());
}

TEST_F(RetryHarness, BackoffDoublesAndCaps)
{
    enableRetry(milliseconds(1), 3, milliseconds(2));
    answerFrom_ = 0;
    client_.sendRequest(0);
    eq_.runAll();
    ASSERT_EQ(arrivals_.size(), 4u);
    // Gaps between transmissions: timeout, 2*timeout, then capped.
    const Tick gap1 = arrivals_[1].first - arrivals_[0].first;
    const Tick gap2 = arrivals_[2].first - arrivals_[1].first;
    const Tick gap3 = arrivals_[3].first - arrivals_[2].first;
    EXPECT_EQ(gap1, milliseconds(1));
    EXPECT_EQ(gap2, milliseconds(2));
    EXPECT_EQ(gap3, milliseconds(2)); // 4 ms capped at 2 ms
}

TEST_F(RetryHarness, LateDuplicateIsCountedNotRecorded)
{
    enableRetry(milliseconds(1), 0); // no retries: times out fast
    answerFrom_ = 0;
    client_.sendRequest(0);
    eq_.runAll();
    ASSERT_EQ(client_.requestsTimedOut(), 1u);
    // The answer shows up after the client gave up.
    Packet resp = arrivals_[0].second;
    resp.kind = Packet::Kind::kResponse;
    client_.onResponse(resp, eq_.now());
    EXPECT_EQ(client_.duplicateResponses(), 1u);
    EXPECT_EQ(client_.responsesReceived(), 0u);
    EXPECT_EQ(client_.latencies().count(), 0u);
}

TEST_F(RetryHarness, RetryPolicyMustBeSetBeforeFirstSend)
{
    client_.sendRequest(0);
    ClientRetryPolicy retry;
    retry.timeout = milliseconds(1);
    EXPECT_THROW(client_.setRetryPolicy(retry), FatalError);
}

TEST_F(RetryHarness, DisabledPolicyKeepsFireAndForgetBehaviour)
{
    answerFrom_ = 1;
    client_.sendRequest(0);
    eq_.runAll();
    EXPECT_EQ(client_.responsesReceived(), 1u);
    EXPECT_EQ(client_.requestsInFlight(), 0u);
    client_.sendRequest(1); // never answered, never retried
    answerFrom_ = 0;
    eq_.runAll();
    EXPECT_EQ(client_.requestsInFlight(), 1u);
    EXPECT_EQ(client_.retransmits(), 0u);
    EXPECT_EQ(client_.requestsTimedOut(), 0u);
}

} // namespace
} // namespace nmapsim
