/**
 * @file
 * Unit tests for the Parties baseline (slack-driven long-term DVFS).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/parties.hh"
#include "cpu/core.hh"
#include "net/wire.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "workload/client.hh"

namespace nmapsim {
namespace {

class PartiesTest : public ::testing::Test
{
  protected:
    PartiesTest()
        : wire_(eq_), client_(eq_, wire_, AppProfile::memcached(), 4)
    {
        wire_.setSink([](const Packet &) {});
        for (int i = 0; i < 2; ++i) {
            cores_.push_back(std::make_unique<Core>(
                i, eq_, CpuProfile::xeonGold6134(), rng_));
            ptrs_.push_back(cores_.back().get());
        }
        config_.interval = milliseconds(500);
        config_.slo = milliseconds(1);
    }

    /** Inject a completed response with the given latency. */
    void
    observeLatency(Tick latency)
    {
        Packet p;
        p.kind = Packet::Kind::kResponse;
        p.sendTime = eq_.now() - latency;
        client_.onResponse(p, eq_.now());
    }

    EventQueue eq_;
    Rng rng_{5};
    Wire wire_;
    Client client_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<Core *> ptrs_;
    PartiesConfig config_;
};

TEST_F(PartiesTest, StartsMidRange)
{
    PartiesGovernor parties(eq_, ptrs_, client_, config_);
    parties.start();
    eq_.runUntil(milliseconds(1));
    int mid = ptrs_[0]->profile().pstates.maxIndex() / 2;
    EXPECT_EQ(parties.chipPState(), mid);
    EXPECT_EQ(ptrs_[0]->pstateIndex(), mid);
    EXPECT_EQ(ptrs_[1]->pstateIndex(), mid);
}

TEST_F(PartiesTest, SloViolationRaisesVf)
{
    PartiesGovernor parties(eq_, ptrs_, client_, config_);
    parties.start();
    eq_.runUntil(milliseconds(400));
    int before = parties.chipPState();
    // P99 = 3x SLO: strong violation.
    for (int i = 0; i < 100; ++i)
        observeLatency(milliseconds(3));
    eq_.runUntil(milliseconds(600)); // decision at 500 ms
    EXPECT_LT(parties.chipPState(), before);
    EXPECT_LT(parties.lastSlack(), 0.0);
}

TEST_F(PartiesTest, SevereViolationStepsFaster)
{
    PartiesGovernor parties(eq_, ptrs_, client_, config_);
    parties.start();
    eq_.runUntil(milliseconds(400));
    int before = parties.chipPState();
    for (int i = 0; i < 100; ++i)
        observeLatency(milliseconds(10)); // 10x SLO
    eq_.runUntil(milliseconds(600));
    // Multiple steps at once for a big violation.
    EXPECT_LE(parties.chipPState(), before - 2);
}

TEST_F(PartiesTest, ComfortableSlackStepsDown)
{
    PartiesGovernor parties(eq_, ptrs_, client_, config_);
    parties.start();
    eq_.runUntil(milliseconds(400));
    int before = parties.chipPState();
    for (int i = 0; i < 100; ++i)
        observeLatency(microseconds(50)); // tiny latency, big slack
    eq_.runUntil(milliseconds(600));
    EXPECT_EQ(parties.chipPState(), before + 1);
}

TEST_F(PartiesTest, TightButMetSloHolds)
{
    PartiesGovernor parties(eq_, ptrs_, client_, config_);
    parties.start();
    eq_.runUntil(milliseconds(400));
    int before = parties.chipPState();
    // P99 at 70% of SLO: inside the hold band.
    for (int i = 0; i < 100; ++i)
        observeLatency(microseconds(700));
    eq_.runUntil(milliseconds(600));
    EXPECT_EQ(parties.chipPState(), before);
}

TEST_F(PartiesTest, IdleWindowsDriftDown)
{
    PartiesGovernor parties(eq_, ptrs_, client_, config_);
    parties.start();
    eq_.runUntil(milliseconds(1));
    int start = parties.chipPState();
    eq_.runUntil(milliseconds(1600)); // three empty windows
    EXPECT_EQ(parties.chipPState(), start + 3);
}

TEST_F(PartiesTest, DecisionsOnlyEveryInterval)
{
    PartiesGovernor parties(eq_, ptrs_, client_, config_);
    parties.start();
    eq_.runUntil(milliseconds(1));
    int start = parties.chipPState();
    for (int i = 0; i < 100; ++i)
        observeLatency(milliseconds(5));
    // Violation data present but no decision until 500 ms: the
    // long-interval weakness Fig. 16 demonstrates.
    eq_.runUntil(milliseconds(499));
    EXPECT_EQ(parties.chipPState(), start);
}

} // namespace
} // namespace nmapsim
